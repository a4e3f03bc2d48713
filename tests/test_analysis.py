import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import fluxring as fr
from fluxring import analysis
from fluxring.analysis import _current, _current_root, _flux_roles, sector_basis_for
from fluxring.errors import (
    BasisMismatch,
    DegenerateGround,
    HypothesisViolated,
    MethodLimit,
    MultipletCut,
)
from fluxring.model import angle_dist, fold_angle
from fluxring.operators import FluxFamily
from fluxring.spectra import _MIRROR_TOL, _ground_energies

from oracles import DenseOracle, filled_sum, hardcore_block_energies, regauge

PI = math.pi

# frozen from the closed-form one-particle oracle (see oracles.fourier_levels)
E3_HALF = -2.0 * math.sqrt(3.0)
E5_HALF = -6.155367074350507
L4N5_MIN = -2.0 * math.sqrt(5.0)
L4N5_ARGMIN = (1.8545904360032244, 4.428594871176362)  # 4 arcsin(1/sqrt5), mirror


def test_scan_flux_odd_halffill_uniform():
    spec = fr.make_spec(3, 3)
    energies = fr.scan_flux(fr.flux_family(spec, sector_basis_for(spec, 1)), grid_size=48)
    k = int(np.argmin(energies))
    phi_min, val = fr.analysis.flux_grid(48)[k], energies[k]
    assert val == pytest.approx(E3_HALF, abs=1e-10)
    assert min(angle_dist(phi_min, c) for c in (PI / 2, 3 * PI / 2)) < 2 * PI / 48


def test_scan_flux_overfilled_ring():
    spec = fr.make_spec(4, 5)
    family = fr.flux_family(spec, sector_basis_for(spec))
    energies = fr.scan_flux(family, grid_size=64)
    minima = fr.refine_argmin(energies, family)
    assert len(minima) == 2
    for got, want in zip(sorted(minima), L4N5_ARGMIN):
        assert angle_dist(got, want) < 1e-6
    e_min = _ground_energies(family, [minima[0]])[0]
    assert e_min == pytest.approx(L4N5_MIN, abs=1e-8)


def test_scan_flux_vacuum_constant_zero():
    spec = fr.make_spec(4, 0)
    energies = fr.scan_flux(fr.flux_family(spec, sector_basis_for(spec)), grid_size=16)
    assert np.abs(energies).max() == 0.0


def test_scan_flux_rejects_tiny_grid():
    with pytest.raises(ValueError):
        spec = fr.make_spec(3, 1)
        fr.scan_flux(fr.flux_family(spec, sector_basis_for(spec)), grid_size=4)


def test_grids_below_eight_points_raise():
    assert np.array_equal(fr.analysis.flux_grid(8), np.arange(8) * (2 * PI / 8))
    hc = fr.make_spec(4, 2, U=fr.INFINITY)
    for size in (-3, 0, 7):
        with pytest.raises(ValueError):
            fr.verify_doubling(fr.make_spec(4, 2), grid_size=size)
        with pytest.raises(ValueError):
            fr.verify_block_lemma(hc, grid_size=size)
        with pytest.raises(ValueError):
            fr.thermal_scan(fr.make_spec(4, 2), grid_size=size)
        with pytest.raises(ValueError):
            fr.verify_even(hc, grid_size=size)


def test_scan_matches_arbitrary_gauge_point():
    # scan values agree with a direct build in any other gauge of equal flux
    rng = np.random.default_rng(6)
    spec = fr.make_spec(5, 2, rng.uniform(0.5, 2, 5), None, rng.normal(0, 1, 5), 2.0)
    basis = sector_basis_for(spec)
    energies = fr.scan_flux(fr.flux_family(spec, basis), grid_size=16)
    for i in (0, 5, 11):
        phi = float(fr.analysis.flux_grid(16)[i])
        parts = rng.uniform(0, 2 * PI, 4)
        moved = regauge(fr.with_flux(spec, phi), tuple(parts) + (phi - parts.sum(),))
        e = fr.ground(fr.build_hamiltonian(moved, basis)).energy
        assert abs(e - energies[i]) < 1e-10


def test_refine_argmin_flat_curve():
    spec = fr.make_spec(4, 0)
    family = fr.flux_family(spec, sector_basis_for(spec))
    out = fr.refine_argmin(np.zeros(12), family)
    assert len(out) == 12
    # the values lie on flux_grid(len(values)), which refuses fewer than 8
    with pytest.raises(ValueError):
        fr.refine_argmin(np.zeros(7), family)


@given(st.integers(3, 6), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1),
       st.floats(0.0, 2 * PI), st.sampled_from(["dense", "lanczos"]))
# a 9-state sector whose recurrence runs past its exhausted Krylov space
@example(3, 3, False, 3, 2.3567667832308348, "lanczos")
# a 36-state sector whose checks once jumped from step 20 to 35, past the
# steps where its ground vector met its residual
@example(4, 4, False, 347419879, 4.75, "lanczos")
@settings(max_examples=30, deadline=None)
def test_persistent_current_matches_energy_central_difference(L, N, hardcore, seed, phi,
                                                              method):
    assume(N < L if hardcore else N < 2 * L)
    rng = np.random.default_rng(seed)
    spec = fr.make_spec(L, N, rng.uniform(0.5, 2.0, L), None, rng.normal(0.0, 1.0, L),
                        fr.INFINITY if hardcore else rng.uniform(-3.0, 3.0, L))
    family = fr.flux_family(spec, sector_basis_for(spec))
    levels = np.linalg.eigvalsh(family.dense(phi))
    assume(len(levels) > 1 and levels[1] - levels[0] > 1e-3)   # non-degenerate
    h = 1e-5
    lower = lambda x: float(np.linalg.eigvalsh(family.dense(x))[0])
    slope = (lower(phi + h) - lower(phi - h)) / (2 * h)
    energy, lo, hi = _current(family, phi, method)
    assert lo == hi       # one ground vector, one slope
    assert abs(lo - slope) < 1e-7 * max(1.0, abs(slope))
    assert abs(energy - levels[0]) < 1e-12 * max(1.0, abs(levels[0]))


@pytest.mark.parametrize("root", [0.3, 0.3 + 1e-11, 0.5 - 1e-12])
def test_current_root_closes_on_smooth_roots_and_cusps(root):
    evals = []

    def smooth(x):
        evals.append(x)
        j = math.sin(3.0 * (x - root))
        return 0.0, j, j

    x, _ = _current_root(smooth, 0.1, 0.5, 1e-10)
    assert abs(x - root) < 1e-10 and len(evals) < 12

    def cusp(x):       # the current jumps from -1 to +2 at the root
        j = -1.0 if x < root else 2.0
        return 0.0, j, j

    x, _ = _current_root(cusp, 0.1, 0.5, 1e-10)
    assert abs(x - root) <= 1e-10
    # an end whose slopes straddle zero is the root; a bracket without an
    # upward crossing has none
    assert _current_root(lambda x: (0.0, -1.0, 1.0), 0.1, 0.5, 1e-10) == (0.1, 0.0)
    assert _current_root(lambda x: (0.0, 1.0, 1.0), 0.1, 0.5, 1e-10) is None


def test_refine_argmin_solves_a_handful_of_points(monkeypatch):
    rng = np.random.default_rng(5)
    spec = fr.make_spec(6, 4, rng.uniform(0.5, 2, 6), None, rng.normal(0, 1, 6), 3.0)
    family = fr.flux_family(spec, sector_basis_for(spec, 0))
    curve = fr.scan_flux(family, grid_size=64)
    calls = []
    ground = analysis.ground
    monkeypatch.setattr(analysis, "ground", lambda *a, **k: calls.append(1) or ground(*a, **k))
    minima = fr.refine_argmin(curve, family)
    assert len(minima) == 1 and angle_dist(minima[0], PI) <= 1e-10
    assert len(calls) <= 6            # the bracket around pi solves one of its ends


def _solved_angles(monkeypatch):
    """Spy on analysis._current: the angle of each solve."""
    angles = []
    current = analysis._current
    monkeypatch.setattr(analysis, "_current", lambda family, phi, method:
                        angles.append(phi) or current(family, phi, method))
    return angles


@pytest.mark.parametrize("verify, spec", [
    (fr.verify_odd, fr.make_spec(5, 5, np.random.default_rng(4).uniform(0.5, 2, 5))),
    (fr.verify_even, fr.make_spec(6, 4, np.random.default_rng(4).uniform(0.5, 2, 6),
                                  None, None, fr.INFINITY)),
])
def test_refinement_solves_each_mirror_pair_once(monkeypatch, verify, spec):
    # real families: every solve lies in [0, pi] and none repeats another,
    # so a minimum in (pi, 2*pi), 3*pi/2 here, costs no solve and mirrors
    # its partner below pi
    angles = _solved_angles(monkeypatch)
    report = verify(spec)
    assert report.passed and angles
    assert all(0.0 <= x <= PI for x in angles)
    assert all(abs(x - y) > _MIRROR_TOL for k, x in enumerate(angles) for y in angles[:k])
    minima = report.measured["argmin"]
    assert [x for x in minima if x > PI + _MIRROR_TOL] == [max(minima)]
    assert any(abs(max(minima) + y - 2 * PI) <= _MIRROR_TOL for y in minima)


def _triangle(theta):
    """One particle on a 3-site ring with |t| = 1, bond (0, 1) carrying the
    phase theta at flux 0 and the flux threading bond (2, 0): its ground
    energy -2 cos((phi - theta)/3) is least at phi = theta. theta != 0
    makes a flux-0 entry complex."""
    # the entries (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), in CSR order
    data = np.array([-np.exp(1j * theta), -1, -np.exp(-1j * theta), -1, -1, -1])
    zero = sparse.csr_matrix((data, [1, 2, 0, 2, 0, 1], [0, 2, 4, 6]), shape=(3, 3))
    return FluxFamily(zero, np.array([1]), np.array([4]))


@pytest.mark.parametrize("theta", [0.0, 0.02])
def test_refinement_solves_both_ends_without_time_reversal(monkeypatch, theta):
    # the bracket around the grid minimum 0 runs from -2*pi/64 to 2*pi/64:
    # a real family solves one end, one with a complex flux-0 entry both
    family = _triangle(theta)
    curve = fr.scan_flux(family, grid_size=64)
    assert int(np.argmin(curve)) == 0
    angles = _solved_angles(monkeypatch)
    (minimum,) = fr.refine_argmin(curve, family)
    assert angle_dist(minimum, theta) <= 1e-10
    ends = [fold_angle(x) for x in angles
            if abs(angle_dist(x, 0.0) - 2 * PI / 64) <= _MIRROR_TOL]
    assert len(ends) == (1 if theta == 0.0 else 2)
    assert (max(ends) > PI) == (theta != 0.0)


def _even_scan_spec(seed, L, N, u):
    """Instance (L, N, U) of the even_scan benchmark pool of a seed, rebuilt
    from the same random draws."""
    rng = np.random.default_rng([seed, 1])
    for ell in (4, 5, 6):
        for n in range(2, ell + 1, 2):
            for coupling in (-2.0, 0.0, 3.0):
                hop, v = rng.uniform(0.5, 2.0, ell), rng.normal(0.0, 1.0, ell)
                if (ell, n, coupling) == (L, N, u):
                    return fr.make_spec(ell, n, hop, None, v, coupling)
    raise ValueError("not in the pool")


@pytest.mark.parametrize("seed,L,N,u", [(1, 6, 2, 0.0), (10, 6, 2, -2.0)])
def test_verify_even_benchmark_instances_once_failed(seed, L, N, u):
    # golden section on the energy put these argmins 1.01e-6 and 1.12e-6
    # from (N/2+1)*pi, past the 1e-6 tolerance
    r = fr.verify_even(_even_scan_spec(seed, L, N, u), grid_size=64)
    assert r.passed and r.measured["max_angle_deviation"] <= 1e-8, r.measured


def test_verify_odd_benchmark_fixture_once_failed():
    # the twelfth fixture of the odd_scan pool of seed 14; golden section
    # put an argmin 1.35e-6 from the quarter turn
    rng = np.random.default_rng([14, 2])
    fixture_seed = [int(rng.integers(2**31)) for _ in range(12)][-1]
    assert fixture_seed == 1359577725
    spec = fr.gen_fixture("random-hop", seed=fixture_seed, L=7)
    r = fr.verify_odd(spec, grid_size=32, method="lanczos")
    assert r.passed and r.measured["max_angle_deviation"] <= 1e-8, r.measured
    assert r.measured["argmin_coverage"] <= 1e-8


def test_verify_even_criterion_one_worst_instance():
    # criterion 1's L=6 N=6 seed 0 U=-2, its worst instance under golden
    # section (1.8e-7 from the optimal flux): now a hundredth of the tolerance
    rng = np.random.default_rng(1000 * 6 + 100 * 6 + 0)
    spec = fr.make_spec(6, 6, rng.uniform(0.5, 2.0, 6), None, rng.normal(0.0, 1.0, 6), -2.0)
    r = fr.verify_even(spec, grid_size=64)
    assert r.passed and r.measured["max_angle_deviation"] <= 1e-8, r.measured


def test_verify_even_finite_u():
    r = fr.verify_even(fr.make_spec(4, 4), grid_size=64)
    assert r.passed
    assert r.measured["expected"] == [pytest.approx(PI)]
    assert r.measured["min_energy"] == pytest.approx(-4 * math.sqrt(2), abs=1e-10)

    rng = np.random.default_rng(12)
    spec = fr.make_spec(5, 2, rng.uniform(0.5, 2, 5), None, rng.normal(0, 1, 5), 1.0)
    r = fr.verify_even(spec, grid_size=64)
    assert r.passed
    assert r.measured["expected"] == [pytest.approx(PI)]


def test_verify_even_hardcore():
    r = fr.verify_even(fr.make_spec(4, 2, U=fr.INFINITY), grid_size=64)
    assert r.passed
    assert r.measured["period_residual"] < 1e-10
    mins = r.measured["argmin"]
    assert len(mins) == 2
    for want in (0.0, PI):
        assert min(angle_dist(m, want) for m in mins) < 1e-6


def _count_builds(monkeypatch) -> dict:
    """Count the sector enumerations, flux families and Hamiltonians that
    analysis builds from here on."""
    counts = dict.fromkeys(("enumerate_sector", "flux_family", "build_hamiltonian"), 0)
    for name in counts:
        def spy(*args, _name=name, _fn=getattr(analysis, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(analysis, name, spy)
    return counts


def test_verify_even_hardcore_period_on_every_grid_point(monkeypatch):
    # N = 4 divides 64: E(phi + pi/2) is the curve 16 steps on, no extra solve;
    # at 66 points the shifted angles are solved, one per grid point, on the
    # family that the scan and the refinement use
    spec = fr.make_spec(6, 4, (1.3, 0.8, 1.1, 0.6, 1.7, 0.9), None, None, fr.INFINITY)
    calls = []
    energies = fr.analysis._ground_energies
    monkeypatch.setattr(fr.analysis, "_ground_energies",
                        lambda *a, **k: calls.extend(a[1]) or energies(*a, **k))
    builds = _count_builds(monkeypatch)
    for grid, solved in ((64, 0), (66, 66)):
        calls.clear()
        builds.update(dict.fromkeys(builds, 0))
        r = fr.verify_even(spec, grid_size=grid)
        assert r.passed
        assert r.measured["period_residual"] < 1e-12
        shifted = list(fr.analysis.flux_grid(grid) + PI / 2)
        assert list(calls[:grid]) == list(fr.analysis.flux_grid(grid))  # the scan
        assert [p for p in calls[grid:] if p in shifted] == shifted[:solved]
        assert builds == {"enumerate_sector": 1, "flux_family": 1, "build_hamiltonian": 0}


def test_each_verification_builds_its_sector_once(monkeypatch):
    # the scan, the refinement and both flux roles all evaluate one flux
    # family of one sector basis (hard-core verify_even: the test above)
    rng = np.random.default_rng(3)
    even = fr.make_spec(6, 4, rng.uniform(0.5, 2, 6), None, rng.normal(0, 1, 6), 3.0)
    relation = fr.make_spec(8, 6, rng.uniform(0.5, 2, 8), None, None, fr.INFINITY)
    runs = [lambda: fr.verify_even(even, grid_size=64),
            lambda: fr.verify_odd(fr.gen_fixture("random-hop", seed=2, L=5), grid_size=32),
            lambda: fr.verify_relation(relation)]
    builds = _count_builds(monkeypatch)
    for run in runs:
        builds.update(dict.fromkeys(builds, 0))
        assert run().passed
        assert builds == {"enumerate_sector": 1, "flux_family": 1, "build_hamiltonian": 0}


def test_verify_even_rejects_filled_hardcore_ring():
    # N = L hard-core: no particle can hop, the curve is flat
    for L in (4, 6):
        with pytest.raises(HypothesisViolated):
            fr.verify_even(fr.make_spec(L, L, U=fr.INFINITY))


def test_thermal_scan_rejects_filled_hardcore_ring():
    # N = L hard-core: log P is flat in phi, so its argmax says nothing
    for L, N in ((6, 6), (4, 4), (5, 5)):
        with pytest.raises(HypothesisViolated, match="N < L"):
            fr.thermal_scan(fr.make_spec(L, N, U=fr.INFINITY), grid_size=12)
    assert fr.thermal_scan(fr.make_spec(6, 4, U=fr.INFINITY), grid_size=12).passed


HOP_FREE = (fr.make_spec(4, 0), fr.make_spec(4, 0, U=fr.INFINITY), fr.make_spec(4, 8))


def test_verifiers_reject_hop_free_sectors():
    # N = 0, hard-core N = L and free N = 2L: every flux curve is flat
    for spec in HOP_FREE:
        with pytest.raises(HypothesisViolated):
            fr.verify_even(spec)
        with pytest.raises(HypothesisViolated, match="no particle can hop"):
            fr.thermal_scan(spec, grid_size=12)
    for spec in (fr.make_spec(4, 0, U=fr.INFINITY), fr.make_spec(4, 4, U=fr.INFINITY)):
        with pytest.raises(HypothesisViolated, match="N < L"):
            fr.verify_block_lemma(spec, grid_size=12)


@pytest.mark.parametrize("t,betas", [(300.0, (0.5, 4.0)), (20.0, (0.5, 1.0, 2.0))],
                         ids=["t300", "t20"])
def test_thermal_scan_strong_hopping_judged_in_log_domain(t, betas):
    # P = Tr exp(-beta H) overflows a float at |t| = 300, beta = 4, and at
    # |t| = 20 its rounding noise alone gave dP/dphi up to 4e48 at an exact
    # critical point; d log P / dphi is finite and at noise level at both
    r = fr.thermal_scan(fr.make_spec(3, 3, hop_mag=t), betas=betas, grid_size=12)
    assert r.passed, r.measured
    derivs = r.measured["critical_point_log_derivative"]
    assert list(derivs) == list(betas)
    assert all(d < 1e-10 for d in derivs.values())


def test_verify_even_rejects_odd_n():
    with pytest.raises(HypothesisViolated):
        fr.verify_even(fr.make_spec(4, 3))


def test_verify_odd_uniform_and_random():
    r = fr.verify_odd(fr.make_spec(3, 3), grid_size=48)
    assert r.passed
    assert r.measured["min_energy"] == pytest.approx(E3_HALF, abs=1e-10)

    for seed in (0, 1):
        r = fr.verify_odd(fr.gen_fixture("random-hop", seed=seed, L=5), grid_size=32)
        assert r.passed, r.measured


def test_verify_odd_value_l5():
    r = fr.verify_odd(fr.make_spec(5, 5), grid_size=32)
    assert r.passed
    assert r.measured["min_energy"] == pytest.approx(E5_HALF, abs=1e-10)


def test_verify_odd_hypotheses():
    with pytest.raises(HypothesisViolated):
        fr.verify_odd(fr.gen_fixture("remark5"))  # V != 0
    with pytest.raises(HypothesisViolated):
        fr.verify_odd(fr.make_spec(3, 3, U=1.0))
    with pytest.raises(HypothesisViolated):
        fr.verify_odd(fr.make_spec(5, 3))


def test_verify_doubling_values_and_random():
    assert filled_sum(3, 0.0, 1) + filled_sum(3, PI, 1) == pytest.approx(-3.0, abs=1e-12)
    r = fr.verify_doubling(fr.make_spec(3, 3), grid_size=32)
    assert r.passed and r.measured["max_residual"] < 1e-10

    r = fr.verify_doubling(fr.gen_fixture("random-hop", seed=5, L=5), grid_size=64)
    assert r.passed and r.measured["max_residual"] < 1e-10


def test_verify_singlet_random_draws():
    rng = np.random.default_rng(42)
    for u in (-3.0, 0.0, 2.0, 7.0):
        spec = fr.make_spec(4, 2, rng.uniform(0.5, 2, 4), None, rng.normal(0, 1, 4), u)
        r = fr.verify_singlet(spec)  # flux 0 is optimal on this ring
        assert r.passed, (u, r.measured)
        assert r.measured["minimal_sector_spins"] == [0.0]


@pytest.mark.parametrize("L,N,u", [(3, 3, 0.0), (4, 2, 2.0), (5, 3, -1.0), (5, 4, 3.0),
                                   (6, 4, 2.0), (6, 6, 1.0)])
def test_verify_singlet_reads_the_spin_in_the_minimal_sector_only(monkeypatch, L, N, u):
    # S^2 is built once, for the minimal sector; every sector's energy is
    # the dense ground energy of its own Hamiltonian
    rng = np.random.default_rng(L * 10 + N)
    spec = fr.make_spec(L, N, rng.uniform(0.5, 2, L), None, rng.normal(0, 1, L), u)
    built = []
    total_spin = analysis.build_total_spin
    monkeypatch.setattr(analysis, "build_total_spin",
                        lambda basis: built.append(basis.two_sz) or total_spin(basis))
    r = fr.verify_singlet(spec)
    assert built == [N % 2]
    energies = r.measured["sector_energies"]
    assert list(energies) == list(range(N % 2, N + 1, 2))
    for two_sz, energy in energies.items():
        h = fr.build_hamiltonian(spec, fr.enumerate_sector(L, N, two_sz))
        assert abs(energy - fr.ground(h, method="dense").energy) < 1e-12, two_sz


@pytest.mark.parametrize("L,N", [(6, 4), (5, 3)])
def test_verify_singlet_does_not_depend_on_the_gauge(L, N):
    # the minimal sector is solved in the model's own gauge and the sectors
    # above it on the canonical family: a model with its flux spread over
    # the bonds reports what the canonical model reports
    rng = np.random.default_rng(L * 10 + N)
    spec = fr.with_flux(fr.make_spec(L, N, rng.uniform(0.5, 2, L), None, rng.normal(0, 1, L),
                                     rng.uniform(0.5, 3, L)), 0.7)
    parts = rng.uniform(0, 2 * PI, L - 1)
    canonical = fr.verify_singlet(spec)
    spread = fr.verify_singlet(regauge(spec, tuple(parts) + (0.7 - parts.sum(),)))
    a, b = canonical.measured, spread.measured
    assert list(a["sector_energies"]) == list(b["sector_energies"])
    for two_sz, energy in a["sector_energies"].items():
        assert abs(b["sector_energies"][two_sz] - energy) <= 1e-12 * max(1.0, abs(energy))
    for key in ("minimal_sector_degeneracy", "minimal_sector_spins"):
        assert a[key] == b[key], key
    assert spread.passed == canonical.passed


def test_verify_singlet_control_fails():
    r = fr.verify_singlet(fr.with_flux(fr.make_spec(4, 2), PI))
    assert not r.passed
    assert r.measured["minimal_sector_degeneracy"] == 4
    assert r.measured["minimal_sector_spins"] == [0.0, 1.0]


def test_verify_singlet_odd_multiplet():
    r = fr.verify_singlet(fr.with_flux(fr.make_spec(3, 3), PI / 2))
    assert r.passed
    assert r.measured["expected_spin"] == 0.5
    assert r.measured["minimal_sector_spins"] == [0.5]


def test_verify_relation_uniform_and_random():
    r = fr.verify_relation(fr.make_spec(4, 2, U=fr.INFINITY))
    assert r.passed
    assert r.measured["levelsum_pi"] == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    assert r.measured["ground_spins_zero"] == [0.0]
    assert 1.0 in r.measured["ground_spins_pi"]

    rng = np.random.default_rng(2)
    spec = fr.make_spec(6, 2, rng.uniform(0.5, 2, 6), None, rng.normal(0, 1, 6),
                        fr.INFINITY)
    r = fr.verify_relation(spec)
    assert r.passed, r.measured


def _random_hardcore(L, N, seed, potentials=False):
    rng = np.random.default_rng(seed)
    return fr.make_spec(L, N, rng.uniform(0.5, 2, L), None,
                        rng.normal(0, 1, L) if potentials else None, fr.INFINITY)


@pytest.mark.parametrize("spec", [_random_hardcore(10, 6, 1, potentials=True),
                                  _random_hardcore(11, 10, 5)], ids=["L10N6", "L11N10"])
def test_hardcore_grounds_match_the_one_particle_oracle(spec):
    # a block of period p is the direct sum over j < p of spinless rings at
    # phi + 2*pi*j/p: the ground energy is the least of their level sums, and
    # the ground level holds one state per (block, j) pair that reaches it
    basis = sector_basis_for(spec, 0)
    family = fr.flux_family(spec, basis)
    blocks = fr.decompose_blocks(basis)
    roles = _flux_roles(spec.L)
    for phi, g in zip(roles, analysis._hardcore_grounds(basis, family, roles)):
        sums = np.concatenate([hardcore_block_energies(spec, b.period, phi) for b in blocks])
        e0 = float(sums.min())
        assert abs(g.energy - e0) <= 1e-12 * max(1.0, abs(e0))
        assert g.degeneracy == np.count_nonzero(sums <= e0 + 1e-9 * max(1.0, abs(e0))) > 1
        assert g.vectors.shape == (basis.dim, g.degeneracy)
        assert np.abs(g.vectors.conj().T @ g.vectors - np.eye(g.degeneracy)).max() < 1e-12
        h = family.hamiltonian(phi)
        assert np.abs(h.matvec(g.vectors) - g.energy * g.vectors).max() < 1e-10


def _block_lemma_models():
    # the two block-lemma models of the hardcore_blocks benchmark pool of
    # seed 1: per model it draws |t| for a blocks (L=8), a spiral (L=10) and
    # a relation (L=8) verification in turn
    rng = np.random.default_rng([1, 4])
    draws = [rng.uniform(0.5, 2.0, L) for _ in range(2) for L in (8, 10, 8)]
    return [fr.make_spec(8, 6, t, None, None, fr.INFINITY) for t in draws[::3]]


@pytest.mark.parametrize("spec,grid", [
    *((spec, analysis.flux_grid(90)) for spec in _block_lemma_models()),
    (_random_hardcore(11, 10, 5), (0.0, 0.7, PI, 4.4, 2 * PI - 0.7)),
    (_random_hardcore(12, 8, 5), (0.0, 0.7, PI, 4.4, 2 * PI - 0.7, 2 * PI - 4.4)),
    # the 26 blocks of 110 states have a ground gap of 2.7e-5 here, and an
    # energy-only column stops at a Ritz residual of 1e-8 * |E|, which
    # leaves up to residual^2 / gap: 4.2e-12 (1.4e-12 relative) on one
    # block at 2*pi - 4.4, solved there and taken by 4.4
    pytest.param(_random_hardcore(11, 10, 5), (4.4, 2 * PI - 4.4),
                 marks=pytest.mark.xfail(strict=True, reason="energy-only Lanczos stop "
                                         "rule near a degenerate ground level")),
], ids=["L8N6-model0", "L8N6-model1", "L11N10", "L12N8", "L11N10-near-degenerate"])
def test_block_curves_match_the_one_particle_oracle(spec, grid):
    # every block curve of verify_block_lemma against the block's least
    # level sum over its p spinless rings; 2*pi - 0.7 takes the energy of
    # 0.7 and 4.4 that of 2*pi - 4.4: mirrored values checked at L=11, 12
    basis = sector_basis_for(spec, 0)
    family = fr.flux_family(spec, basis)
    blocks = fr.decompose_blocks(basis)
    if spec.L == 8:         # its period-2 block runs the recurrence too
        assert min(b.dimension for b in blocks) == 56 > fr.spectra.ENERGY_CROSSOVER
    for b in blocks:
        curve = analysis._ground_energies(family.restrict(b.member_indices), grid)
        exact = np.array([hardcore_block_energies(spec, b.period, phi).min() for phi in grid])
        assert np.all(np.abs(curve - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact))), b.period


def test_finite_coupling_curve_matches_the_dense_oracle():
    # the 64-angle curve of a random-V, U=3 L=6 N=4 sector (dimension 225,
    # on the recurrence), half of it mirrored, against the lowest level of
    # the oracle's matrix at each angle, in the canonical gauge
    rng = np.random.default_rng(4)
    spec = fr.make_spec(6, 4, rng.uniform(0.5, 2, 6), None, rng.normal(0, 1, 6), 3.0)
    family = fr.flux_family(spec, sector_basis_for(spec, 0))
    assert family.dim > fr.spectra.ENERGY_CROSSOVER
    grid = analysis.flux_grid(64)
    curve = analysis.scan_flux(family, grid_size=64)
    exact = []
    for phi in grid:
        amps = np.asarray(spec.hop_mag, dtype=complex)
        amps[-1] *= np.exp(1j * phi)
        h = DenseOracle(6, amps, spec.V, spec.U).hamiltonian(2, 2)
        exact.append(np.linalg.eigvalsh(h)[0])
    assert np.all(np.abs(curve - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))


def test_verify_relation_passes_past_the_whole_sector_deflation(monkeypatch):
    # hard-core L=11 N=10: 26 blocks with one ground state each at both
    # roles, more than the 8 that a deflation over the whole sector locks
    # (it raised MultipletCut); each block is solved on its own
    spec = _random_hardcore(11, 10, 5)
    dims = []
    solve = analysis.ground
    monkeypatch.setattr(analysis, "ground",
                        lambda h, **k: dims.append((h.dim, k)) or solve(h, **k))
    r = fr.verify_relation(spec)
    assert r.passed, r.measured
    assert r.measured["ground_spins_zero"] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert r.measured["ground_spins_pi"] == [0.0, 1.0, 2.0, 3.0, 5.0]
    assert max(r.measured["energy_equality_residual"],
               r.measured["energy_vs_levelsum_residual"]) < 1e-13
    assert len(dims) == 2 * 26
    assert all(dim < 2772 and k == {} for dim, k in dims)   # ground's defaults


def test_hardcore_grounds_raise_on_a_saturated_block(monkeypatch):
    # uniform hard-core L=7 N=4 at pi/4: the period-4 block has a two-fold
    # ground level, the period-2 block a simple one at the same energy
    spec = fr.make_spec(7, 4, U=fr.INFINITY)
    basis = sector_basis_for(spec, 0)
    family = fr.flux_family(spec, basis)
    (g,) = analysis._hardcore_grounds(basis, family, [PI / 4])
    assert g.degeneracy == 3 and not g.saturated
    s2 = fr.build_total_spin(basis)
    # Lanczos with no dense fallback, as above DENSE_LIMIT: room for three
    # vectors clears the two-fold level, room for two saturates on it
    solve = fr.ground
    monkeypatch.setattr(analysis, "ground",
                        lambda h, **k: solve(h, method="lanczos", max_degeneracy=2, **k))
    (lanczos,) = analysis._hardcore_grounds(basis, family, [PI / 4])
    assert lanczos.method == "lanczos" and lanczos.degeneracy == 3
    assert lanczos.spins(s2) == g.spins(s2)
    assert abs(lanczos.energy - g.energy) < 1e-12
    monkeypatch.setattr(analysis, "ground",
                        lambda h, **k: solve(h, method="lanczos", max_degeneracy=1, **k))
    with pytest.raises(MultipletCut, match="multiplet may be cut"):
        analysis._hardcore_grounds(basis, family, [PI / 4])


def test_verify_relation_odd_ring_swaps_roles():
    r = fr.verify_relation(fr.make_spec(5, 4, U=fr.INFINITY))
    assert r.passed
    assert r.measured["zero_role_flux"] == pytest.approx(PI)
    assert r.measured["energy_equality_residual"] < 1e-10


def test_verify_relation_hypotheses():
    with pytest.raises(HypothesisViolated):
        fr.verify_relation(fr.make_spec(4, 2, U=2.0))
    with pytest.raises(HypothesisViolated):
        fr.verify_relation(fr.make_spec(4, 3, U=fr.INFINITY))
    with pytest.raises(HypothesisViolated):
        fr.verify_relation(fr.make_spec(4, 4, U=fr.INFINITY))


@pytest.mark.parametrize("L", [3, 4, 5])
def test_spiral_state_n2(L):
    state, r = fr.spiral_state(fr.make_spec(L, 2, U=fr.INFINITY))
    assert r.passed, r.measured
    assert r.measured["spin_expectation"] < 1e-10
    assert r.measured["energy_residual"] < 1e-9
    assert r.measured["pf_min_entry"] > 0
    assert state.shape == (sector_basis_for(fr.make_spec(L, 2, U=fr.INFINITY)).dim,)


def test_spiral_report_judges_the_gauge_conjugation(monkeypatch):
    spec = fr.make_spec(6, 2, U=fr.INFINITY)
    _, r = fr.spiral_state(spec)
    assert r.passed
    assert r.tolerance == {"spin_expectation": 1e-8, "energy_residual": 1e-9,
                           "norm_drift": 1e-12, "envelope_matches_sign_gauge": 1e-12,
                           "gauge_conjugation_residual": 1e-10}
    monkeypatch.setattr(analysis, "conjugation_residual", lambda *a: 1.0)
    _, r = fr.spiral_state(spec)
    assert not r.passed
    assert r.measured["gauge_conjugation_residual"] == 1.0
    assert r.tolerance["gauge_conjugation_residual"] < 1.0


def test_spiral_state_rejects_other_n():
    with pytest.raises(HypothesisViolated, match="N=4 is not of the form 4n\\+2"):
        fr.spiral_state(fr.make_spec(5, 4, U=fr.INFINITY))
    with pytest.raises(HypothesisViolated):
        fr.spiral_state(fr.make_spec(5, 2, U=2.0))


def test_spiral_gauge_alternates_sign_on_cyclic_spin_shifts():
    from fluxring.basis import mode
    from dataclasses import replace

    spec = fr.make_spec(7, 6, U=fr.INFINITY)
    ferro = replace(spec, hop_phase=(PI,) * 6 + (0.0,))
    basis = fr.enumerate_sector(7, 6, 0, hardcore=True)
    h_ferro = fr.build_hamiltonian(ferro, basis)
    h_zero = fr.build_hamiltonian(fr.with_flux(spec, PI), basis)  # odd ring: pi role is 0
    g = fr.solve_sign_gauge(h_ferro, h_zero)

    positions = (0, 1, 2, 3, 4, 5)  # fixed sites, full-period word
    word = "uuuddd"
    def state_of(w):
        occ = 0
        for site, ch in zip(positions, w):
            occ |= 1 << mode(site, 0 if ch == "u" else 1)
        (i,) = basis.locate(np.array([occ], dtype=np.uint64))
        assert i >= 0
        return i

    for k in range(5):
        a = g[state_of(word[k:] + word[:k])]
        b = g[state_of(word[k + 1:] + word[:k + 1])]
        assert abs(b / a + 1.0) < 1e-10


def test_verify_block_lemma_small_and_l7(monkeypatch):
    r = fr.verify_block_lemma(fr.make_spec(4, 2, U=fr.INFINITY), grid_size=30)
    assert r.passed
    assert [b["period"] for b in r.measured["blocks"]] == [2]

    r = fr.verify_block_lemma(fr.make_spec(6, 4, U=fr.INFINITY), grid_size=30)
    assert r.passed
    assert sorted(b["period"] for b in r.measured["blocks"]) == [2, 4]
    assert r.measured["pi_block_minima_spread"] < 1e-10
    assert r.measured["diamagnetic_violation"] < 1e-10

    r = fr.verify_block_lemma(fr.make_spec(7, 6, U=fr.INFINITY), grid_size=18)
    assert r.passed
    assert sorted(b["period"] for b in r.measured["blocks"]) == [2, 6, 6, 6]

    # 45 grid points hold no pi: each block solves its energy at pi apart
    pi_solves = []
    energies = fr.analysis._ground_energies

    def recording_energies(family, angles, *args, **kwargs):
        if list(angles) == [PI]:
            pi_solves.append(family.dim)
        return energies(family, angles, *args, **kwargs)

    monkeypatch.setattr(fr.analysis, "_ground_energies", recording_energies)
    r = fr.verify_block_lemma(fr.make_spec(6, 4, U=fr.INFINITY), grid_size=45)
    assert r.passed
    assert r.measured["pi_block_minima_spread"] < 1e-10
    assert r.measured["diamagnetic_violation"] < 1e-10
    assert pi_solves == [b["dimension"] for b in r.measured["blocks"]] == [60, 30]


def test_verify_block_lemma_shift_off_the_grid(monkeypatch):
    # 64 grid steps: the period-2 shift is 32 steps, read from the curve;
    # the period-6 shift is not a whole number of steps and is solved
    phis = []
    energies = fr.analysis._ground_energies

    def recording_energies(family, angles, *args, **kwargs):
        phis.extend(angles)
        return energies(family, angles, *args, **kwargs)

    monkeypatch.setattr(fr.analysis, "_ground_energies", recording_energies)
    grid = 64
    spec = fr.make_spec(7, 6, (1.3, 0.8, 1.1, 0.6, 1.7, 0.9, 1.2), None, None, fr.INFINITY)
    r = fr.verify_block_lemma(spec, grid_size=grid)
    assert r.passed
    assert sorted(b["period"] for b in r.measured["blocks"]) == [2, 6, 6, 6]
    assert r.measured["period_residual"] < 1e-12
    off_grid = [p for p in phis if abs(p * grid / (2 * PI) - round(p * grid / (2 * PI))) > 1e-6]
    assert len(off_grid) == 3 * grid  # one solve per grid point for each period-6 block
    assert len(phis) == 4 * grid + 3 * grid


def test_verify_block_lemma_obeys_the_dense_limit(monkeypatch):
    # hard-core L=8 N=6 has blocks of 168 and 56: with the dense limit below
    # both, every block curve is a Lanczos scan and nothing is densified
    monkeypatch.setattr(fr.spectra, "DENSE_LIMIT", 50)
    dense_calls = []
    monkeypatch.setattr(fr.operators.FluxFamily, "dense",
                        lambda family, phi: dense_calls.append(phi))
    spec = fr.make_spec(8, 6, (1.3, 0.8, 1.1, 0.6, 1.7, 0.9, 1.2, 1.5), None, None, fr.INFINITY)
    r = fr.verify_block_lemma(spec, grid_size=90)
    assert sorted(b["dimension"] for b in r.measured["blocks"]) == [56, 168, 168, 168]
    assert r.passed, r.measured
    assert dense_calls == []


def test_verify_block_lemma_blocks_of_1260():
    # hard-core L=10 N=6: blocks of 1260, where a dense solve per block and
    # angle took about 0.5 s each
    rng = np.random.default_rng(10)
    spec = fr.make_spec(10, 6, rng.uniform(0.5, 2.0, 10), None, None, fr.INFINITY)
    r = fr.verify_block_lemma(spec, grid_size=90)
    assert r.passed
    assert max(b["dimension"] for b in r.measured["blocks"]) == 1260
    for key in ("period_residual", "full_period_min_gap", "pi_block_minima_spread",
                "diamagnetic_violation"):
        assert r.measured[key] < 1e-12, (key, r.measured[key])


def test_spiral_state_sign_search_limit_is_typed():
    # hard-core L=11 N=10 has 26 blocks: 2^26 sign patterns are a limit of
    # the search, not a false hypothesis
    with pytest.raises(MethodLimit, match="26 blocks"):
        fr.spiral_state(fr.make_spec(11, 10, U=fr.INFINITY))
    assert not issubclass(MethodLimit, HypothesisViolated)


@pytest.mark.parametrize("t,beta", [(20.0, 1e4), (1.0, 1e6)], ids=["t20-beta1e4", "t1-beta1e6"])
def test_thermal_scan_window_grows_with_beta(t, beta):
    # uniform L=3 N=3 rings are exact critical points; at beta*max|E| near
    # 1e6 the rounding of log P alone reads 1.2e-8 and 7.0e-8 there
    r = fr.thermal_scan(fr.make_spec(3, 3, hop_mag=t), betas=(beta,), grid_size=12)
    assert r.passed, (r.measured, r.tolerance)
    window = r.tolerance["critical_point_log_derivative"]
    assert 1e-8 < window < 1e-5
    assert r.measured["critical_point_log_derivative"][beta] < window


def test_thermal_scan_odd_critical_points():
    r = fr.thermal_scan(fr.make_spec(3, 3), betas=(0.5, 1.0, 2.0), grid_size=36)
    assert r.passed
    assert all(v < 1e-8 for v in r.measured["critical_point_log_derivative"].values())
    assert r.tolerance == {"critical_point_log_derivative": 1e-8}


def test_thermal_scan_large_beta_records_without_failing():
    r = fr.thermal_scan(fr.make_spec(3, 3), betas=(8.0,), grid_size=36)
    assert r.passed  # argmax may wander at large beta; recorded, not judged
    assert 8.0 in r.measured["argmax"]


def test_thermal_scan_odd_judged_at_every_beta():
    # P overflows at beta = 300; the log-P derivative is judged there too
    r = fr.thermal_scan(fr.make_spec(3, 3), betas=(2.0, 300.0), grid_size=36)
    assert r.passed
    assert list(r.measured["critical_point_log_derivative"]) == [2.0, 300.0]
    assert "critical_point_derivative" not in r.measured
    assert r.measured["critical_point_log_derivative"][300.0] < 1e-8


ODD_UNCLAIMED = (fr.make_spec(5, 3), fr.make_spec(5, 3, U=fr.INFINITY), fr.make_spec(5, 5, U=2.0))


def test_thermal_scan_refuses_odd_n_away_from_free_half_filling():
    # nothing is claimed there, so a report would pass without judging
    for spec in ODD_UNCLAIMED:
        with pytest.raises(HypothesisViolated, match="free half filling"):
            fr.thermal_scan(spec, grid_size=12)


def test_thermal_scan_refuses_an_empty_beta_list():
    # with no beta nothing is judged, in either branch, so no report may pass
    for spec in (fr.make_spec(4, 2, [1, 1.5, 0.7, 1.2], U=1.0), fr.make_spec(3, 3)):
        for betas in ((), [], np.array([])):
            with pytest.raises(ValueError, match="at least one beta"):
                fr.thermal_scan(spec, betas=betas, grid_size=12)


def test_thermal_scan_even_argmax():
    r = fr.thermal_scan(fr.make_spec(4, 2, U=1.0), betas=(0.5, 1.0, 2.0), grid_size=36)
    assert r.passed
    assert all(angle_dist(a, 0.0) < 1e-9 for a in r.measured["argmax"].values())


def test_thermal_sweep_matches_single_matrix_entry_and_cli(monkeypatch, tmp_path):
    from fluxring import cli

    # thermal_scan and `fluxring thermo` read log P from one scan, and both
    # equal a one-matrix log_partition_sweep, bit for bit, at the angles in
    # [0, pi] it diagonalizes; each angle past pi takes its mirror's column,
    # bit for bit, within rounding of its own sweep
    spec = fr.make_spec(4, 2, (1.2, 0.7, 1.5, 0.9), None, (0.3, -0.2, 0.0, 0.1), 1.0)
    betas, grid = (0.5, 1.0, 2.0), 24
    sweeps = []
    sweep, scan = fr.spectra.log_partition_sweep, fr.spectra.log_partition_scan
    record = lambda *a: sweeps.append(scan(*a)) or sweeps[-1]
    monkeypatch.setattr(fr.analysis, "log_partition_scan", record)
    monkeypatch.setattr(cli, "log_partition_scan", record)
    fr.thermal_scan(spec, betas=betas, grid_size=grid)
    model = tmp_path / "m.json"
    fr.save_model(spec, model)
    argv = ["thermo", "--model", str(model), "--grid", str(grid), "--out", str(tmp_path / "t.csv")]
    for b in betas:
        argv += ["--beta", str(b)]
    assert cli.run(argv) == 0
    library, command = sweeps
    assert library.shape == (3, grid) and np.array_equal(library, command)
    family = fr.flux_family(spec, sector_basis_for(spec, 0))
    direct = np.array([[float(sweep([family.hamiltonian(phi)], [b])[0, 0])
                        for phi in fr.analysis.flux_grid(grid)] for b in betas])
    solved = np.arange(grid // 2 + 1)
    mirrored = np.arange(grid // 2 + 1, grid)
    assert np.array_equal(library[:, solved], direct[:, solved])
    assert np.array_equal(library[:, mirrored], library[:, grid - mirrored])
    assert np.abs(library - direct).max() <= 1e-12 * np.abs(direct).max()


def test_thermal_scan_one_spectrum_per_flux_point(monkeypatch):
    calls = []
    full_spectrum = fr.spectra.full_spectrum
    monkeypatch.setattr(fr.spectra, "full_spectrum",
                        lambda h: calls.append(h.dim) or full_spectrum(h))
    r = fr.thermal_scan(fr.make_spec(3, 3), betas=(0.5, 1.0, 2.0), grid_size=36)
    assert r.passed
    # the 19 grid angles in [0, pi], each the mirror of one past pi but 0
    # and pi, then c +- h at the two critical points
    assert len(calls) == 36 // 2 + 1 + 4


def test_degenerate_polarized_ground_fails_typed(monkeypatch):
    # the spiral lowers the Perron-Frobenius vector of the polarized sector;
    # a degenerate level there leaves no vector to lower, with or without -O
    solve = analysis.ground

    def doubled(*a, **k):  # a 2-fold level: its one vector twice
        info = solve(*a, **k)
        return replace(info, vectors=np.repeat(info.vectors, 2, axis=1))

    monkeypatch.setattr(analysis, "ground", doubled)
    spec = fr.make_spec(6, 2, U=fr.INFINITY)
    with pytest.raises(DegenerateGround, match="2-fold"):
        fr.ferromagnetic_state(spec, sector_basis_for(spec, 0))
    with pytest.raises(DegenerateGround):
        fr.spiral_state(spec)
    assert issubclass(DegenerateGround, fr.FluxRingError)


def test_ferromagnetic_state_properties():
    spec = fr.make_spec(6, 4, U=fr.INFINITY)
    basis = sector_basis_for(spec, 0)
    ferro = fr.ferromagnetic_state(spec, basis)
    s2 = fr.build_total_spin(basis)
    import numpy as np

    s_max = spec.N / 2
    assert np.vdot(ferro, s2.matvec(ferro)).real == pytest.approx(
        s_max * (s_max + 1), abs=1e-10)
    assert ferro.real.min() > 0  # positive in the sign-fixed gauge


def lowered_ferromagnet(spec):
    """The ferromagnet as the polarized ground vector lowered sector by
    sector with apply_lowering, normalized and phase-fixed."""
    from fluxring.operators import apply_lowering

    L, N = spec.L, spec.N
    src = fr.enumerate_sector(L, N, N, hardcore=True)
    vec = fr.ground(fr.build_hamiltonian(analysis._sign_fixed_spec(spec), src)).vectors[:, 0]
    for two_sz in range(N - 2, -1, -2):
        dst = fr.enumerate_sector(L, N, two_sz, hardcore=True)
        vec, src = apply_lowering(vec, src, dst), dst
    vec = vec / np.linalg.norm(vec)
    return vec * np.exp(-1j * np.angle(vec[np.argmax(np.abs(vec))]))


@pytest.mark.parametrize("L", range(4, 10))
def test_ferromagnetic_state_equals_the_lowering_chain(L):
    rng = np.random.default_rng(L)
    for N in range(1, L + 1):
        spec = fr.make_spec(L, N, rng.uniform(0.5, 2, L), None, rng.normal(0, 1, L),
                            fr.INFINITY)
        ferro = fr.ferromagnetic_state(spec, sector_basis_for(spec))
        assert ferro.shape == (sector_basis_for(spec).dim,)
        assert np.abs(ferro - lowered_ferromagnet(spec)).max() < 1e-14, N


def test_ferromagnetic_state_refuses_a_foreign_basis():
    # a free basis, or one of another L or N, holds states with no charge
    # configuration in the polarized sector, where locate's -1 would read
    # the last entry
    spec = fr.make_spec(6, 2, U=fr.INFINITY)
    for basis in (fr.enumerate_sector(6, 2, 0), fr.enumerate_sector(7, 2, 0, hardcore=True),
                  fr.enumerate_sector(6, 4, 0, hardcore=True)):
        with pytest.raises(BasisMismatch):
            fr.ferromagnetic_state(spec, basis)


def test_spiral_walks_each_hardcore_sector_once(monkeypatch):
    # the Sz = 0 sector feeds the gauge, the search and the ferromagnet's
    # codes; the polarized sector its Perron-Frobenius vector
    walks, built_on = [], []
    enumerate_sector, build_hamiltonian = analysis.enumerate_sector, analysis.build_hamiltonian

    def walk(L, N, two_sz, hardcore=False):
        walks.append((L, N, two_sz, hardcore))
        return enumerate_sector(L, N, two_sz, hardcore)

    def build(spec, basis):
        built_on.append(basis.hardcore)
        return build_hamiltonian(spec, basis)

    monkeypatch.setattr(analysis, "enumerate_sector", walk)
    monkeypatch.setattr(analysis, "build_hamiltonian", build)
    _, r = fr.spiral_state(fr.make_spec(7, 6, U=fr.INFINITY))
    assert r.passed
    assert sorted(walks) == [(7, 6, 0, True), (7, 6, 6, True)]
    assert built_on and all(built_on)


def free_sector_spiral(spec):
    """The spiral state with its within-block phases restricted from the
    gauge of the free (U = 0) Sz = 0 sector at the zero-role flux, whose
    connected hopping graph pins them up to one global phase, then the
    same exact search over per-block signs."""
    L, N = spec.L, spec.N
    phi_zero, _ = _flux_roles(L)
    basis0 = sector_basis_for(spec, 0)
    free_spec = fr.ModelSpec(L, N, spec.hop_mag, fr.with_flux(spec, phi_zero).hop_phase,
                             spec.V, (0.0,) * L)
    free_basis = fr.enumerate_sector(L, N, 0, hardcore=False)
    h_free = fr.build_hamiltonian(free_spec, free_basis)
    gauge = fr.solve_sign_gauge(fr.negative_envelope(h_free), h_free)
    base = gauge[free_basis.locate(basis0.codes)] * fr.ferromagnetic_state(spec, basis0)
    s2 = fr.build_total_spin(basis0)
    block_of = np.empty(basis0.dim, dtype=np.intp)
    for k, b in enumerate(fr.decompose_blocks(basis0)):
        block_of[list(b.member_indices)] = k
    candidates = [np.array(signs)[block_of] * base
                  for signs in itertools.product((1.0, -1.0), repeat=block_of.max() + 1)]
    return min(candidates, key=lambda c: np.vdot(c, s2.matvec(c)).real)


def _random_ring(L, N, seed):
    rng = np.random.default_rng(seed)
    return fr.make_spec(L, N, rng.uniform(0.5, 2, L), rng.uniform(0, 2 * PI, L),
                        rng.normal(0, 1, L), fr.INFINITY)


@pytest.mark.parametrize("spec", [fr.make_spec(5, 2, U=fr.INFINITY),
                                  fr.make_spec(7, 6, U=fr.INFINITY),
                                  fr.make_spec(8, 6, U=fr.INFINITY),
                                  _random_ring(8, 6, 4)],
                         ids=["L5N2", "L7N6", "L8N6", "L8N6-random"])
def test_spiral_state_equals_the_free_sector_construction(spec):
    # the hard-core gauge fixes the same phases within each block as the
    # free sector's, up to the block constants that the search chooses
    state, r = fr.spiral_state(spec)
    assert r.passed, r.measured
    ref = free_sector_spiral(spec)
    assert min(np.abs(state - ref).max(), np.abs(state + ref).max()) < 1e-12


def finite_coupling_overlap(spec, couplings=(10.0, 100.0, 1000.0, 10000.0)):
    """Limit-tracing diagnostic for the spiral construction (no verdict).

    For each finite coupling u, diagonalizes the free-sector problem at the
    zero-role flux and its negative envelope, projects both ground states
    onto the no-double-occupancy subspace, and reports overlaps with the
    exact hard-core objects: the weight of the projected singlet inside
    the hard-core singlet subspace, its overlap with the spiral state, and
    the overlap of the projected envelope ground state with the
    ferromagnet. On sectors with a single hard-core block the latter tends
    to 1; with several blocks it converges to a different positive
    combination, which is why the spiral gauge needs its per-block signs
    solved rather than assumed.
    """
    if not spec.hardcore or spec.N % 4 != 2:
        raise HypothesisViolated("diagnostic applies to hard-core N = 4n+2 models")
    L, N = spec.L, spec.N
    phi_zero, _ = _flux_roles(L)
    basis0 = sector_basis_for(spec, 0)
    s2 = fr.build_total_spin(basis0)

    h_zero = fr.build_hamiltonian(fr.with_flux(spec, phi_zero), basis0)
    g0 = fr.ground(h_zero, max_degeneracy=16)
    g0.spins(s2)                     # raises MultipletCut on a cut level
    manifold = g0.vectors
    block = manifold.conj().T @ s2.matvec(manifold)
    s2_vals, s2_vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
    singlets = manifold @ s2_vecs[:, np.abs(s2_vals) < 1e-8]

    spiral, _ = fr.spiral_state(spec)
    ferro = fr.ferromagnetic_state(spec, basis0)

    free_basis = fr.enumerate_sector(L, N, 0, hardcore=False)
    idx = free_basis.locate(basis0.codes)
    out = {}
    for u in couplings:
        free_spec = fr.ModelSpec(L, N, spec.hop_mag, fr.with_flux(spec, phi_zero).hop_phase,
                                 spec.V, (float(u),) * L)
        h_free = fr.build_hamiltonian(free_spec, free_basis)
        psi_g = fr.ground(h_free).vectors[:, 0][idx]
        psi_g = psi_g / np.linalg.norm(psi_g)
        env_g = fr.ground(fr.negative_envelope(h_free)).vectors[:, 0][idx]
        env_g = env_g / np.linalg.norm(env_g)
        out[float(u)] = {
            "singlet_subspace_weight": float(np.linalg.norm(singlets.conj().T @ psi_g) ** 2),
            "spiral_overlap": float(abs(np.vdot(spiral, psi_g))),
            "ferro_overlap": float(abs(np.vdot(ferro, env_g))),
        }
    return out


def test_finite_coupling_overlap_converges():
    # single-block sector: the envelope ground state tends to the ferromagnet
    d = finite_coupling_overlap(fr.make_spec(5, 2, U=fr.INFINITY), couplings=(10.0, 1000.0))
    assert d[1000.0]["singlet_subspace_weight"] > 1 - 1e-5
    assert d[1000.0]["ferro_overlap"] > 1 - 1e-5
    assert d[1000.0]["spiral_overlap"] > d[10.0]["spiral_overlap"] - 1e-9

    # several blocks: the limit is a different positive combination, which
    # is exactly why the spiral gauge solves its per-block signs
    d = finite_coupling_overlap(fr.make_spec(7, 6, U=fr.INFINITY), couplings=(1000.0,))
    assert d[1000.0]["singlet_subspace_weight"] > 1 - 1e-5
    assert d[1000.0]["ferro_overlap"] < 0.9


def test_report_serializes(tmp_path):
    import json

    r = fr.verify_doubling(fr.make_spec(3, 3), grid_size=16)
    text = json.dumps(r.to_dict())
    assert json.loads(text)["passed"] is True
