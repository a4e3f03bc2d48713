import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import fluxring as fr
from fluxring import spectra
from fluxring.errors import MethodLimit, MultipletCut, NoConvergence
from fluxring.operators import FluxFamily, SparseHermitian
from fluxring.spectra import (
    DENSE_LIMIT,
    ENERGY_CROSSOVER,
    LANCZOS_CROSSOVER,
    log_partition_sweep,
)

from oracles import regauge, uniform_slater_energy

PI = math.pi


def _diag_op(values):
    return SparseHermitian(sparse.csr_matrix(np.diag(np.asarray(values, dtype=complex))))


def test_ground_examples():
    basis = fr.enumerate_sector(4, 2, 0)
    s2 = fr.build_total_spin(basis)
    g = fr.ground(fr.build_hamiltonian(fr.make_spec(4, 2), basis))
    assert g.energy == pytest.approx(-4.0, abs=1e-12)
    assert g.degeneracy == 1
    assert g.spins(s2) == {0.0}

    g = fr.ground(fr.build_hamiltonian(fr.with_flux(fr.make_spec(4, 2), PI), basis))
    assert g.energy == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    assert g.degeneracy == 4
    assert g.spins(s2) == {0.0, 1.0}

    one = fr.ground(_diag_op([2.5]))
    assert (one.energy, one.degeneracy) == (2.5, 1)


@pytest.mark.parametrize("seed", [1, 2])
def test_real_dense_solve_at_pi_agrees_with_the_complex_solve(seed):
    # at flux pi every phase factor is exactly -1, so H(pi) is real and the
    # dense solve runs in real arithmetic; the complex solve of the same
    # matrix gives the same levels and the same ground space
    rng = np.random.default_rng(seed)
    spec = fr.make_spec(7, 4, rng.uniform(0.5, 2, 7), rng.uniform(0, 2 * PI, 7),
                        rng.normal(0, 1, 7), fr.INFINITY)
    basis = fr.enumerate_sector(7, 4, 0, True)
    h = fr.flux_family(spec, basis).hamiltonian(PI)
    assert not h.mat.data.imag.any()
    direct = fr.build_hamiltonian(fr.with_flux(spec, PI), basis).mat
    assert not direct.data.imag.any() and (direct != h.mat).nnz == 0
    info = fr.ground(h, method="dense")
    assert info.vectors.dtype == np.float64                  # the real path
    complex_vals, complex_vecs = np.linalg.eigh(h.to_dense())
    scale = np.abs(complex_vals).max()
    assert np.abs(spectra.full_spectrum(h) - complex_vals).max() <= 1e-14 * scale
    assert abs(info.energy - complex_vals[0]) <= 1e-14
    assert info.degeneracy == np.count_nonzero(complex_vals <= info.energy + 1e-9)
    assert info.gap > 1e-3
    ground_space = complex_vecs[:, :info.degeneracy]
    projector = ground_space @ ground_space.conj().T
    assert np.abs(info.vectors @ info.vectors.T - projector).max() <= 1e-12


def test_ground_residuals():
    spec = fr.make_spec(5, 3, (1.3, 0.7, 1.1, 0.9, 1.4), None, None, 2.0)
    basis = fr.enumerate_sector(5, 3, 1)
    h = fr.build_hamiltonian(spec, basis)
    g = fr.ground(h)
    for k in range(g.vectors.shape[1]):
        v = g.vectors[:, k]
        assert np.linalg.norm(h.matvec(v) - g.energy * v) < 1e-9 * max(1, abs(g.energy))


def test_lowest_sum():
    spec = fr.make_spec(3, 2)
    assert fr.lowest_sum(spec, 0, 1.23) == 0.0
    assert fr.lowest_sum(spec, 1, 0.0) == pytest.approx(-1.0, abs=1e-12)
    assert fr.lowest_sum(spec, 2, 0.0) == pytest.approx(-2.0, abs=1e-12)
    assert fr.lowest_sum(fr.make_spec(4, 2), 2, PI) == pytest.approx(
        -2 * math.sqrt(2), abs=1e-12)
    with pytest.raises(ValueError):
        fr.lowest_sum(spec, 4, 0.0)


def test_full_spectrum_diagonal_and_trace():
    vals = [3.0, -1.0, 2.0, 0.5]
    assert np.allclose(fr.full_spectrum(_diag_op(vals)), sorted(vals))

    spec = fr.make_spec(3, 2, V=(0.2, -0.4, 1.0), U=2.5)
    basis = fr.enumerate_sector(3, 2, 0)
    h = fr.build_hamiltonian(spec, basis)
    spectrum = fr.full_spectrum(h)
    assert len(spectrum) == 9
    assert spectrum.sum() == pytest.approx(h.mat.diagonal().real.sum(), abs=1e-9 * 9)
    # trace identity: each (x_up, x_dn) state carries V(x_up)+V(x_dn) [+U if equal]
    trace = sum(spec.V[a] + spec.V[b] + (spec.U[a] if a == b else 0.0)
                for a in range(3) for b in range(3))
    assert spectrum.sum() == pytest.approx(trace, abs=1e-9)


def test_full_spectrum_gauge_invariance():
    spec = fr.make_spec(4, 2, U=fr.INFINITY)
    basis = fr.enumerate_sector(4, 2, 0, hardcore=True)
    a = fr.full_spectrum(fr.build_hamiltonian(fr.with_flux(spec, spec.flux), basis))
    b = fr.full_spectrum(fr.build_hamiltonian(
        regauge(spec, (1.0, -1.0, 2.0, -2.0)), basis))
    assert np.abs(a - b).max() < 1e-10


def log_z(h, beta: float) -> float:
    return float(log_partition_sweep([h], [beta])[0, 0])


def test_log_partition_sweep_past_float_range():
    # P = Tr exp(-beta H) leaves the float range near log P = 709; the
    # shifted sum keeps log P exact there
    basis = fr.enumerate_sector(4, 2, 0)
    h = fr.build_hamiltonian(fr.make_spec(4, 2), basis)
    e0 = fr.ground(h).energy
    assert log_z(h, 800.0) > math.log(sys.float_info.max)
    assert log_z(h, 800.0) == pytest.approx(-800.0 * e0, rel=1e-12)
    assert math.isfinite(math.exp(log_z(h, 100.0)))


def test_full_spectrum_size_guard():
    big = SparseHermitian(sparse.eye(2048, dtype=complex, format="csr"))
    with pytest.raises(MethodLimit, match="dim 2048 exceeds dense limit"):
        fr.full_spectrum(big)


def test_partition_function():
    spec = fr.make_spec(4, 2, U=1.0)
    basis = fr.enumerate_sector(4, 2, 0)
    h = fr.build_hamiltonian(spec, basis)
    assert math.exp(log_z(h, 0.0)) == pytest.approx(basis.dim, abs=1e-12)

    g = fr.ground(h)                     # the level, its degeneracy counted
    lp = log_z(h, 50.0)
    assert lp == pytest.approx(-50.0 * g.energy + math.log(g.degeneracy), abs=1e-8)

    h_pi = fr.build_hamiltonian(fr.with_flux(spec, PI), basis)
    assert math.exp(log_z(h, 1.0)) > math.exp(log_z(h_pi, 1.0))

    with pytest.raises(ValueError):
        log_z(h, -1.0)


def test_non_finite_beta_is_refused():
    # a NaN or infinite beta used to give NaN rows
    spec = fr.make_spec(4, 2, U=1.0)
    h = fr.build_hamiltonian(spec, fr.enumerate_sector(4, 2, 0))
    for beta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="beta must be finite and non-negative"):
            log_partition_sweep([h], [1.0, beta])
        with pytest.raises(ValueError, match="beta must be finite and non-negative"):
            fr.thermal_scan(spec, betas=(beta,), grid_size=12)


@pytest.mark.parametrize("seed", range(5))
def test_dense_vs_lanczos_agreement(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(4, 7))
    N = int(rng.integers(2, L + 1))
    spec = fr.make_spec(L, N, rng.uniform(0.5, 2, L), rng.uniform(0, 2 * PI, L),
                        rng.normal(0, 1, L), rng.uniform(-2, 3, L))
    basis = fr.enumerate_sector(L, N, N % 2)
    h = fr.build_hamiltonian(spec, basis)
    dense = fr.ground(h, method="dense")
    lanc = fr.ground(h, method="lanczos")
    assert lanc.method == "lanczos" and not lanc.saturated
    assert abs(dense.energy - lanc.energy) < 1e-9
    assert dense.degeneracy == lanc.degeneracy


def _same_ground(a, b, s2):
    assert abs(a.energy - b.energy) < 1e-10
    assert a.degeneracy == b.degeneracy
    assert a.spins(s2) == b.spins(s2)
    # multiplet by multiplet: S^2 on the two levels has the same spectrum
    on_a, on_b = (np.linalg.eigvalsh(g.vectors.conj().T @ s2.matvec(g.vectors))
                  for g in (a, b))
    assert np.abs(on_a - on_b).max() < 1e-8


@pytest.mark.parametrize("L,N,two_sz", [(5, 4, 0), (7, 3, 1), (6, 5, 1), (6, 6, 0)])
def test_auto_matches_dense_across_crossover(monkeypatch, L, N, two_sz):
    rng = np.random.default_rng(L * 10 + N)
    spec = fr.make_spec(L, N, rng.uniform(0.5, 2, L), rng.uniform(0, 2 * PI, L),
                        rng.normal(0, 1, L), 2.0)
    basis = fr.enumerate_sector(L, N, two_sz)
    h = fr.build_hamiltonian(spec, basis)
    s2 = fr.build_total_spin(basis)
    auto = fr.ground(h)
    _same_ground(auto, fr.ground(h, method="dense"), s2)
    assert auto.method == ("dense" if h.dim <= LANCZOS_CROSSOVER else "lanczos")
    energy, solver = _energy_and_solver(monkeypatch, fr.flux_family(spec, basis), spec.flux)
    assert abs(energy - auto.energy) < 1e-10
    assert solver == ("dense" if h.dim <= ENERGY_CROSSOVER else "lanczos")


def test_auto_degenerate_and_saturated_deflation():
    # uniform free L=6, N=4 at flux 0: levels -2, -1, -1 per spin, so the
    # Sz=0 ground level is 4-fold (dim 225, above the crossover)
    basis = fr.enumerate_sector(6, 4, 0)
    h = fr.build_hamiltonian(fr.make_spec(6, 4), basis)
    s2 = fr.build_total_spin(basis)
    assert h.dim > LANCZOS_CROSSOVER
    dense = fr.ground(h, method="dense")
    assert dense.degeneracy == 4

    found = fr.ground(h)                           # deflation clears the level
    _same_ground(found, dense, s2)
    assert found.method == "lanczos"

    saturated = fr.ground(h, max_degeneracy=2)     # 3 vectors locked, gap unseen
    _same_ground(saturated, dense, s2)
    assert saturated.method == "dense"
    assert fr.ground(h, max_degeneracy=2, method="lanczos").degeneracy == 3


def test_energy_solvers_agree_on_a_degenerate_level(monkeypatch):
    # the same 4-fold level: its energy alone is the same to rounding
    # whichever solver answers
    family = fr.flux_family(fr.make_spec(6, 4), fr.enumerate_sector(6, 4, 0))
    solves = {m: _energy_and_solver(monkeypatch, family, 0.0, m)
              for m in ("dense", "lanczos", "auto")}
    for m, (energy, _) in solves.items():
        assert abs(energy - solves["dense"][0]) <= 1e-12, m
    assert [solver for _, solver in solves.values()] == ["dense", "lanczos", "lanczos"]


def _energy_and_solver(monkeypatch, family, phi, method="auto"):
    """_ground_energies of family at phi alone, and the solver that answered:
    "dense" where any dense solve ran, a fallback included."""
    dense = []
    lowest = spectra._lowest_eigenvalue
    monkeypatch.setattr(spectra, "_lowest_eigenvalue", lambda m: dense.append(m) or lowest(m))
    (energy,) = spectra._ground_energies(family, [phi], method)
    monkeypatch.setattr(spectra, "_lowest_eigenvalue", lowest)
    return energy, "dense" if dense else "lanczos"


def _recording_recurrence(monkeypatch):
    """Spy on _lanczos_energies: one entry per call, "replay" for a replay,
    else (steps, kept), kept the number of Lanczos vectors the run kept
    (None: it kept none)."""
    calls = []
    recurrence = spectra._lanczos_energies

    def recording(*args, replay=None, basis=None):
        result = recurrence(*args, replay=replay, basis=basis)
        calls.append("replay" if replay is not None else
                     (int(result[1].sum()), None if basis is None else len(basis)))
        return result

    monkeypatch.setattr(spectra, "_lanczos_energies", recording)
    return calls


def test_auto_falls_back_when_lanczos_fails_within_budget(monkeypatch):
    # the U=1000 free sector of finite_coupling_overlap at L=7, N=6: the
    # next level lies 0.009 above the ground level, a tiny gap against a
    # spectral width ~3U, and the ground vector does not converge within
    # the budget
    spec = fr.with_flux(fr.make_spec(7, 6, U=1000.0), PI)
    h = fr.build_hamiltonian(spec, fr.enumerate_sector(7, 6, 0))
    calls = _recording_recurrence(monkeypatch)
    auto = fr.ground(h)
    dense = fr.ground(h, method="dense")
    assert auto.method == "dense"
    assert (auto.energy, auto.degeneracy, auto.gap) == (dense.energy, dense.degeneracy,
                                                        dense.gap)
    # the Lanczos attempts together ran no more than 3*dim/5 steps, each
    # keeping its Lanczos vectors (1225 states) and replaying none
    assert calls and "replay" not in calls
    assert sum(steps for steps, _ in calls) <= 3 * h.dim // 5
    assert all(kept == steps for steps, kept in calls)


def test_ground_method_argument_checked():
    big = SparseHermitian(sparse.eye(DENSE_LIMIT + 1, dtype=complex, format="csr"))
    with pytest.raises(MethodLimit, match=f"dim {DENSE_LIMIT + 1} exceeds dense limit"):
        fr.ground(big, method="dense")
    with pytest.raises(ValueError):
        fr.ground(_diag_op([1.0, 2.0]), method="arpack")


def test_lanczos_deterministic():
    spec = fr.make_spec(5, 3, (1.2, 0.8, 1.5, 0.6, 1.0))
    basis = fr.enumerate_sector(5, 3, 1)
    h = fr.build_hamiltonian(spec, basis)
    a = fr.ground(h, method="lanczos")
    b = fr.ground(h, method="lanczos")
    assert a.energy == b.energy
    assert np.array_equal(a.vectors, b.vectors)


def test_lanczos_budget_exhaustion(monkeypatch):
    rng = np.random.default_rng(1)
    m = rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))
    h = SparseHermitian(sparse.csr_matrix(m + m.conj().T))
    calls = _recording_recurrence(monkeypatch)
    with pytest.raises(NoConvergence) as err:
        spectra._lanczos_ground(h, 0, budget=3)
    assert err.value.residual is not None
    assert calls == [(3, 3)]                   # a pass out of budget sums nothing


def test_replayed_vector_that_misses_its_residual_is_never_returned(monkeypatch):
    # a pass that returns the wrong Ritz coefficients (reversed) builds a
    # wrong vector, from its kept Lanczos vectors within DENSE_LIMIT and by
    # its replay above it: the confirmation catches it and raises
    # NoConvergence with the true residual, and auto falls back to dense
    recurrence = spectra._lanczos_energies
    replays = []

    def reversed_ritz(*args, replay=None, basis=None):
        if replay is not None:
            replays.append(len(replay))
            return recurrence(*args, replay=replay, basis=basis)
        energies, steps, resid, ritz = recurrence(*args, basis=basis)
        return energies, steps, resid, [None if y is None else y[::-1] for y in ritz]

    kept = fr.build_hamiltonian(fr.make_spec(6, 6, U=2.0), fr.enumerate_sector(6, 6, 0))
    replayed = fr.build_hamiltonian(fr.make_spec(8, 6, U=2.0), fr.enumerate_sector(8, 6, 0))
    assert kept.dim == 400 and replayed.dim == 3136 > DENSE_LIMIT
    exact = fr.ground(kept, max_degeneracy=0, method="dense")
    monkeypatch.setattr(spectra, "_lanczos_energies", reversed_ritz)
    with pytest.raises(NoConvergence) as err:
        fr.ground(kept, max_degeneracy=0, method="lanczos")
    assert err.value.residual > 1e-12 * max(1.0, abs(exact.energy))
    assert replays == []
    auto = fr.ground(kept, max_degeneracy=0)
    assert auto.method == "dense" and auto.energy == exact.energy
    with pytest.raises(NoConvergence) as err:
        fr.ground(replayed, max_degeneracy=0)
    assert len(replays) == 1 and err.value.residual > 1e-9


def test_slater_consistency_free_case():
    # U=0: the many-body ground energy is the filled-orbital sum per spin
    rng = np.random.default_rng(8)
    spec = fr.make_spec(5, 3, rng.uniform(0.5, 2, 5), None, rng.normal(0, 1, 5))
    basis = fr.enumerate_sector(5, 3, 1)
    family = fr.flux_family(spec, basis)
    for phi in (0.0, 0.8, PI, 4.4):
        e = spectra._ground_energies(family, [phi])[0]
        split = fr.lowest_sum(spec, 2, phi) + fr.lowest_sum(spec, 1, phi)
        assert abs(e - split) < 1e-10

    uniform = fr.make_spec(4, 2)
    family = fr.flux_family(uniform, fr.enumerate_sector(4, 2, 0))
    for phi in (0.0, 1.0, PI):
        e = spectra._ground_energies(family, [phi])[0]
        assert abs(e - uniform_slater_energy(4, phi, 1, 1)) < 1e-10


def test_reflection_symmetry_of_energy_curve():
    # real couplings and a reflection-symmetric |t| pattern: E(phi) = E(2pi - phi)
    spec = fr.make_spec(5, 3, (1.0, 1.3, 0.7, 0.7, 1.3), None, (0.1, 0.2, 0.3, 0.3, 0.2),
                        1.5)
    family = fr.flux_family(spec, fr.enumerate_sector(5, 3, 1))
    for phi in (0.3, 1.1, 2.9):
        # each angle alone: a grid holding both would solve the pair once
        a = spectra._ground_energies(family, [phi])[0]
        b = spectra._ground_energies(family, [2 * PI - phi])[0]
        assert abs(a - b) < 1e-10


def test_lanczos_saturated_deflation_with_s2_raises_typed_error():
    # the 4-fold ground level of uniform L=6, N=4 at flux 0: three locked
    # vectors span part of it, so projecting S^2 onto them is meaningless
    basis = fr.enumerate_sector(6, 4, 0)
    h = fr.build_hamiltonian(fr.make_spec(6, 4), basis)
    cut = fr.ground(h, method="lanczos", max_degeneracy=2)
    with pytest.raises(MultipletCut):
        cut.spins(fr.build_total_spin(basis))


def test_spins_are_read_off_a_solved_level():
    # the same 4-fold level: a Lanczos solve with room for three vectors
    # returns a saturated level, whose spins are refused, while the default
    # solve clears the level and reads the dense level's spins
    basis = fr.enumerate_sector(6, 4, 0)
    h = fr.build_hamiltonian(fr.make_spec(6, 4), basis)
    s2 = fr.build_total_spin(basis)
    cut = fr.ground(h, method="lanczos", max_degeneracy=2)
    assert (cut.degeneracy, cut.gap, cut.saturated) == (3, math.inf, True)
    with pytest.raises(MultipletCut, match="multiplet may be cut"):
        cut.spins(s2)
    dense = fr.ground(h, method="dense")
    assert not dense.saturated
    assert fr.ground(h).spins(s2) == dense.spins(s2) == {0.0, 1.0}


@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.booleans())
@example(1, 0, False)
@example(2, 0, False)
@example(3, 0, True)
@settings(max_examples=80, deadline=None)
def test_lowest_ritz_equals_eigh_tridiagonal_bit_for_bit(n, seed, split):
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * rng.uniform(0.1, 100.0)
    e = rng.normal(size=n - 1)
    if split and n > 2:
        e[rng.integers(n - 1)] = 0.0       # two decoupled blocks
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    theta, blocks = spectra._lowest_ritz_value(d, e)        # the value alone
    assert theta == float(vals[0])
    assert theta == float(eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                           select_range=(0, 0))[0])
    y = spectra._lowest_ritz_vector(d, e, blocks)           # and its vector
    assert y.dtype == vecs.dtype and y.tobytes() == vecs[:, 0].tobytes()


def _gershgorin(d, e):
    off = np.abs(np.concatenate([[0.0], e, [0.0]]))
    return float((np.abs(d) + off[:-1] + off[1:]).max())


@given(st.integers(2, 60), st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 10),
       st.floats(0.0, 1e3))
@example(3, 0, True, 1, 0.0)
@settings(max_examples=80, deadline=None)
def test_warm_started_ritz_value_agrees_with_the_full_bisection(n, seed, split, back, drop):
    # the bound is a genuine earlier Ritz value, of T's leading block, and
    # the drop any width: the windowed value is the lowest eigenvalue to a
    # few ulps of ||T||, and its vector an eigenvector
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * rng.uniform(0.1, 100.0)
    e = rng.normal(size=n - 1)
    if split and n > 2:
        e[rng.integers(n - 1)] = 0.0       # two decoupled blocks
    k = max(1, n - back)
    bound, _ = spectra._lowest_ritz_value(d[:k], e[:k - 1])
    full, _ = spectra._lowest_ritz_value(d, e)
    norm = _gershgorin(d, e)
    theta, blocks = spectra._lowest_ritz_value(d, e, bound, drop, norm)
    assert abs(theta - full) <= 4 * np.finfo(float).eps * norm
    y = spectra._lowest_ritz_vector(d, e, blocks)
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-12
    assert np.linalg.norm(t @ y - theta * y) <= 1e-12 * max(1.0, norm)


def test_warm_started_check_falls_back_when_the_value_drops_below_its_window(capfd):
    # a row appended late with a very negative diagonal and a small
    # coupling puts the lowest value far below the window that the earlier
    # checks set: the inertia test fails, and the check returns the full
    # bisection's value and vector, bit for bit, with nothing printed by
    # LAPACK on the way; so does a window no wider than the bisection's
    # tolerance, which would come back unrefined
    rng = np.random.default_rng(3)
    d, e = 0.1 * rng.normal(size=40), np.ones(39)      # a ring's Laplacian, disordered
    thetas = [spectra._lowest_ritz_value(d[:k], e[:k - 1])[0] for k in (30, 35)]
    bound, drop = thetas[1], thetas[0] - thetas[1]
    assert drop > 0.0
    norm = _gershgorin(d, e)
    warm, _ = spectra._lowest_ritz_value(d, e, bound, drop, norm)     # inside its window
    assert abs(warm - spectra._lowest_ritz_value(d, e)[0]) <= 4e-16 * norm
    d, e = np.append(d, -1e3), np.append(e, 1e-3)
    full, full_blocks = spectra._lowest_ritz_value(d, e)
    theta, blocks = spectra._lowest_ritz_value(d, e, bound, drop, _gershgorin(d, e))
    assert theta == full == pytest.approx(-1e3, abs=1e-6)
    assert _bits(spectra._lowest_ritz_vector(d, e, blocks)) == \
        _bits(spectra._lowest_ritz_vector(d, e, full_blocks))
    assert spectra._lowest_ritz_value(d, e, full, 0.0, 1e6)[0] == full
    assert capfd.readouterr() == ("", "")


def test_energy_checks_pay_for_a_ritz_vector_only_where_a_column_can_stop(monkeypatch):
    # a 168-state block of hard-core L=8 N=6 over 90 angles: every column is
    # checked on its own schedule, fewer times than every 5 steps would, and
    # computes its Ritz vector only at a check whose value test passed, at
    # most twice; the batch solves the 46 angles in [0, pi], whose checks
    # are the same in the batch and alone, and each angle past pi takes its
    # mirror's energy, bit for bit, within rounding of its own solve
    rng = np.random.default_rng(8)
    spec = fr.make_spec(8, 6, rng.uniform(0.5, 2.0, 8), None, None, fr.INFINITY)
    basis = fr.analysis.sector_basis_for(spec, 0)
    block = next(b for b in fr.decompose_blocks(basis) if b.dimension == 168)
    family = fr.flux_family(spec, basis).restrict(block.member_indices)
    angles = fr.analysis.flux_grid(90)
    assert family.dim > ENERGY_CROSSOVER
    events = []
    value, vector = spectra._lowest_ritz_value, spectra._lowest_ritz_vector

    def spy_value(d, e, *window):              # every check, warm-started or not
        theta, blocks = value(d, e, *window)
        events.append(("value", len(d), theta))
        return theta, blocks

    monkeypatch.setattr(spectra, "_lowest_ritz_value", spy_value)
    monkeypatch.setattr(spectra, "_lowest_ritz_vector",
                        lambda d, e, blocks: events.append(("vector", len(d), None))
                        or vector(d, e, blocks))
    batch = spectra._ground_energies(family, angles)
    in_batch = sorted(events)
    alone = []
    for k, (phi, energy) in enumerate(zip(angles, batch)):
        events.clear()
        own = spectra._ground_energies(family, [phi])[0]
        if 2 * k > len(angles):                # mirrored onto 2*pi - phi
            assert _bits(energy) == _bits(batch[len(angles) - k])
            assert abs(own - energy) <= 1e-12 * max(1.0, abs(own)), phi
        else:
            assert own == energy
        checks = [ev for ev in events if ev[0] == "value"]
        steps = checks[-1][1]                  # the column stops at its last check
        assert len(checks) < steps // 5, (phi, len(checks), steps)
        vectors = [i for i, ev in enumerate(events) if ev[0] == "vector"]
        for i in vectors:
            check = events[i - 1]                  # the check that asked for it
            n = checks.index(check)
            assert check[1] == events[i][1] and n > 0
            assert abs(check[2] - checks[n - 1][2]) <= 1e-14 * max(1.0, abs(check[2]))
        assert 1 <= len(vectors) <= 2, (phi, len(vectors))
        if 2 * k <= len(angles):
            alone += events
    assert in_batch == sorted(alone)


@st.composite
def small_models(draw, max_dim=400):
    L = draw(st.integers(3, 6))
    hardcore = draw(st.booleans())
    N = draw(st.integers(1, L if hardcore else 2 * L - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = fr.make_spec(L, N, rng.uniform(0.5, 2.0, L), rng.uniform(0, 2 * PI, L),
                        rng.normal(0.0, 1.0, L),
                        fr.INFINITY if hardcore else rng.uniform(-3.0, 3.0, L))
    basis = fr.enumerate_sector(L, N, N % 2, hardcore)
    assume(basis.dim <= max_dim)
    return spec, basis


@given(small_models())
# the 4-fold ground level of uniform L=6 N=4 at flux 0
@example((fr.make_spec(6, 4), fr.enumerate_sector(6, 4, 0)))
# a filled hard-core ring without potential: H = 0, one level, and
# deflation locks every state down to an empty complement
@example((fr.make_spec(6, 6, U=fr.INFINITY), fr.enumerate_sector(6, 6, 0, True)))
@settings(max_examples=25, deadline=None)
def test_dense_and_lanczos_ground_agree(model):
    spec, basis = model
    h = fr.build_hamiltonian(spec, basis)
    # room for every level: a filled hard-core ring is one degenerate level
    dense = fr.ground(h, method="dense", max_degeneracy=basis.dim)
    lanc = fr.ground(h, method="lanczos", max_degeneracy=basis.dim)
    scale = max(1.0, abs(dense.energy))
    assert abs(dense.energy - lanc.energy) <= 1e-10 * scale
    assert dense.degeneracy == lanc.degeneracy
    # the residual ground promises for vectors
    resid = h.matvec(lanc.vectors) - lanc.energy * lanc.vectors
    assert np.linalg.norm(resid, axis=0).max() <= 1e-12 * scale


def test_lanczos_vectors_of_small_sectors_meet_their_residual():
    # sectors smaller than the steps their recurrence takes run past the
    # exhausted Krylov space, where the replayed vector degrades; checked at
    # every step from there, each stops where its vector still holds
    rng = np.random.default_rng(11)
    solved = 0
    while solved < 200:
        L = int(rng.integers(3, 6))
        hardcore = bool(rng.integers(2))
        N = int(rng.integers(1, (L if hardcore else 2 * L - 1) + 1))
        spec = fr.make_spec(L, N, rng.uniform(0.5, 2, L), rng.uniform(0, 2 * PI, L),
                            rng.normal(0, 1, L), fr.INFINITY if hardcore else rng.uniform(-3, 3, L))
        basis = fr.enumerate_sector(L, N, N % 2, hardcore)
        if basis.dim > 40:
            continue
        h = fr.build_hamiltonian(spec, basis)
        info = fr.ground(h, max_degeneracy=0, method="lanczos")
        v = info.vectors[:, 0]
        assert np.linalg.norm(h.matvec(v) - info.energy * v) <= 1e-12 * max(1.0, abs(info.energy))
        solved += 1


@st.composite
def flux_sectors(draw):
    """A random free or hard-core sector of any size from 1 up (400 at most),
    its flux family and a flux; uniform hopping now and then, for
    degenerate spectra."""
    L = draw(st.integers(3, 6))
    hardcore = draw(st.booleans())
    N = draw(st.integers(0, L if hardcore else 2 * L))
    two_sz = draw(st.sampled_from([s for s in range(-N, N + 1, 2)
                                   if abs(s) <= 2 * L - N or hardcore]))
    basis = fr.enumerate_sector(L, N, two_sz, hardcore)
    assume(1 <= basis.dim <= 400)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hop = 1.0 if draw(st.booleans()) else rng.uniform(0.5, 2.0, L)
    spec = fr.make_spec(L, N, hop, None, rng.normal(0.0, 1.0, L),
                        fr.INFINITY if hardcore else rng.uniform(-3.0, 3.0, L))
    return fr.flux_family(spec, basis), draw(st.floats(-20.0, 20.0))


@given(flux_sectors())
@example((fr.flux_family(fr.make_spec(3, 0), fr.enumerate_sector(3, 0, 0)), 0.3))
@settings(max_examples=60, deadline=None)
def test_energy_recurrence_matches_eigvalsh(sector):
    family, phi = sector
    h = family.hamiltonian(fr.model.fold_angle(phi))
    (energy,) = spectra._ground_energies(family, [phi], method="lanczos")
    exact = float(np.linalg.eigvalsh(h.to_dense())[0])
    assert abs(energy - exact) <= 1e-12 * max(1.0, abs(exact))
    # the recurrence answered
    assert energy == spectra._lanczos_energies(lambda cols: h, h.dim, 1)[0][0]


def test_energy_recurrence_keeps_three_vectors():
    # the recurrence holds a handful of vectors however long it runs, where
    # a Krylov basis would grow by one vector per step
    from scipy.linalg import lapack  # noqa: F401  (its import is not the solve's)

    dim = 6000
    values = np.linspace(0.0, 1.0, dim)
    values[0] = -0.01
    h = SparseHermitian(sparse.diags(values.astype(complex)).tocsr())
    tracemalloc.start()
    try:
        (theta,), (steps,), _, _ = spectra._lanczos_energies(lambda cols: h, dim, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert theta == pytest.approx(-0.01, abs=1e-12)
    assert steps > 40
    assert peak / (dim * 16) < 10, (steps, peak / (dim * 16))


@pytest.mark.parametrize("low", [-10.0, -0.01])
def test_lanczos_krylov_basis_grows_with_the_iteration(low):
    # the Krylov basis a vector solve could grow, one vector per step, is
    # never stored: the solve replays the recurrence for its ground vector and
    # holds as few vectors as an energy-only solve
    from scipy.linalg import lapack  # noqa: F401  (its import is not the solve's)

    dim = 6000
    values = np.linspace(0.0, 1.0, dim)
    values[0] = low
    h = SparseHermitian(sparse.diags(values.astype(complex)).tocsr())
    tracemalloc.start()
    try:
        info = fr.ground(h, max_degeneracy=0, method="lanczos")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.energy == pytest.approx(low, abs=1e-12)
    assert np.linalg.norm(h.matvec(info.vectors[:, 0]) - info.energy * info.vectors[:, 0]) \
        <= 1e-12 * max(1.0, abs(low))
    assert peak / (dim * 16) < 10, (low, peak / (dim * 16))


@pytest.mark.parametrize("spec, degeneracy", [
    (fr.make_spec(6, 4, np.random.default_rng(2).uniform(0.5, 2, 6), None, None, 3.0), 1),
    (fr.make_spec(6, 4), 4),        # uniform and free at flux 0: deflated four times
])
def test_kept_lanczos_vectors_sum_to_the_replayed_vector(monkeypatch, spec, degeneracy):
    h = fr.build_hamiltonian(spec, fr.enumerate_sector(6, 4, 0))
    assert h.dim == 225
    passes, recurrence = [], spectra._lanczos_energies

    def recording(*args, basis):              # a replay (replay=y) raises here
        passes.append((args, recurrence(*args, basis=basis)))
        return passes[-1][1]

    monkeypatch.setattr(spectra, "_lanczos_energies", recording)
    info = fr.ground(h, method="lanczos")
    assert info.degeneracy == degeneracy and len(passes) == degeneracy + 1
    for k, (args, (_, _, _, (y,))) in enumerate(passes[:degeneracy]):
        vector = recurrence(*args, replay=y)
        vector /= np.linalg.norm(vector)
        assert _bits(vector) == _bits(info.vectors[:, k])


def test_kept_lanczos_vectors_are_bounded_by_the_steps():
    # within DENSE_LIMIT a vector solve holds one vector per recurrence
    # step, never more than _MAX_STEPS of them
    from scipy.linalg import lapack  # noqa: F401  (its import is not the solve's)

    dim = DENSE_LIMIT
    values = np.linspace(0.0, 1.0, dim)
    values[0] = -0.01
    h = SparseHermitian(sparse.diags(values.astype(complex)).tocsr())
    (_,), (steps,), _, _ = spectra._lanczos_energies(lambda cols: h, dim, 1, resid_tol=1e-12)
    tracemalloc.start()
    try:
        info = fr.ground(h, max_degeneracy=0, method="lanczos")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.energy == pytest.approx(-0.01, abs=1e-12)
    assert steps * dim * 16 < peak <= (steps + 10) * dim * 16
    assert peak <= (spectra._MAX_STEPS + 10) * dim * 16


def test_energy_only_solves_never_replay(monkeypatch):
    spec, basis = fr.make_spec(6, 6, U=2.0), fr.enumerate_sector(6, 6, 0)
    h = fr.build_hamiltonian(spec, basis)
    calls = _recording_recurrence(monkeypatch)
    energy, solver = _energy_and_solver(monkeypatch, fr.flux_family(spec, basis), 0.0)
    assert solver == "lanczos" and len(calls) == 1 and calls[0][1] is None
    # a level, counted or of one vector, keeps the Lanczos vectors of each
    # pass for its ground vectors (400 states) and replays none
    for kwargs in ({"max_degeneracy": 0}, {}):
        calls.clear()
        info = fr.ground(h, **kwargs)
        assert calls and "replay" not in calls and abs(info.energy - energy) < 1e-10
        assert all(kept == steps for steps, kept in calls)
    # and its spins are read off it without a further recurrence
    calls.clear()
    assert info.spins(fr.build_total_spin(basis)) == {0.0} and calls == []


def test_energy_recurrence_out_of_budget_falls_back_to_dense(monkeypatch):
    # levels (j/299)^2, crowded at the bottom: the recurrence takes about
    # 435 steps, more than the dim = 300 an auto energy solve at dimension
    # 300 allows (and than the 180 below), and fewer than the 600 of an
    # explicit Lanczos solve
    h = SparseHermitian(sparse.diags(np.linspace(0.0, 1.0, 300) ** 2 + 0j).tocsr())
    assert np.isnan(spectra._lanczos_energies(lambda cols: h, h.dim, 1, max_iter=180)[0][0])
    family = FluxFamily(h.mat, np.empty(0, dtype=int), np.empty(0, dtype=int))  # h at any flux
    assert _energy_and_solver(monkeypatch, family, 0.0) == (0.0, "dense")
    energy, solver = _energy_and_solver(monkeypatch, family, 0.0, "lanczos")
    assert solver == "lanczos" and abs(energy) < 1e-12


def test_import_leaves_scipy_linalg_unloaded():
    # the LAPACK and csgraph imports sit inside the functions that use them:
    # at module level they add about 0.1 s to every `import fluxring`
    code = ("import sys, fluxring; "
            "print([m for m in ('scipy.linalg', 'scipy.sparse.csgraph') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@st.composite
def flux_grids(draw):
    """A random flux family of dimension 1 to 400, a grid of 8 to 90 angles,
    some shifted by +-2*pi, a method and a seed for sub-batches."""
    family, _ = draw(flux_sectors())
    size = draw(st.integers(8, 90))
    turns = draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))
    angles = np.arange(size) * (2 * PI / size) + 2 * PI * np.array(turns)
    method = draw(st.sampled_from(["auto", "lanczos"]))
    return family, angles, method, draw(st.integers(0, 2**32 - 1))


def _bits(a):
    return np.asarray(a).tobytes()


@given(flux_grids())
@example((fr.flux_family(fr.make_spec(3, 0), fr.enumerate_sector(3, 0, 0)),
          np.arange(8) * (PI / 4), "lanczos", 0))
@settings(max_examples=40, deadline=None)
def test_batched_energies_do_not_depend_on_the_batch(case):
    # angle k of a grid of G, past pi when 2k > G, takes the energy of its
    # mirror G - k, bit for bit, where the batch holds both; every other
    # angle is solved, and its energy is the same, bit for bit, alone, in
    # any split of the batch
    family, angles, method, seed = case
    size = len(angles)
    mirrored = np.arange(size)[2 * np.arange(size) > size]
    solved = np.setdiff1d(np.arange(size), mirrored)
    energies = spectra._ground_energies(family, angles, method)
    assert _bits(energies[mirrored]) == _bits(energies[size - mirrored])
    rng = np.random.default_rng(seed)
    for k in np.union1d(mirrored, rng.choice(size, size=min(size, 8), replace=False)):
        exact = float(np.linalg.eigvalsh(family.dense(fr.model.fold_angle(angles[k])))[0])
        assert abs(energies[k] - exact) <= 1e-12 * max(1.0, abs(exact))
    alone = np.array([spectra._ground_energies(family, [phi], method)[0] for phi in angles])
    assert _bits(energies[solved]) == _bits(alone[solved])
    order = rng.permutation(size)
    parts = np.split(order, np.sort(rng.choice(np.arange(1, size), size=3, replace=False)))
    batched, expected = np.empty(size), alone.copy()
    for part in parts:
        batched[part] = spectra._ground_energies(family, angles[part], method)
        paired = mirrored[np.isin(mirrored, part) & np.isin(size - mirrored, part)]
        expected[paired] = energies[paired]
    assert _bits(batched) == _bits(expected)


def test_batches_hold_at_most_the_stack_budget(monkeypatch):
    # hard-core L=6 N=4 (dimension 90) on 9 angles, of which the 5 in
    # [0, pi] are solved: room for two angles' entries makes batches of
    # two, room for less than one angle batches of one; the 4 past pi take
    # their mirrors' energies, bit for bit, whatever the batches
    family = fr.flux_family(fr.make_spec(6, 4, (1.3, 0.8, 1.1, 0.6, 1.7, 0.9), None, None,
                                         fr.INFINITY), fr.enumerate_sector(6, 4, 0, True))
    assert family.dim > ENERGY_CROSSOVER
    angles = np.arange(9) * (2 * PI / 9)
    whole = spectra._ground_energies(family, angles)
    assert _bits(whole[5:]) == _bits(whole[4:0:-1])
    assert _bits(whole[:5]) == _bits([spectra._ground_energies(family, [phi])[0]
                                      for phi in angles[:5]])
    sizes = []
    recurrence = spectra._lanczos_energies
    monkeypatch.setattr(spectra, "_lanczos_energies",
                        lambda stack, dim, count, *a: sizes.append(count) or
                        recurrence(stack, dim, count, *a))
    for budget, expected in ((2 * family.nnz, [2, 2, 1]), (1, [1] * 5)):
        sizes.clear()
        monkeypatch.setattr(spectra, "_STACK_ENTRIES", budget)
        assert _bits(spectra._ground_energies(family, angles)) == _bits(whole)
        assert sizes == expected


def _solved_columns(monkeypatch):
    """The angles each _ground_energies call solves, as its mirror plan has it."""
    counts = []
    plan = spectra._mirror_plan

    def counting(*args):
        solved, take = plan(*args)
        counts.append(len(solved))
        return solved, take

    monkeypatch.setattr(spectra, "_mirror_plan", counting)
    return counts


@pytest.mark.parametrize("size", [8, 9, 64, 90, 240])
def test_uniform_grids_solve_half_their_angles_and_one(monkeypatch, size):
    # hard-core L=6 N=4 (dimension 90, on the recurrence): G angles, G//2 + 1
    # solved, each within rounding of eigvalsh at its own angle
    family = fr.flux_family(fr.make_spec(6, 4, (1.3, 0.8, 1.1, 0.6, 1.7, 0.9), None, None,
                                         fr.INFINITY), fr.enumerate_sector(6, 4, 0, True))
    counts = _solved_columns(monkeypatch)
    grid = fr.analysis.flux_grid(size)
    energies = spectra._ground_energies(family, grid)
    assert counts == [size // 2 + 1]
    for phi, energy in zip(grid, energies):
        exact = float(np.linalg.eigvalsh(family.dense(phi))[0])
        assert abs(energy - exact) <= 1e-12 * max(1.0, abs(exact))


def test_mirror_closed_shifted_grid_is_halved(monkeypatch):
    # the period-2 block (56 states) of hard-core L=8 N=6 on flux_grid(90) +
    # 2*pi/12: 2G/p = 15 is an integer, so angle i pairs with 75 - i (mod
    # 90) and no angle is its own mirror: 45 solves
    spec = fr.make_spec(8, 6, np.random.default_rng(1).uniform(0.5, 2, 8), None, None,
                        fr.INFINITY)
    basis = fr.enumerate_sector(8, 6, 0, True)
    block = next(b for b in fr.decompose_blocks(basis) if b.dimension == 56)
    family = fr.flux_family(spec, basis).restrict(block.member_indices)
    counts = _solved_columns(monkeypatch)
    angles = fr.analysis.flux_grid(90) + 2 * PI / 12
    energies = spectra._ground_energies(family, angles)
    assert counts == [45]
    partner = (75 - np.arange(90)) % 90
    assert _bits(energies) == _bits(energies[partner])
    exact = [float(np.linalg.eigvalsh(family.dense(fr.model.fold_angle(phi)))[0])
             for phi in angles]
    assert np.abs(energies - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())


def test_angles_without_their_mirrors_are_all_solved(monkeypatch):
    # no angle's 2*pi - phi among the others, or only 1e-9 away: all solved,
    # each bit for bit as alone
    family = fr.flux_family(fr.make_spec(4, 2, (1.2, 0.7, 1.5, 0.9), None,
                                         (0.3, -0.2, 0.0, 0.1), 1.0), fr.enumerate_sector(4, 2, 0))
    counts = _solved_columns(monkeypatch)
    for angles in ([0.3, 1.0, 4.0, 5.5], [0.7, 2 * PI - 0.7 + 1e-9, PI + 0.2]):
        counts.clear()
        energies = spectra._ground_energies(family, angles)
        assert counts[0] == len(angles)
        assert _bits(energies) == _bits([spectra._ground_energies(family, [phi])[0]
                                         for phi in angles])


def test_complex_flux_zero_entries_solve_every_angle(monkeypatch):
    # a triangle whose flux-0 entries carry a phase of 0.9 on a bond the
    # flux does not thread: E(2*pi - phi) != E(phi), and every angle of the
    # grid is solved, bit for bit as alone
    family = _crowded_triangle(40)
    zero = family.zero.copy()
    for i, j, sign in ((2, 1, 1), (1, 2, -1)):
        k = zero.indptr[i] + np.flatnonzero(zero.indices[zero.indptr[i]:zero.indptr[i + 1]] == j)
        zero.data[k] *= np.exp(sign * 0.9j)
    family = FluxFamily(zero, family.up, family.down)
    assert np.abs(family.dense(0.0) - family.dense(0.0).conj().T).max() == 0.0
    counts = _solved_columns(monkeypatch)
    grid = fr.analysis.flux_grid(16)
    energies = spectra._ground_energies(family, grid)
    assert counts[0] == 16
    assert np.abs(energies[1:] - energies[:0:-1]).max() > 1e-3
    assert _bits(energies) == _bits([spectra._ground_energies(family, [phi])[0]
                                     for phi in grid])


def _crowded_triangle(dim):
    """States 0-2 form a triangle threaded by the flux, at diagonal 0.5; the
    rest are levels crowded at the bottom of [0, 1]. The ground level is
    isolated below the crowd except at pi, where it meets the crowd at 0."""
    diag = np.concatenate([[0.5] * 3, (np.arange(dim - 3) / (dim - 4)) ** 2])
    on = np.arange(dim)
    zero = sparse.csr_matrix((np.concatenate([np.full(6, -0.5), diag]).astype(complex),
                              (np.concatenate([[1, 0, 2, 1, 0, 2], on]),
                               np.concatenate([[0, 1, 1, 2, 2, 0], on]))), shape=(dim, dim))
    # rows 0 and 1 hold columns 0, 1, 2: the flux threads entries (1, 0) and (0, 1)
    return FluxFamily(zero, np.array([zero.indptr[1]]), np.array([zero.indptr[0] + 1]))


def test_batched_energy_out_of_budget_falls_back_alone(monkeypatch):
    family = _crowded_triangle(600)
    angles = [0.0, 1.0, PI, 4.0]
    dense = [float(np.linalg.eigvalsh(family.dense(phi))[0]) for phi in angles]
    columns = []
    recurrence = spectra._lanczos_energies

    def recording(*args, **kwargs):
        result = recurrence(*args, **kwargs)
        columns.append(result[0].copy())
        return result

    monkeypatch.setattr(spectra, "_lanczos_energies", recording)
    energies = spectra._ground_energies(family, angles)
    (raw,) = columns
    assert np.isnan(raw[2]) and not np.isnan(raw[[0, 1, 3]]).any()
    assert energies[2] == dense[2]                       # pi alone, solved dense
    assert _bits(energies[[0, 1, 3]]) == _bits(raw[[0, 1, 3]])
    assert np.abs(energies - dense).max() < 1e-12
    with pytest.raises(NoConvergence) as err:            # 600 steps do not reach it
        spectra._ground_energies(family, angles, method="lanczos")
    assert err.value.residual is not None


def test_vector_solves_below_the_deflation_crossover_stay_dense(monkeypatch):
    # random L=13 N=2 sectors (dimension 169): with S^2 Lanczos needed more
    # than its budget on every draw and fell back, at about twice the cost,
    # and one ground vector, a recurrence and its replay, cost about as much
    # as dense
    calls = _recording_recurrence(monkeypatch)
    basis = fr.enumerate_sector(13, 2, 0)
    assert ENERGY_CROSSOVER < basis.dim <= LANCZOS_CROSSOVER
    for seed in range(20):
        rng = np.random.default_rng(seed)
        spec = fr.make_spec(13, 2, rng.uniform(0.5, 2, 13), rng.uniform(0, 2 * PI, 13),
                            rng.normal(0, 1, 13), 3.0)
        h = fr.build_hamiltonian(spec, basis)
        assert fr.ground(h).method == "dense"
        assert fr.ground(h, max_degeneracy=0).method == "dense"
    assert calls == []                         # neither a recurrence nor a replay


def test_s2_projected_on_part_of_a_multiplet_sum_is_typed():
    # an equal mix of a singlet and a triplet member spans no whole
    # multiplet: <S^2> = 1 is no s(s+1)
    basis = fr.enumerate_sector(4, 2, 0)
    s2 = fr.build_total_spin(basis)
    values, vectors = np.linalg.eigh(s2.to_dense())
    mixed = (vectors[:, 0] + vectors[:, -1]) / math.sqrt(2.0)
    assert values[0] == pytest.approx(0.0, abs=1e-12) and values[-1] == pytest.approx(2.0)
    with pytest.raises(MultipletCut, match="not of the form s\\(s\\+1\\)"):
        fr.GroundInfo(0.0, 1.0, mixed[:, None], "dense").spins(s2)
    assert issubclass(MultipletCut, fr.FluxRingError)
    assert fr.GroundInfo(0.0, 1.0, vectors[:, -1:], "dense").spins(s2) == {1.0}
