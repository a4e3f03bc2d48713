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
from fluxring.errors import MultipletCut, NoConvergence, TooLargeForDense
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
    e0 = fr.ground(h, want_vectors=False).energy
    assert log_z(h, 800.0) > math.log(sys.float_info.max)
    assert log_z(h, 800.0) == pytest.approx(-800.0 * e0, rel=1e-12)
    assert math.isfinite(math.exp(log_z(h, 100.0)))


def test_full_spectrum_size_guard():
    big = SparseHermitian(sparse.eye(2048, dtype=complex, format="csr"))
    with pytest.raises(TooLargeForDense):
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
def test_auto_matches_dense_across_crossover(L, N, two_sz):
    rng = np.random.default_rng(L * 10 + N)
    spec = fr.make_spec(L, N, rng.uniform(0.5, 2, L), rng.uniform(0, 2 * PI, L),
                        rng.normal(0, 1, L), 2.0)
    basis = fr.enumerate_sector(L, N, two_sz)
    h = fr.build_hamiltonian(spec, basis)
    s2 = fr.build_total_spin(basis)
    auto = fr.ground(h)
    _same_ground(auto, fr.ground(h, method="dense"), s2)
    assert auto.method == ("dense" if h.dim <= LANCZOS_CROSSOVER else "lanczos")
    energy = fr.ground(h, want_vectors=False)
    assert abs(energy.energy - auto.energy) < 1e-10
    assert energy.method == ("dense" if h.dim <= ENERGY_CROSSOVER else "lanczos")
    assert energy.vectors is None


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


def test_energy_only_solves_count_no_level():
    # the same 4-fold level: an energy alone reports degeneracy 1 and no
    # gap whichever solver answers, dense included
    basis = fr.enumerate_sector(6, 4, 0)
    h, s2 = fr.build_hamiltonian(fr.make_spec(6, 4), basis), fr.build_total_spin(basis)
    infos = {m: fr.ground(h, want_vectors=False, max_degeneracy=0, method=m)
             for m in ("dense", "lanczos", "auto")}
    for m, info in infos.items():
        assert (info.degeneracy, info.gap, info.vectors) == (1, math.inf, None), m
        assert abs(info.energy - infos["dense"].energy) <= 1e-12
        # max_degeneracy counts nothing without vectors
        assert fr.ground(h, want_vectors=False, method=m) == info
        assert not info.saturated
        with pytest.raises(ValueError, match="without vectors"):
            info.spins(s2)
    assert [info.method for info in infos.values()] == ["dense", "lanczos", "lanczos"]


def _recording_recurrence(monkeypatch):
    """Spy on _lanczos_energies: one entry per call, its steps or "replay"."""
    calls = []
    recurrence = spectra._lanczos_energies

    def recording(*args, replay=None):
        result = recurrence(*args, replay=replay)
        calls.append("replay" if replay is not None else int(result[1].sum()))
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
    # the Lanczos attempts together ran no more than 3*dim/5 steps
    steps = [c for c in calls if c != "replay"]
    assert steps and sum(steps) <= 3 * h.dim // 5


def test_ground_method_argument_checked():
    big = SparseHermitian(sparse.eye(DENSE_LIMIT + 1, dtype=complex, format="csr"))
    with pytest.raises(TooLargeForDense):
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
    assert calls == [3]                        # a pass out of budget replays nothing


def test_replayed_vector_that_misses_its_residual_is_never_returned(monkeypatch):
    # a replay fed the wrong Ritz coefficients (reversed) rebuilds a wrong
    # vector: its confirmation catches it and raises NoConvergence with the
    # true residual, and auto falls back to dense
    basis = fr.enumerate_sector(6, 6, 0)
    h = fr.build_hamiltonian(fr.make_spec(6, 6, U=2.0), basis)
    recurrence = spectra._lanczos_energies
    monkeypatch.setattr(spectra, "_lanczos_energies", lambda *a, replay=None: recurrence(
        *a, replay=None if replay is None else replay[::-1]))
    with pytest.raises(NoConvergence) as err:
        fr.ground(h, max_degeneracy=0, method="lanczos")
    exact = fr.ground(h, max_degeneracy=0, method="dense")
    assert err.value.residual > 1e-12 * max(1.0, abs(exact.energy))
    auto = fr.ground(h, max_degeneracy=0)
    assert auto.method == "dense" and auto.energy == exact.energy


def test_slater_consistency_free_case():
    # U=0: the many-body ground energy is the filled-orbital sum per spin
    rng = np.random.default_rng(8)
    spec = fr.make_spec(5, 3, rng.uniform(0.5, 2, 5), None, rng.normal(0, 1, 5))
    basis = fr.enumerate_sector(5, 3, 1)
    for phi in (0.0, 0.8, PI, 4.4):
        e = fr.ground(fr.build_hamiltonian(fr.with_flux(spec, phi), basis),
                      want_vectors=False).energy
        split = fr.lowest_sum(spec, 2, phi) + fr.lowest_sum(spec, 1, phi)
        assert abs(e - split) < 1e-10

    uniform = fr.make_spec(4, 2)
    b4 = fr.enumerate_sector(4, 2, 0)
    for phi in (0.0, 1.0, PI):
        e = fr.ground(fr.build_hamiltonian(fr.with_flux(uniform, phi), b4),
                      want_vectors=False).energy
        assert abs(e - uniform_slater_energy(4, phi, 1, 1)) < 1e-10


def test_reflection_symmetry_of_energy_curve():
    # real couplings and a reflection-symmetric |t| pattern: E(phi) = E(2pi - phi)
    spec = fr.make_spec(5, 3, (1.0, 1.3, 0.7, 0.7, 1.3), None, (0.1, 0.2, 0.3, 0.3, 0.2),
                        1.5)
    basis = fr.enumerate_sector(5, 3, 1)
    for phi in (0.3, 1.1, 2.9):
        a = fr.ground(fr.build_hamiltonian(fr.with_flux(spec, phi), basis),
                      want_vectors=False).energy
        b = fr.ground(fr.build_hamiltonian(fr.with_flux(spec, 2 * PI - phi), basis),
                      want_vectors=False).energy
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
    # most twice; its checks are the same in the batch and alone
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
    for phi, energy in zip(angles, batch):
        events.clear()
        assert spectra._ground_energies(family, [phi])[0] == energy
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
    h = family.hamiltonian(phi)
    info = fr.ground(h, want_vectors=False, max_degeneracy=0, method="lanczos")
    exact = float(np.linalg.eigvalsh(h.to_dense())[0])
    assert abs(info.energy - exact) <= 1e-12 * max(1.0, abs(exact))
    assert (info.degeneracy, info.vectors, info.method) == (1, None, "lanczos")
    # the recurrence answered
    assert info.energy == spectra._lanczos_energies(lambda cols: h, h.dim, 1)[0][0]


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


def test_energy_only_solves_never_replay(monkeypatch):
    basis = fr.enumerate_sector(6, 6, 0)
    h = fr.build_hamiltonian(fr.make_spec(6, 6, U=2.0), basis)
    calls = _recording_recurrence(monkeypatch)
    energy = fr.ground(h, want_vectors=False, max_degeneracy=0)
    assert energy.method == "lanczos" and len(calls) == 1 and "replay" not in calls
    # without vectors a degeneracy count asks for nothing more
    calls.clear()
    assert fr.ground(h, want_vectors=False) == energy
    assert len(calls) == 1 and "replay" not in calls
    # a level, counted or of one vector, replays for its ground vectors
    for kwargs in ({"max_degeneracy": 0}, {}):
        calls.clear()
        info = fr.ground(h, **kwargs)
        assert "replay" in calls and abs(info.energy - energy.energy) < 1e-10
    # and its spins are read off it without a further recurrence
    calls.clear()
    assert info.spins(fr.build_total_spin(basis)) == {0.0} and calls == []


def test_energy_recurrence_out_of_budget_falls_back_to_dense():
    # levels (j/299)^2, crowded at the bottom: the recurrence takes about
    # 435 steps, more than the dim = 300 an auto energy solve at dimension
    # 300 allows (and than the 180 below), and fewer than the 600 of an
    # explicit Lanczos solve
    h = SparseHermitian(sparse.diags(np.linspace(0.0, 1.0, 300) ** 2 + 0j).tocsr())
    assert np.isnan(spectra._lanczos_energies(lambda cols: h, h.dim, 1, max_iter=180)[0][0])
    auto = fr.ground(h, want_vectors=False, max_degeneracy=0)
    assert (auto.method, auto.energy) == ("dense", 0.0)
    lanczos = fr.ground(h, want_vectors=False, max_degeneracy=0, method="lanczos")
    assert lanczos.method == "lanczos" and abs(lanczos.energy) < 1e-12


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
    family, angles, method, seed = case
    energies = spectra._ground_energies(family, angles, method)
    rng = np.random.default_rng(seed)
    for k in rng.choice(len(angles), size=min(len(angles), 8), replace=False):
        exact = float(np.linalg.eigvalsh(family.dense(fr.model.fold_angle(angles[k])))[0])
        assert abs(energies[k] - exact) <= 1e-12 * max(1.0, abs(exact))
    alone = [spectra._ground_energies(family, [phi], method)[0] for phi in angles]
    assert _bits(energies) == _bits(alone)
    order = rng.permutation(len(angles))
    parts = np.split(order, np.sort(rng.choice(np.arange(1, len(angles)), size=3, replace=False)))
    batched = np.empty(len(angles))
    for part in parts:
        batched[part] = spectra._ground_energies(family, angles[part], method)
    assert _bits(energies) == _bits(batched)
    single = [fr.ground(family.hamiltonian(fr.model.fold_angle(phi)), want_vectors=False,
                        max_degeneracy=0, method=method).energy for phi in angles]
    assert _bits(energies) == _bits(single)


def test_batches_hold_at_most_the_stack_budget(monkeypatch):
    # hard-core L=6 N=4 (dimension 90): room for two angles' entries makes
    # batches of two, room for less than one angle batches of one
    family = fr.flux_family(fr.make_spec(6, 4, (1.3, 0.8, 1.1, 0.6, 1.7, 0.9), None, None,
                                         fr.INFINITY), fr.enumerate_sector(6, 4, 0, True))
    assert family.dim > ENERGY_CROSSOVER
    angles = np.arange(9) * (2 * PI / 9)
    whole = spectra._ground_energies(family, angles)
    sizes = []
    recurrence = spectra._lanczos_energies
    monkeypatch.setattr(spectra, "_lanczos_energies",
                        lambda stack, dim, count, *a: sizes.append(count) or
                        recurrence(stack, dim, count, *a))
    for budget, expected in ((2 * family.nnz, [2, 2, 2, 2, 1]), (1, [1] * 9)):
        sizes.clear()
        monkeypatch.setattr(spectra, "_STACK_ENTRIES", budget)
        assert _bits(spectra._ground_energies(family, angles)) == _bits(whole)
        assert sizes == expected


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
        fr.GroundInfo(0.0, 1, 1.0, mixed[:, None], "dense").spins(s2)
    assert issubclass(MultipletCut, fr.FluxRingError)
    assert fr.GroundInfo(0.0, 1, 1.0, vectors[:, -1:], "dense").spins(s2) == {1.0}
