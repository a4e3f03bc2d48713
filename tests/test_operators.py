import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import fluxring as fr
from fluxring import basis as basis_module
from fluxring.errors import BasisMismatch, FluxObstruction, HypothesisViolated, MethodLimit
from fluxring.basis import entry_rows, mode
from fluxring.model import fold_angle
from fluxring.operators import (
    SparseHermitian,
    _diagonal,
    _with_data,
    conjugation_residual,
    is_sign_gauge,
)

from oracles import (
    DenseOracle,
    filled_sum,
    fourier_levels,
    from_coo,
    hermiticity_defect,
    total_spin_coo,
)

PI = math.pi


def random_spec(seed, L=5, N=3, umax=3.0):
    rng = np.random.default_rng(seed)
    return fr.make_spec(L, N, rng.uniform(0.5, 2.0, L), rng.uniform(0, 2 * PI, L),
                        rng.normal(0.0, 1.0, L), rng.uniform(-umax, umax, L))


def test_one_particle_matches_n1_sector():
    spec = random_spec(0, L=3, N=1)
    basis = fr.enumerate_sector(3, 1, 1)
    many = fr.build_hamiltonian(spec, basis).to_dense()
    assert np.abs(many - fr.build_one_particle(spec)).max() < 1e-15


def test_free_ground_energy_l4():
    spec = fr.make_spec(4, 2)
    basis = fr.enumerate_sector(4, 2, 0)
    info = fr.ground(fr.build_hamiltonian(spec, basis))
    # two particles in the lowest level 2cos(2pi k/4) = -2
    assert info.energy == pytest.approx(-4.0, abs=1e-12)


def test_spectrum_against_independent_dense_oracle():
    spec = fr.make_spec(3, 2, U=4.0)
    basis = fr.enumerate_sector(3, 2, 0)
    assert basis.dim == 9
    ours = fr.full_spectrum(fr.build_hamiltonian(spec, basis))
    oracle = DenseOracle(3, spec.amplitudes(), spec.V, spec.U)
    theirs = np.linalg.eigvalsh(oracle.hamiltonian(1, 1))
    assert np.abs(ours - theirs).max() < 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_random_spectra_against_oracle(seed):
    spec = random_spec(seed, L=4, N=3)
    basis = fr.enumerate_sector(4, 3, 1)
    ours = fr.full_spectrum(fr.build_hamiltonian(spec, basis))
    theirs = np.linalg.eigvalsh(DenseOracle(4, spec.amplitudes(), spec.V, spec.U)
                                .hamiltonian(2, 1))
    assert np.abs(ours - theirs).max() < 1e-10


def test_hardcore_spectra_against_oracle():
    spec = random_spec(9, L=5, N=4)
    spec = fr.make_spec(5, 4, spec.hop_mag, spec.hop_phase, spec.V, fr.INFINITY)
    basis = fr.enumerate_sector(5, 4, 0, hardcore=True)
    ours = fr.full_spectrum(fr.build_hamiltonian(spec, basis))
    oracle = DenseOracle(5, spec.amplitudes(), spec.V, None, hardcore=True)
    assert np.abs(ours - np.linalg.eigvalsh(oracle.hamiltonian(2, 2))).max() < 1e-10


def test_one_particle_fourier_levels():
    for L, phi in ((3, 0.0), (3, PI), (4, 0.7), (6, 2.3)):
        spec = fr.with_flux(fr.make_spec(L, 1), phi)
        got = np.linalg.eigvalsh(fr.build_one_particle(spec))
        assert np.abs(got - fourier_levels(L, phi)).max() < 1e-12
    assert np.abs(fourier_levels(3, 0.0) - [-1, -1, 2]).max() < 1e-12
    assert np.abs(fourier_levels(3, PI) - [-2, 1, 1]).max() < 1e-12


def test_basis_mismatch_rejected():
    spec = fr.make_spec(4, 2)
    with pytest.raises(BasisMismatch):
        fr.build_hamiltonian(spec, fr.enumerate_sector(4, 2, 0, hardcore=True))
    with pytest.raises(BasisMismatch):
        fr.build_hamiltonian(spec, fr.enumerate_sector(4, 3, 1))


def test_total_spin_n1_and_polarized():
    basis = fr.enumerate_sector(4, 1, 1)
    s2 = fr.build_total_spin(basis).to_dense()
    assert np.abs(s2 - 0.75 * np.eye(basis.dim)).max() < 1e-15

    pol = fr.enumerate_sector(4, 2, 2)
    vals = np.linalg.eigvalsh(fr.build_total_spin(pol).to_dense())
    assert np.abs(vals - 2.0).max() < 1e-12  # S = 1 throughout


def test_total_spin_content_l4_free_sector():
    basis = fr.enumerate_sector(4, 2, 0)
    vals = np.sort(np.linalg.eigvalsh(fr.build_total_spin(basis).to_dense()))
    # ten singlets and six Sz=0 triplet members
    assert np.abs(vals[:10]).max() < 1e-10
    assert np.abs(vals[10:] - 2.0).max() < 1e-10
    oracle = DenseOracle(4, [1.0] * 4, [0.0] * 4, [0.0] * 4)
    theirs = np.sort(np.linalg.eigvalsh(oracle.total_spin(1, 1)))
    assert np.abs(vals - theirs).max() < 1e-10


@pytest.mark.parametrize("seed,hardcore", [(1, False), (2, False), (3, True)])
def test_s2_commutes_with_hamiltonian(seed, hardcore):
    spec = random_spec(seed, L=5, N=3)
    if hardcore:
        spec = fr.make_spec(5, 3, spec.hop_mag, spec.hop_phase, spec.V, fr.INFINITY)
    basis = fr.enumerate_sector(5, 3, 1, hardcore=hardcore)
    h = fr.build_hamiltonian(spec, basis).to_dense()
    s2 = fr.build_total_spin(basis).to_dense()
    assert np.abs(s2 @ h - h @ s2).max() < 1e-12


def test_hermiticity_exact():
    for seed in range(5):
        spec = random_spec(seed)
        basis = fr.enumerate_sector(5, 3, 1)
        assert hermiticity_defect(fr.build_hamiltonian(spec, basis)) == 0.0


def test_negative_envelope_fixed_point_and_modulus():
    m = sparse.csr_matrix(np.array([[1.0, -2.0], [-2.0, -3.0]], dtype=complex))
    h = SparseHermitian(m)
    assert np.abs(fr.negative_envelope(h).to_dense() - h.to_dense()).max() == 0.0

    m = sparse.csr_matrix(np.array([[0.0, 1j], [-1j, 0.0]]))
    env = fr.negative_envelope(SparseHermitian(m)).to_dense()
    assert np.abs(env - np.array([[0.0, -1.0], [-1.0, 0.0]])).max() < 1e-15


def test_envelope_gauge_equivalence_at_optimal_flux():
    # at the optimal flux the envelope is reachable by a diagonal sign gauge
    spec = fr.make_spec(4, 2, U=2.0)  # flux 0 = (N/2+1)pi mod 2pi
    basis = fr.enumerate_sector(4, 2, 0)
    h = fr.build_hamiltonian(spec, basis)
    env = fr.negative_envelope(h)
    g = fr.solve_sign_gauge(h, env)
    assert conjugation_residual(g, h, env) < 1e-10
    assert np.abs(fr.full_spectrum(h) - fr.full_spectrum(env)).max() < 1e-10

    # away from it the equivalence must break on some cycle
    h_pi = fr.build_hamiltonian(fr.with_flux(spec, PI), basis)
    with pytest.raises(FluxObstruction):
        fr.solve_sign_gauge(h_pi, fr.negative_envelope(h_pi))


def test_hardcore_zero_and_pi_gauge_equivalent():
    spec = fr.make_spec(4, 2, U=fr.INFINITY)
    basis = fr.enumerate_sector(4, 2, 0, hardcore=True)
    h0 = fr.build_hamiltonian(spec, basis)
    hpi = fr.build_hamiltonian(fr.with_flux(spec, PI), basis)
    g = fr.solve_sign_gauge(hpi, h0)
    assert conjugation_residual(g, hpi, h0) < 1e-10


def _gauged(phases, h):
    """g H g^{-1} for the gauge g = phases: entries g_i H_ij conj(g_j) on h's pattern."""
    m = h.mat
    return _with_data(m, phases[entry_rows(m.indptr)] * m.data * np.conj(phases[m.indices]))


def test_solve_sign_gauge_multi_block_random_phases():
    # hard-core L=7 N=6 splits into four blocks; a random complex diagonal
    # gauge is recovered up to one constant per block, which the solver
    # fixes to 1 at the block's smallest member
    rng = np.random.default_rng(3)
    spec = fr.make_spec(7, 6, rng.uniform(0.5, 2.0, 7), rng.uniform(0, 2 * PI, 7),
                        None, fr.INFINITY)
    basis = fr.enumerate_sector(7, 6, 0, hardcore=True)
    blocks = fr.decompose_blocks(basis)
    assert len(blocks) > 1
    h = fr.build_hamiltonian(spec, basis)
    phases = np.exp(1j * rng.uniform(0, 2 * PI, basis.dim))
    target = _gauged(phases, h)
    g = fr.solve_sign_gauge(h, target)
    assert conjugation_residual(g, h, target) < 1e-12
    for b in blocks:
        idx = np.asarray(b.member_indices)
        root = idx.min()
        assert g[root] == 1.0
        want = phases[idx] * np.conj(phases[root])
        assert np.abs(g[idx] - want).max() < 1e-12


def test_solve_sign_gauge_rejects_different_moduli():
    spec = fr.make_spec(4, 2, U=2.0)
    basis = fr.enumerate_sector(4, 2, 0)
    h = fr.build_hamiltonian(spec, basis)
    other = fr.build_hamiltonian(fr.make_spec(4, 2, (1.0, 1.0, 1.0, 1.7), U=2.0), basis)
    with pytest.raises(FluxObstruction):
        fr.solve_sign_gauge(h, other)


def test_conjugation_residual_refuses_operands_off_one_pattern():
    # entrywise residuals compare stored entries, so a different pattern or
    # a repeated entry (not canonical) is refused, not compared
    h = fr.build_hamiltonian(fr.make_spec(4, 2, U=2.0), fr.enumerate_sector(4, 2, 0))
    g = np.ones(h.dim, dtype=complex)
    assert conjugation_residual(g, h, h) == 0.0
    diagonal = SparseHermitian(sparse.diags(h.mat.diagonal()).tocsr())
    m = sparse.csr_matrix(([1.0, 1.0], [0, 0], [0, 2, 2]), shape=(2, 2))
    repeated = SparseHermitian(m)
    assert not m.has_canonical_format
    for a, b in ((h, diagonal), (diagonal, h), (repeated, repeated)):
        with pytest.raises(FluxObstruction, match="pattern"):
            conjugation_residual(g, a, b)


def test_envelope_and_gauge_refuse_a_repeated_entry():
    # one pattern rule for every gauge helper: an operand with a repeated
    # entry is refused, not summed into a copy
    m = sparse.csr_matrix(([1.0, 1.0, 2.0], [1, 1, 0], [0, 2, 3]), shape=(2, 2))
    repeated = SparseHermitian(m)
    summed = SparseHermitian(m.copy())
    summed.mat.sum_duplicates()
    assert not repeated.mat.has_canonical_format and summed.mat.has_canonical_format
    for call in (lambda: fr.negative_envelope(repeated),
                 lambda: fr.solve_sign_gauge(repeated, summed),
                 lambda: fr.solve_sign_gauge(summed, repeated)):
        with pytest.raises(FluxObstruction, match="pattern"):
            call()
    assert np.array_equal(fr.negative_envelope(summed).to_dense(), [[0.0, -2.0], [-2.0, 0.0]])
    assert np.array_equal(fr.solve_sign_gauge(summed, summed), [1.0, 1.0])


def hole_particle_down(spec):
    """Model whose one-particle spectrum is the negation of the original's.

    Realizes the hole-particle transform for the down species: every bond
    phase shifts by pi (t -> -t), which sends flux to flux + L*pi.
    Requires V = 0.
    """
    if any(v != 0.0 for v in spec.V):
        raise HypothesisViolated("hole-particle transform requires V = 0")
    phases = tuple(fold_angle(p + math.pi) for p in spec.hop_phase)
    return replace(spec, hop_phase=phases)


def test_hole_particle_down():
    spec = fr.make_spec(3, 3)
    assert fr.lowest_sum(spec, 2, 0.0) == pytest.approx(-2.0, abs=1e-12)
    assert fr.lowest_sum(spec, 1, PI) == pytest.approx(-2.0, abs=1e-12)
    flipped = hole_particle_down(spec)
    assert flipped.flux == pytest.approx(fr.model.fold_angle(3 * PI), abs=1e-12)
    # spectrum negates and reflects
    a = np.linalg.eigvalsh(fr.build_one_particle(spec))
    b = np.linalg.eigvalsh(fr.build_one_particle(flipped))
    assert np.abs(a + b[::-1]).max() < 1e-12

    spec5 = fr.make_spec(5, 5)
    assert fr.lowest_sum(spec5, 3, PI / 2) == pytest.approx(
        fr.lowest_sum(spec5, 2, 3 * PI / 2), abs=1e-12)

    with pytest.raises(HypothesisViolated, match="requires V = 0"):
        hole_particle_down(fr.make_spec(3, 3, V=(0.0, 1.0, 0.0)))


def test_extend_ring():
    spec = fr.make_spec(3, 1)
    doubled = fr.extend_ring(spec)
    assert doubled.L == 6 and doubled.hop_mag == (1.0,) * 6
    assert doubled.flux == pytest.approx(0.0, abs=1e-12)

    assert filled_sum(3, 0.0, 1) + filled_sum(3, PI, 1) == pytest.approx(-3.0, abs=1e-12)
    assert fr.lowest_sum(doubled, 2, 0.0) == pytest.approx(-3.0, abs=1e-12)
    assert fr.lowest_sum(doubled, 2, PI) == pytest.approx(-2 * math.sqrt(3), abs=1e-12)
    assert filled_sum(3, PI / 2, 1) + filled_sum(3, 3 * PI / 2, 1) == pytest.approx(
        -2 * math.sqrt(3), abs=1e-12)

    with pytest.raises(HypothesisViolated, match="ring extension requires U = 0"):
        fr.extend_ring(fr.make_spec(3, 2, U=1.0))
    with pytest.raises(HypothesisViolated, match="ring extension requires U = 0"):
        fr.extend_ring(fr.make_spec(3, 2, U=fr.INFINITY))
    with pytest.raises(HypothesisViolated, match="ring extension requires V = 0"):
        fr.extend_ring(fr.make_spec(3, 2, V=(1.0, 0.0, 0.0)))


def test_eigenvector_doubling():
    rng = np.random.default_rng(17)
    for phi in (0.0, 0.9, PI / 2):
        spec = fr.with_flux(fr.make_spec(5, 1, rng.uniform(0.5, 2, 5)), phi)
        h = fr.build_one_particle(spec)
        vals, vecs = np.linalg.eigh(h)
        # doubled ring in the gauge carrying the whole 2*phi on the first
        # seam bond; there the two-copy extension with phase e^{i phi} on
        # the second copy is an exact eigenvector
        phases = [0.0] * 10
        phases[4] = 2 * phi
        seam_gauge = fr.make_spec(10, 2, tuple(spec.hop_mag) * 2, phases)
        h2 = fr.build_one_particle(seam_gauge)
        for j in range(5):
            psi = vecs[:, j]
            ext = np.concatenate([psi, np.exp(1j * phi) * psi])
            assert np.linalg.norm(h2 @ ext - vals[j] * ext) < 1e-10
        # same spectrum as the periodic tiling (pure gauge freedom)
        tiled = fr.build_one_particle(fr.extend_ring(spec))
        assert np.abs(np.linalg.eigvalsh(h2) - np.linalg.eigvalsh(tiled)).max() < 1e-10


def test_one_particle_gauge_covariance_explicit():
    rng = np.random.default_rng(23)
    spec = fr.make_spec(5, 1, rng.uniform(0.5, 2, 5), rng.uniform(0, 2 * PI, 5),
                        rng.normal(0, 1, 5))
    moved = fr.with_flux(spec, spec.flux)
    # g_x = exp(i sum_{y<x} (theta'_y - theta_y)) conjugates h into h'
    delta = np.asarray(moved.hop_phase) - np.asarray(spec.hop_phase)
    g = np.exp(1j * np.concatenate([[0.0], np.cumsum(delta[:-1])]))
    h = fr.build_one_particle(spec)
    h_moved = fr.build_one_particle(moved)
    assert np.abs(np.diag(g) @ h @ np.diag(g).conj().T - h_moved).max() < 1e-14


def test_perron_frobenius_positive_ground_vector_per_block():
    # sign-fixed gauge: non-positive off-diagonal entries, so each block's
    # lowest eigenvector can be chosen strictly positive
    spec = fr.make_spec(5, 2, hop_phase=(PI, PI, PI, PI, 0.0), U=fr.INFINITY)
    basis = fr.enumerate_sector(5, 2, 0, hardcore=True)
    h = fr.build_hamiltonian(spec, basis)
    dense = h.to_dense()
    off = dense[~np.eye(basis.dim, dtype=bool)]
    assert off.real.max() <= 0.0 and np.abs(off.imag).max() < 1e-12
    for block in fr.decompose_blocks(basis):
        idx = np.asarray(block.member_indices)
        vals, vecs = np.linalg.eigh(dense[np.ix_(idx, idx)])
        v = vecs[:, 0]
        v = v * np.sign(v[np.argmax(np.abs(v))].real)
        assert v.real.min() > 0.0
        assert vals[0] < vals[1] - 1e-12  # PF: block ground is simple


def test_flux_family_matches_direct_build():
    spec = random_spec(4, L=5, N=3)
    basis = fr.enumerate_sector(5, 3, 1)
    family = fr.flux_family(spec, basis)
    for phi in (0.0, 1.1, PI):
        direct = fr.build_hamiltonian(fr.with_flux(spec, phi), basis).to_dense()
        assert np.abs(family.dense(phi) - direct).max() < 1e-14
        assert np.abs(family.hamiltonian(phi).to_dense() - direct).max() < 1e-14


def _oracle_frame(basis, oracle):
    """Position of each basis state in the oracle basis, and the sign that
    reorders its site-major modes into the oracle's spin-major order."""
    L = basis.L
    index = {s: i for i, s in enumerate(oracle.basis(basis.n_up, basis.n_down))}
    pos, sign = [], []
    for occ in basis.codes.tolist():
        ups = [x for x in range(L) if (occ >> mode(x, 0)) & 1]
        dns = [x for x in range(L) if (occ >> mode(x, 1)) & 1]
        pos.append(index[tuple(sorted(ups + [L + x for x in dns]))])
        crossings = sum(1 for x in ups for y in dns if y < x)
        sign.append(-1.0 if crossings % 2 else 1.0)
    return np.asarray(pos), np.asarray(sign)


@st.composite
def sectors(draw):
    L = draw(st.integers(3, 7))
    hardcore = draw(st.booleans())
    N = draw(st.integers(0, L if hardcore else 2 * L))
    two_sz = draw(st.sampled_from([s for s in range(-N, N + 1, 2)
                                   if abs(s) <= 2 * L - N or hardcore]))
    return L, N, two_sz, hardcore, draw(st.integers(0, 2**32 - 1))


@given(sectors(), st.floats(0.0, 2 * PI, exclude_max=True))
@settings(max_examples=30, deadline=None)
def test_operators_match_oracle_entry_by_entry(sector, phi):
    L, N, two_sz, hardcore, seed = sector
    rng = np.random.default_rng(seed)
    spec = fr.make_spec(L, N, rng.uniform(0.5, 2.0, L), rng.uniform(0, 2 * PI, L),
                        rng.normal(0.0, 1.0, L),
                        fr.INFINITY if hardcore else rng.uniform(-3.0, 3.0, L))
    basis = fr.enumerate_sector(L, N, two_sz, hardcore)
    U = None if hardcore else spec.U
    oracle = DenseOracle(L, spec.amplitudes(), spec.V, U, hardcore=hardcore)
    pos, sign = _oracle_frame(basis, oracle)
    frame = np.outer(sign, sign)

    def in_frame(m):
        return frame * m[np.ix_(pos, pos)]

    h = in_frame(oracle.hamiltonian(basis.n_up, basis.n_down))
    assert np.abs(fr.build_hamiltonian(spec, basis).to_dense() - h).max() < 1e-12

    amps = np.asarray(spec.hop_mag, dtype=complex)  # canonical gauge at flux phi
    amps[-1] *= np.exp(1j * phi)
    h_phi = in_frame(DenseOracle(L, amps, spec.V, U, hardcore=hardcore)
                     .hamiltonian(basis.n_up, basis.n_down))
    assert np.abs(fr.flux_family(spec, basis).dense(phi) - h_phi).max() < 1e-12

    s2 = in_frame(oracle.total_spin(basis.n_up, basis.n_down))
    assert np.abs(fr.build_total_spin(basis).to_dense() - s2).max() < 1e-12


def _coo_assembly(spec, basis, phi, keep=None):
    """The canonical-gauge Hamiltonian of spec at flux phi, built from the
    spec and the hopping table with every term sent through COO -> CSR
    conversion: the reference for FluxFamily. With keep (ascending state
    indices), on those states alone, terms leaving them dropped."""
    hops = basis.hops
    base = hops.sign * np.asarray(spec.hop_mag, dtype=float)[hops.bond]
    winding = np.where(hops.bond == spec.L - 1, hops.direction, 0).astype(np.int8)
    rows, cols, diag = hops.row, hops.col, _diagonal(spec, basis)
    if keep is not None:
        pos = np.full(basis.dim, -1)
        pos[keep] = np.arange(len(keep))
        inside = (pos[rows] >= 0) & (pos[cols] >= 0)
        rows, cols = pos[rows[inside]], pos[cols[inside]]
        base, winding, diag = base[inside], winding[inside], diag[keep]
    on = np.arange(len(diag))
    turn = phi * winding  # exp(i * turn), exactly -1 at +-pi: real at flux pi
    vals = base * np.where(np.abs(turn) == PI, -1.0, np.exp(1j * turn))
    return from_coo(len(diag), np.concatenate([rows, on]), np.concatenate([cols, on]),
                    np.concatenate([vals, diag.astype(complex)]))


def _bits(a):
    return a.dtype, a.tobytes()


@given(sectors(), st.floats(-20.0, 20.0), st.booleans())
@example((6, 4, 0, True, 1), PI, True)
@example((5, 4, 0, False, 2), PI, False)
@settings(max_examples=40, deadline=None)
def test_flux_family_csr_equals_coo_assembly_bit_for_bit(sector, phi, restrict):
    L, N, two_sz, hardcore, seed = sector
    rng = np.random.default_rng(seed)
    spec = fr.make_spec(L, N, rng.uniform(0.5, 2.0, L), rng.uniform(0, 2 * PI, L),
                        rng.normal(0.0, 1.0, L),
                        fr.INFINITY if hardcore else rng.uniform(-3.0, 3.0, L))
    basis = fr.enumerate_sector(L, N, two_sz, hardcore)
    family = fr.flux_family(spec, basis)
    keep = None
    if restrict and hardcore and N > 0:
        blocks = fr.decompose_blocks(basis)
        keep = np.array(blocks[int(rng.integers(len(blocks)))].member_indices)
    elif restrict:
        keep = np.flatnonzero(rng.random(basis.dim) < 0.5)
        keep = keep if len(keep) else np.array([0])
    if keep is not None:
        family = family.restrict(keep)
    for angle in (phi, np.float64(phi), phi + 2 * PI, -phi):
        ref = _coo_assembly(spec, basis, angle, keep)
        got = family.hamiltonian(angle).mat
        assert _bits(got.indptr) == _bits(ref.indptr)
        assert _bits(got.indices) == _bits(ref.indices)
        assert _bits(got.data) == _bits(ref.data)
        assert _bits(family.dense(angle)) == _bits(ref.toarray())


def _random_sector_spec(sector):
    L, N, two_sz, hardcore, seed = sector
    rng = np.random.default_rng(seed)
    spec = fr.make_spec(L, N, rng.uniform(0.5, 2.0, L), rng.uniform(0, 2 * PI, L),
                        rng.normal(0.0, 1.0, L),
                        fr.INFINITY if hardcore else rng.uniform(-3.0, 3.0, L))
    return spec, fr.enumerate_sector(L, N, two_sz, hardcore), rng


def _sector_family(sector):
    spec, basis, rng = _random_sector_spec(sector)
    return basis, fr.flux_family(spec, basis), rng


@given(sectors(), st.floats(-20.0, 20.0))
@settings(max_examples=40, deadline=None)
def test_matvec_equals_mat_dot_bit_for_bit(sector, phi):
    basis, family, rng = _sector_family(sector)
    dim = basis.dim
    block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    vectors = (block[:, 0].copy(), block[:, 1], block.real[:, 2].copy(),
               np.arange(dim), block)   # contiguous, strided, real, integer, 2-D
    for op in (family.hamiltonian(phi), fr.build_total_spin(basis)):
        for v in vectors:
            assert _bits(op.matvec(v)) == _bits(op.mat.dot(v))


@given(sectors(), st.floats(-20.0, 20.0))
@settings(max_examples=30, deadline=None)
def test_flux_family_derivative_is_the_flux_derivative(sector, phi):
    basis, family, _ = _sector_family(sector)
    h = 1e-5
    slope = (family.dense(phi + h) - family.dense(phi - h)) / (2 * h)
    d = family.derivative(phi)
    got = d.to_dense()
    assert np.abs(got - slope).max() < 1e-8
    assert hermiticity_defect(d) == 0.0
    ref = family.hamiltonian(phi).mat
    assert _bits(d.mat.indptr) == _bits(ref.indptr)
    assert _bits(d.mat.indices) == _bits(ref.indices)


@given(sectors())
@settings(max_examples=40, deadline=None)
def test_build_hamiltonian_equals_coo_assembly_bit_for_bit(sector):
    # every hop term and every diagonal entry, zero or not, sent through
    # COO -> CSR conversion: the reference for the basis layout
    spec, basis, _ = _random_sector_spec(sector)
    hops = basis.hops
    t = spec.amplitudes()[hops.bond]
    amp = np.where(hops.direction > 0, t, np.conj(t))
    on = np.arange(basis.dim)
    ref = from_coo(basis.dim, np.concatenate([hops.row, on]), np.concatenate([hops.col, on]),
                   np.concatenate([hops.sign * amp, _diagonal(spec, basis)]))
    got = fr.build_hamiltonian(spec, basis).mat
    assert _bits(got.indptr) == _bits(ref.indptr)
    assert _bits(got.indices) == _bits(ref.indices)
    assert _bits(got.data) == _bits(ref.data)


@given(sectors(), st.floats(-20.0, 20.0))
@settings(max_examples=20, deadline=None)
def test_operators_on_one_basis_share_its_read_only_layout(sector, phi):
    spec, basis, rng = _random_sector_spec(sector)
    h = fr.build_hamiltonian(spec, basis)
    family = fr.flux_family(spec, basis)
    ref = _coo_assembly(spec, basis, phi)
    phases = np.exp(1j * rng.uniform(0, 2 * PI, basis.dim))
    layout = basis.layout
    shared = (h, family.hamiltonian(phi), family.derivative(phi), fr.negative_envelope(h),
              _gauged(phases, h))
    for op in shared:
        assert np.shares_memory(op.mat.indices, layout.indices)
        assert np.shares_memory(op.mat.indptr, layout.indptr)
    for a in (layout.indptr, layout.indices, layout.hop, layout.diag, h.mat.indices,
              basis.hops.row, basis.hops.col):
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = 0
    # an in-place scipy call on one operator raises instead of rewriting
    # the pattern under the others
    with pytest.raises(ValueError):
        h.mat.eliminate_zeros()
    got = family.hamiltonian(phi).mat
    assert _bits(got.indices) == _bits(ref.indices) and _bits(got.data) == _bits(ref.data)


@given(sectors(), st.floats(-20.0, 20.0))
@settings(max_examples=20, deadline=None)
def test_one_angle_stack_shares_the_family_index_arrays(sector, phi):
    # a batch of one angle is the family's evaluation at it, on the
    # family's own index arrays, not a shifted copy of them
    spec, basis, _ = _random_sector_spec(sector)
    family = fr.flux_family(spec, basis)
    one = family.stacked([phi]).mat
    assert np.shares_memory(one.indices, family.zero.indices)
    assert np.shares_memory(one.indptr, family.zero.indptr)
    assert _bits(one.data) == _bits(_coo_assembly(spec, basis, phi).data)
    pair = family.stacked([phi, phi + 1.0]).mat
    assert _bits(pair.data[:family.nnz]) == _bits(one.data)


def test_sign_gauge_of_the_free_sector_stays_within_a_few_entries_per_entry():
    # the free Sz = 0 sector at L=10 N=6 (14,400 states): the envelope and
    # the gauge work on the data of the shared pattern, with no COO round
    # trip, sparse product or copied matrix
    from scipy.sparse import csgraph  # noqa: F401  (its import is not the solve's)

    spec = fr.make_spec(10, 6, np.random.default_rng(1).uniform(0.5, 2.0, 10), None, None, 0.0)
    basis = fr.enumerate_sector(10, 6, 0)
    h = fr.build_hamiltonian(spec, basis)
    assert basis.dim == 14400
    tracemalloc.start()
    try:
        gauge = fr.solve_sign_gauge(fr.negative_envelope(h), h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert is_sign_gauge(gauge)
    assert peak < 4 * h.mat.data.nbytes, peak / h.mat.data.nbytes


def test_layout_over_the_memory_budget_is_refused_before_allocation(monkeypatch):
    spec = fr.make_spec(8, 6, U=2.0)
    basis = fr.enumerate_sector(8, 6, 0)
    hops = len(basis.hops.row)
    nnz = hops + basis.dim
    need = 11 * hops + 4 * (basis.dim + 1 + nnz + hops + basis.dim) + 16 * nnz
    monkeypatch.setattr(basis_module, "MEMORY_BUDGET", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(MethodLimit, match="budget"):
            fr.build_hamiltonian(spec, basis)
        with pytest.raises(MethodLimit, match="budget"):
            fr.flux_family(spec, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need / 20, (peak, need)
    monkeypatch.setattr(basis_module, "MEMORY_BUDGET", need)
    assert fr.build_hamiltonian(spec, basis).mat.nnz == nnz


@given(sectors())
@settings(max_examples=40, deadline=None)
def test_total_spin_equals_product_and_coo_assembly_bit_for_bit(sector):
    L, N, two_sz, hardcore, _ = sector
    basis = fr.enumerate_sector(L, N, two_sz, hardcore)
    ref = total_spin_coo(basis)
    got = fr.build_total_spin(basis).mat
    assert _bits(got.indptr) == _bits(ref.indptr)
    assert _bits(got.indices) == _bits(ref.indices)
    assert _bits(got.data) == _bits(ref.data)


@st.composite
def ring_sectors(draw):
    L = draw(st.integers(2, 9))
    hardcore = draw(st.booleans())
    N = draw(st.integers(0, L if hardcore else 2 * L))
    two_sz = draw(st.sampled_from([s for s in range(-N, N + 1, 2)
                                   if abs(s) <= 2 * L - N or hardcore]))
    return L, N, two_sz, hardcore


@given(ring_sectors())
@settings(max_examples=60, deadline=None)
def test_hopping_table_length_follows_from_the_sector(sector):
    basis = fr.enumerate_sector(*sector)
    assert basis._move_count() == len(basis.hops.row)


def test_hopping_table_over_the_memory_budget_is_refused_before_it_is_built(monkeypatch):
    # L=12 half filling: 11,176,704 moves, which the table stores in 11 bytes each
    basis = fr.enumerate_sector(12, 12, 0)
    spec = fr.make_spec(12, 12, U=2.0)
    moves = 11_176_704
    monkeypatch.setattr(basis_module, "MEMORY_BUDGET", 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(MethodLimit, match=f"{moves + basis.dim} matrix entries"):
            basis.hops
        with pytest.raises(MethodLimit, match="budget"):
            fr.flux_family(spec, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * moves / 100, peak


def test_budget_counts_the_hopping_table_it_guards(monkeypatch):
    # the table's 11 bytes per move join the layout and one operator: a
    # budget that holds those two alone no longer admits the table
    basis = fr.enumerate_sector(8, 6, 0)
    hops = basis._move_count()
    nnz = hops + basis.dim
    layout_and_operator = 4 * (basis.dim + 1 + nnz + hops + basis.dim) + 16 * nnz
    monkeypatch.setattr(basis_module, "MEMORY_BUDGET", layout_and_operator + 11 * hops - 1)
    with pytest.raises(MethodLimit, match=f"{nnz} matrix entries"):
        basis.hops
    monkeypatch.setattr(basis_module, "MEMORY_BUDGET", layout_and_operator + 11 * hops)
    assert len(basis.hops.row) == hops
