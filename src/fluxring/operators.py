"""Sparse Hermitian operators on sector bases.

Hopping operators are views of the basis hopping table
(:attr:`fluxring.basis.SectorBasis.hops`), which holds the conjugate of
every move, so matrices are exactly Hermitian (zero defect, not merely
small). Fermionic signs follow the canonical mode order of
:mod:`fluxring.basis`. Every Hamiltonian on a basis, from build_hamiltonian
or a flux family, is a data array on the basis's one CSR layout
(:attr:`fluxring.basis.SectorBasis.layout`) with every diagonal entry
stored, and shares its read-only index arrays. The envelope and gauge
helpers work on the data of operands that share one canonical pattern and
refuse any other with FluxObstruction; a gauge is its array of
unit-modulus phases g, one per basis state, acting as H_ij -> g_i H_ij
conj(g_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .basis import CSRLayout, SectorBasis, _graph, csr_layout, entry_rows, mode
from .errors import (
    BasisMismatch,
    FluxObstruction,
    InteractionPresent,
    PotentialPresent,
)
from .model import ModelSpec, fold_angle, unit_phase, validate


@dataclass(frozen=True)
class SparseHermitian:
    """Hermitian operator in compressed sparse row storage."""

    mat: sparse.csr_matrix

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H @ v. A single vector goes straight to the CSR kernel that
        mat.dot calls (same sums in the same order, so bitwise the same
        result) without scipy's per-call dispatch: 8.4 instead of 11.8 us
        per call at dimension 400."""
        if v.ndim != 1:
            return self.mat.dot(v)
        m = self.mat
        out = np.zeros(m.shape[0], dtype=np.result_type(m.data, v))
        _sparsetools.csr_matvec(m.shape[0], m.shape[1], m.indptr, m.indices, m.data, v, out)
        return out


def _with_data(pattern: CSRLayout | sparse.csr_matrix, data: np.ndarray) -> SparseHermitian:
    """The operator holding data on the index arrays of pattern, shared."""
    dim = len(pattern.indptr) - 1
    return SparseHermitian(sparse.csr_matrix((data, pattern.indices, pattern.indptr),
                                             shape=(dim, dim)))


def _check_basis(spec: ModelSpec, basis: SectorBasis) -> None:
    if basis.L != spec.L or basis.N != spec.N or basis.hardcore != spec.hardcore:
        raise BasisMismatch(
            f"basis (L={basis.L}, N={basis.N}, hardcore={basis.hardcore}) does not "
            f"match model (L={spec.L}, N={spec.N}, hardcore={spec.hardcore})"
        )


def _diagonal(spec: ModelSpec, basis: SectorBasis) -> np.ndarray:
    """sum_x V_x n_x + U_x n_x,up n_x,dn per state, accumulated site by site."""
    u = None if spec.hardcore else spec.u_values()
    codes = basis.codes
    d = np.zeros(basis.dim)
    for x in range(spec.L):
        n_up = ((codes >> mode(x, 0)) & 1).astype(float)
        n_dn = ((codes >> mode(x, 1)) & 1).astype(float)
        d += spec.V[x] * (n_up + n_dn)
        if u is not None:
            d += u[x] * n_up * n_dn
    return d


def build_hamiltonian(spec: ModelSpec, basis: SectorBasis) -> SparseHermitian:
    """Many-body Hamiltonian sum_x t_x c+c + h.c. + sum V n + sum U n_up n_dn.

    In hard-core mode the interaction term is absent and the basis itself
    excludes double occupancy, which realizes the projected Hamiltonian
    P H P on the no-double-occupancy subspace. The matrix is a data array
    on the basis layout: every diagonal entry is stored, zero or not.
    """
    _check_basis(spec, basis)
    return _hamiltonian(spec, basis, spec.amplitudes())


def _hamiltonian(spec: ModelSpec, basis: SectorBasis, t: np.ndarray) -> SparseHermitian:
    """The Hamiltonian of spec with bond amplitudes t on the basis layout."""
    hops, layout = basis.hops, basis.layout
    # a forward hop across bond x carries t_x, a backward one conj(t_x)
    amp = np.concatenate([np.conj(t), t])[hops.bond + (hops.direction > 0) * np.int8(spec.L)]
    amp *= hops.sign
    data = np.empty(layout.nnz, dtype=complex)
    data[layout.hop] = amp
    del amp
    data[layout.diag] = _diagonal(spec, basis)
    return _with_data(layout, data)


#: Windings of the terms that cross the last bond, in the order of
#: FluxFamily's up and down entries.
_WINDINGS = np.array([1, -1], dtype=np.int8)


@dataclass(frozen=True)
class FluxFamily:
    """phi-parametrized Hamiltonian family in the canonical gauge: its
    Hamiltonian at flux 0 and the entries of the terms that cross the last
    bond forward (up, winding +1) and backward (down, winding -1), which
    pick up exp(+-i phi) at each phi (unit_phase: exactly -1 at pi, so
    the family is real at 0 and pi). Flux scans evaluate it without
    re-walking the basis; every evaluation shares the flux-0 index arrays.
    """

    zero: sparse.csr_matrix
    up: np.ndarray
    down: np.ndarray

    @property
    def dim(self) -> int:
        return self.zero.shape[0]

    @property
    def nnz(self) -> int:
        """Entries stored per evaluation, every diagonal entry included."""
        return self.zero.nnz

    @property
    def rows(self) -> np.ndarray:
        """The row of each off-diagonal entry, one per hopping term."""
        rows = entry_rows(self.zero.indptr)
        return rows[rows != self.zero.indices]

    @property
    def diag(self) -> np.ndarray:
        """The diagonal, which no flux changes."""
        return self.zero.diagonal().real

    def _data(self, data: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """data with the winding +1 and -1 entries set to phase[..., 0] and
        phase[..., 1] times their values at flux 0; a row of data per row
        of phase."""
        data[..., self.up] = self.zero.data[self.up] * phase[..., :1]
        data[..., self.down] = self.zero.data[self.down] * phase[..., 1:]
        return data

    def dense(self, phi: float) -> np.ndarray:
        """hamiltonian(phi).to_dense(), bit for bit: each entry is placed as
        0 + entry, as toarray sums it, which turns the -0.0 imaginary part
        of a negative entry times -1 (at pi) into +0.0."""
        m = self.zero
        h = np.zeros((self.dim, self.dim), dtype=complex)
        h[entry_rows(m.indptr), m.indices] = self._data(m.data.copy(),
                                                        unit_phase(phi * _WINDINGS)) + 0.0
        return h

    def hamiltonian(self, phi: float) -> SparseHermitian:
        return _with_data(self.zero, self._data(self.zero.data.copy(),
                                                unit_phase(phi * _WINDINGS)))

    def stacked(self, angles) -> SparseHermitian:
        """The block-diagonal operator whose g-th block is hamiltonian(angles[g]).

        Each block stores its entries in the order hamiltonian stores them,
        so a matvec on the stacked vectors (block g at rows g*dim onward)
        is, block for block, hamiltonian(angles[g]).matvec, bit for bit.
        It holds len(angles) copies of the family's entries.
        """
        m = self.zero
        count, nnz = len(angles), m.nnz
        data = self._data(np.tile(m.data, (count, 1)),
                          unit_phase(np.multiply.outer(angles, _WINDINGS)))
        index = np.int32 if count * max(nnz, self.dim) < 2**31 else np.int64
        shift = np.arange(count, dtype=index)[:, None]
        indices = (m.indices + shift * self.dim).ravel()
        indptr = np.append((m.indptr[:-1] + shift * nnz).ravel(), index(count * nnz))
        size = count * self.dim
        return SparseHermitian(sparse.csr_matrix((data.ravel(), indices, indptr),
                                                 shape=(size, size)))

    def derivative(self, phi: float) -> SparseHermitian:
        """dH/dphi: i w exp(i w phi) times the flux-0 value on the entries of
        winding w = +-1, zero on the rest of the same CSR pattern."""
        return _with_data(self.zero, self._data(np.zeros_like(self.zero.data),
                                                1j * _WINDINGS * unit_phase(phi * _WINDINGS)))

    def restrict(self, indices) -> FluxFamily:
        """The family on a span of ascending state indices closed under
        hopping (a hard-core block): the rows and columns of those states,
        with the entries of terms leaving the span dropped."""
        m = self.zero
        index = m.indptr.dtype
        idx = np.asarray(indices)
        pos = np.full(self.dim, -1, dtype=index)
        pos[idx] = np.arange(len(idx), dtype=index)
        rows = pos[entry_rows(m.indptr)]
        cols = pos[m.indices]
        keep = (rows >= 0) & (cols >= 0)
        indptr = np.zeros(len(idx) + 1, dtype=index)
        np.cumsum(np.bincount(rows[keep], minlength=len(idx)), out=indptr[1:])
        cols = cols[keep]
        for a in (indptr, cols):
            a.flags.writeable = False
        moved = np.cumsum(keep, dtype=index) - 1  # an entry's place among the kept
        return FluxFamily(sparse.csr_matrix((m.data[keep], cols, indptr),
                                            shape=(len(idx), len(idx))),
                          moved[self.up[keep[self.up]]], moved[self.down[keep[self.down]]])


def flux_family(spec: ModelSpec, basis: SectorBasis) -> FluxFamily:
    """Build the canonical-gauge flux family for a sector (phases discarded):
    its Hamiltonian at flux 0, amplitudes |t|, on the basis layout."""
    _check_basis(spec, basis)
    hops, layout = basis.hops, basis.layout
    zero = _hamiltonian(spec, basis, np.asarray(spec.hop_mag, dtype=float)).mat
    last = hops.bond == spec.L - 1
    return FluxFamily(zero, layout.hop[last & (hops.direction > 0)],
                      layout.hop[last & (hops.direction < 0)])


def build_one_particle(spec: ModelSpec, phi: float | None = None) -> np.ndarray:
    """Dense L x L one-particle Hamiltonian h: h[x+1, x] = t_x, diag V.

    With phi given, the model is retuned to that flux (canonical gauge)
    before building.
    """
    t = spec.amplitudes()
    if phi is not None:
        t = np.abs(t).astype(complex)
        t[-1] *= np.exp(1j * fold_angle(phi))
    L = spec.L
    h = np.zeros((L, L), dtype=complex)
    for x in range(L):
        y = (x + 1) % L
        h[y, x] += t[x]
        h[x, y] += np.conj(t[x])
    h[np.arange(L), np.arange(L)] += np.asarray(spec.V)
    return h


def build_total_spin(basis: SectorBasis) -> SparseHermitian:
    """Total-spin operator S^2 = Sz^2 + Sz + S- S+ with S+ = sum_x c+_{x,up} c_{x,dn}.

    S- S+ sums S-_x S+_y over sites: x = y counts a lone down spin at x, on
    the diagonal; x != y swaps a lone down spin at y with a lone up spin at
    x, amplitude 1 (each factor stays within one site: no fermion sign),
    laid out by csr_layout under MEMORY_BUDGET. Commutes with every ring
    Hamiltonian on the sector (spin rotation survives the hard-core projection).
    """
    codes, L = basis.codes, basis.L
    # lone[s][x, i]: whether state i holds spin s (0 up, 1 down) alone at site x
    lone = [np.array([(codes >> mode(x, s)) & ~(codes >> mode(x, 1 - s)) & 1
                      for x in range(L)], dtype=bool) for s in (0, 1)]
    flips = np.array([3 << mode(x, 0) for x in range(L)], dtype=np.uint64)
    sz = 0.5 * basis.two_sz
    diag = sz * sz + sz + lone[1].sum(axis=0, dtype=np.uint8)  # counts <= L: no int64 copy
    rows, cols = [], []
    for y in range(L):
        # S-_x S+_y for every x (x = y finds no state); images are in the basis
        xs, src = np.divmod(np.flatnonzero(lone[0] & lone[1][y]), basis.dim)
        rows.append(np.searchsorted(codes, codes[src] ^ flips[xs] ^ flips[y]).astype(np.int32))
        cols.append(src.astype(np.int32))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    layout = csr_layout(basis.dim, rows, cols)
    data = np.zeros(layout.nnz, dtype=complex)
    data[layout.hop] = 1.0
    data[layout.diag] = diag
    return _with_data(layout, data)


def apply_lowering(vec: np.ndarray, src: SectorBasis, dst: SectorBasis) -> np.ndarray:
    """Apply S- = sum_x c+_{x,dn} c_{x,up}, mapping two_sz -> two_sz - 2.

    S- is the adjoint of the raising map of dst. Terms are added into each
    target in order of increasing source index, i.e. of decreasing site.
    """
    if dst.two_sz != src.two_sz - 2 or dst.L != src.L or dst.N != src.N:
        raise BasisMismatch("destination basis is not the two_sz - 2 sector")
    out = np.zeros(dst.dim, dtype=complex)
    for x in reversed(range(dst.L)):
        rows, images = dst.moved(mode(x, 0), mode(x, 1))  # S+ at x
        found = src.locate(images)
        hit = found >= 0
        out[rows[hit]] += vec[found[hit]]
    return out


#: Rows per block of the entrywise conjugation residual, which bounds its
#: temporaries.
_ROW_BLOCK = 4096

#: Tolerance of every check in solve_sign_gauge and is_sign_gauge.
_GAUGE_TOL = 1e-10


def _one_pattern(a: sparse.csr_matrix, *others: sparse.csr_matrix) -> None:
    """Raise FluxObstruction unless a is canonical (sorted rows, no repeated
    entries) and every other matrix has its index arrays."""
    if not (a.has_canonical_format
            and all(np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
                    for b in others)):
        raise FluxObstruction("operands do not share one canonical sparsity pattern")


def negative_envelope(H: SparseHermitian) -> SparseHermitian:
    """Replace every off-diagonal entry by -|entry|; keep the diagonal.

    The diagonal is gauge invariant, so this is the only candidate for a
    gauge-equivalent operator with non-positive off-diagonal entries. The
    result has H's pattern, which must be canonical, else FluxObstruction
    is raised.
    """
    m = H.mat
    _one_pattern(m)
    data = np.zeros(m.nnz, dtype=complex)  # -|entry| + 0j, written in place
    np.negative(np.abs(m.data, out=data.real), out=data.real)
    on = entry_rows(m.indptr) == m.indices
    data[on] = m.data[on]
    return _with_data(m, data)


def is_sign_gauge(phases: np.ndarray) -> bool:
    """True when every phase of a gauge is +-1 (real gauge), within _GAUGE_TOL."""
    return bool(np.abs(np.abs(phases.real) - 1.0).max() <= _GAUGE_TOL
                and np.abs(phases.imag).max() <= _GAUGE_TOL)


def conjugation_residual(phases: np.ndarray, H: SparseHermitian,
                         target: SparseHermitian) -> float:
    """max |g_i H_ij conj(g_j) - target_ij| over the entries, for the gauge
    g = phases, one block of rows at a time. The two operators must share
    one canonical pattern, else FluxObstruction is raised."""
    a, b = H.mat, target.mat
    _one_pattern(a, b)
    resid = 0.0
    for start in range(0, H.dim, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, H.dim)
        lo, hi = a.indptr[start], a.indptr[stop]
        rows = entry_rows(a.indptr[start:stop + 1] - lo) + start
        d = phases[rows] * a.data[lo:hi] * np.conj(phases[a.indices[lo:hi]]) - b.data[lo:hi]
        if len(d):
            resid = max(resid, float(np.abs(d).max()))
    return resid


def solve_sign_gauge(H: SparseHermitian, target: SparseHermitian) -> np.ndarray:
    """The gauge carrying H to target: unit-modulus phases g, one per basis
    state, with g_i H_ij conj(g_j) = target_ij.

    Phases are fixed along a breadth-first spanning tree of the connectivity
    graph (phase 1 at each component's smallest index) and every remaining
    edge is checked; a cycle carrying mismatched flux raises FluxObstruction,
    which certifies the two operators are not gauge equivalent. Requires
    one canonical pattern and matching entry moduli.
    """
    a, b = H.mat, target.mat
    _one_pattern(a, b)
    moduli = np.abs(a.data)
    gap = np.abs(b.data)
    gap -= moduli
    moduli_gap = float(np.abs(gap, out=gap).max()) if a.nnz else 0.0
    del gap
    if moduli_gap > _GAUGE_TOL:
        raise FluxObstruction(f"entry moduli differ by {moduli_gap:.3e}")
    diag_gap = float(np.abs(a.diagonal() - b.diagonal()).max())
    if diag_gap > _GAUGE_TOL:
        raise FluxObstruction(f"diagonals differ by {diag_gap:.3e}")

    from scipy.sparse import csgraph

    dim = H.dim
    scale = float(moduli.max()) if a.nnz else 1.0
    live = moduli > _GAUGE_TOL
    del moduli
    live &= entry_rows(a.indptr) != a.indices
    # the live entries as a graph; vertex dim is a hub, joined below to each
    # component's root, for one breadth-first search over all of them
    before = np.zeros(a.nnz + 1, dtype=a.indptr.dtype)  # live entries before each
    np.cumsum(live, out=before[1:])
    indptr = np.append(before[a.indptr], before[-1])
    del before
    edges = a.indices[live]
    del live
    labels = csgraph.connected_components(_graph(edges, indptr), directed=False)[1][:dim]
    _, roots = np.unique(labels, return_index=True)  # smallest index per component
    roots.sort()
    indptr[-1] += len(roots)
    hubbed = _graph(np.concatenate([edges, roots.astype(edges.dtype)]), indptr)
    del edges
    parent = csgraph.breadth_first_order(hubbed, dim, return_predecessors=True)[1][:dim]
    del hubbed
    # row j holds H[j, i]; along tree edge j -> i, g_i = conj(T[j,i]) / conj(H[j,i]) * g_j
    k = np.flatnonzero(parent[a.indices] == entry_rows(a.indptr))  # entries (parent[i], i)
    ratio = np.conj(b.data[k]) / np.conj(a.data[k])
    g = np.ones(dim, dtype=complex)
    g[a.indices[k]] = ratio / np.abs(ratio)
    up = np.where(parent != dim, parent, np.arange(dim))
    while not np.array_equal(up, up[up]):  # pointer doubling up to each root
        g, up = g * g[up], up[up]

    resid = conjugation_residual(g, H, target)
    if resid > _GAUGE_TOL * max(1.0, scale):
        raise FluxObstruction(
            f"cycle inconsistency: conjugation residual {resid:.3e} exceeds tolerance"
        )
    return g


def extend_ring(spec: ModelSpec) -> ModelSpec:
    """Periodically repeat the hoppings on a ring of 2L sites.

    The doubled ring carries twice the original flux. Requires U = V = 0, as
    in the doubling identity this feeds.
    """
    if spec.hardcore or any(u != 0.0 for u in spec.U):
        raise InteractionPresent("ring extension requires U = 0")
    if any(v != 0.0 for v in spec.V):
        raise PotentialPresent("ring extension requires V = 0")
    return validate(
        ModelSpec(
            L=spec.L * 2,
            N=min(spec.N * 2, 2 * spec.L * 2),
            hop_mag=spec.hop_mag * 2,
            hop_phase=spec.hop_phase * 2,
            V=(0.0,) * (spec.L * 2),
            U=(0.0,) * (spec.L * 2),
        )
    )
