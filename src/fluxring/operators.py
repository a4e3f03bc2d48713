"""Sparse Hermitian operators on sector bases.

Hopping operators are views of the basis hopping table
(:attr:`fluxring.basis.SectorBasis.hops`), which holds the conjugate of
every move, so matrices are exactly Hermitian (zero defect, not merely
small). Fermionic signs follow the canonical mode order of
:mod:`fluxring.basis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .basis import SectorBasis, mode
from .errors import (
    BasisMismatch,
    FluxObstruction,
    InteractionPresent,
    PotentialPresent,
)
from .model import ModelSpec, fold_angle, validate


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


def _from_coo(dim: int, rows, cols, vals) -> SparseHermitian:
    m = sparse.coo_matrix(
        (np.asarray(vals, dtype=complex), (rows, cols)), shape=(dim, dim)
    ).tocsr()
    m.sum_duplicates()
    m.sort_indices()
    return SparseHermitian(m)


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
    P H P on the no-double-occupancy subspace.
    """
    _check_basis(spec, basis)
    hops = basis.hops
    t = spec.amplitudes()[hops.bond]
    amp = np.where(hops.direction > 0, t, np.conj(t))
    diag = _diagonal(spec, basis)
    on = np.flatnonzero(diag)
    return _from_coo(basis.dim, np.concatenate([hops.row, on]),
                     np.concatenate([hops.col, on]),
                     np.concatenate([hops.sign * amp, diag[on]]))


#: Windings of the terms that cross the last bond, in the order of
#: FluxFamily._layout's up and down positions.
_WINDINGS = np.array([1, -1], dtype=np.int8)


@dataclass(frozen=True)
class _CSRLayout:
    """The CSR pattern of a flux family and its entries at phi = 0.

    Entries are in (row, column) order with every diagonal entry stored,
    as the COO assembly of the same terms leaves them (no (row, col)
    repeats, so nothing is summed). up and down are the positions of the
    terms with winding +1 and -1.
    """

    indptr: np.ndarray
    indices: np.ndarray
    row: np.ndarray       # row of each entry
    data: np.ndarray      # complex; the winding entries are overwritten per phi
    up: np.ndarray
    down: np.ndarray
    base_up: np.ndarray
    base_down: np.ndarray


@dataclass(frozen=True)
class FluxFamily:
    """phi-parametrized Hamiltonian family in the canonical gauge.

    The hopping structure (indices, magnitudes, fermion signs, diagonal) is
    generated once, and so is its CSR pattern, on first evaluation; at each
    phi only the terms that cross the last bond pick up the phase
    exp(+-i phi). Used by flux scans to avoid re-walking the basis at every
    grid point.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    base: np.ndarray      # real: |t| * fermion sign
    winding: np.ndarray   # +1 / -1 for terms crossing the last bond, else 0
    diag: np.ndarray

    @cached_property
    def _layout(self) -> _CSRLayout:
        on = np.arange(self.dim)
        rows = np.concatenate([self.rows, on])
        cols = np.concatenate([self.cols, on])
        order = np.lexsort((cols, rows))          # CSR entry -> term
        entry = np.empty_like(order)              # term -> CSR entry
        entry[order] = np.arange(len(order))
        hop = entry[: len(self.rows)]
        index = np.int32 if len(order) < 2**31 else np.int64
        indptr = np.zeros(self.dim + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=self.dim), out=indptr[1:])
        up, down = self.winding > 0, self.winding < 0
        return _CSRLayout(indptr, cols[order].astype(index), rows[order],
                          np.concatenate([self.base, self.diag]).astype(complex)[order],
                          hop[up], hop[down], self.base[up], self.base[down])

    def _data(self, data: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """data with the winding +1 and -1 entries set to phase[0] and
        phase[1] times their base amplitudes."""
        layout = self._layout
        data[layout.up] = layout.base_up * phase[0]
        data[layout.down] = layout.base_down * phase[1]
        return data

    def _csr(self, data: np.ndarray) -> SparseHermitian:
        layout = self._layout
        return SparseHermitian(sparse.csr_matrix(
            (data, layout.indices, layout.indptr), shape=(self.dim, self.dim)))

    def dense(self, phi: float) -> np.ndarray:
        layout = self._layout
        h = np.zeros((self.dim, self.dim), dtype=complex)
        h[layout.row, layout.indices] = self._data(layout.data.copy(),
                                                   np.exp(1j * phi * _WINDINGS))
        return h

    def hamiltonian(self, phi: float) -> SparseHermitian:
        return self._csr(self._data(self._layout.data.copy(), np.exp(1j * phi * _WINDINGS)))

    @property
    def nnz(self) -> int:
        """Entries stored per evaluation, every diagonal entry included."""
        return len(self._layout.data)

    def stacked(self, angles) -> SparseHermitian:
        """The block-diagonal operator whose g-th block is hamiltonian(angles[g]).

        Each block stores its entries in the order hamiltonian stores them,
        so a matvec on the stacked vectors (block g at rows g*dim onward)
        is, block for block, hamiltonian(angles[g]).matvec, bit for bit.
        It holds len(angles) copies of the family's entries.
        """
        layout = self._layout
        count, nnz = len(angles), len(layout.data)
        data = np.tile(layout.data, (count, 1))
        for row, phi in zip(data, angles):
            self._data(row, np.exp(1j * phi * _WINDINGS))
        index = np.int32 if count * max(nnz, self.dim) < 2**31 else np.int64
        shift = np.arange(count, dtype=index)[:, None]
        indices = (layout.indices + shift * self.dim).ravel()
        indptr = np.append((layout.indptr[:-1] + shift * nnz).ravel(), index(count * nnz))
        size = count * self.dim
        return SparseHermitian(sparse.csr_matrix((data.ravel(), indices, indptr),
                                                 shape=(size, size)))

    def derivative(self, phi: float) -> SparseHermitian:
        """dH/dphi: i w exp(i w phi) times the base amplitude on the terms of
        winding w = +-1, zero on the rest of the same CSR pattern."""
        return self._csr(self._data(np.zeros_like(self._layout.data),
                                    1j * _WINDINGS * np.exp(1j * phi * _WINDINGS)))

    def restrict(self, indices) -> FluxFamily:
        """The family on a span of ascending state indices closed under
        hopping (a hard-core block); terms leaving the span are dropped."""
        idx = np.asarray(indices)
        pos = np.full(self.dim, -1, dtype=np.int32)
        pos[idx] = np.arange(len(idx), dtype=np.int32)
        keep = (pos[self.rows] >= 0) & (pos[self.cols] >= 0)
        return FluxFamily(len(idx), pos[self.rows[keep]], pos[self.cols[keep]],
                          self.base[keep], self.winding[keep], self.diag[idx])


def flux_family(spec: ModelSpec, basis: SectorBasis) -> FluxFamily:
    """Build the canonical-gauge flux family for a sector (phases discarded)."""
    _check_basis(spec, basis)
    hops = basis.hops
    winding = np.where(hops.bond == spec.L - 1, hops.direction, 0).astype(np.int8)
    return FluxFamily(basis.dim, hops.row, hops.col,
                      hops.sign * np.asarray(spec.hop_mag, dtype=float)[hops.bond],
                      winding, _diagonal(spec, basis))


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

    S- S+ = (S+)^dagger S+ is assembled from the one-site raising map into
    the two_sz + 2 sector. Commutes with every ring Hamiltonian on the same
    sector (spin-rotation invariance survives the hard-core projection).
    """
    dim = basis.dim
    sz = 0.5 * basis.two_sz
    src, images = zip(*(basis.moved(mode(x, 0), mode(x, 1)) for x in range(basis.L)))
    targets, target = np.unique(np.concatenate(images), return_inverse=True)
    raise_op = sparse.csr_matrix(
        (np.ones(len(target)), (target, np.concatenate(src))), shape=(len(targets), dim))
    lower_raise = (raise_op.T @ raise_op).tocoo()
    diag = np.arange(dim)
    return _from_coo(dim, np.concatenate([diag, lower_raise.row]),
                     np.concatenate([diag, lower_raise.col]),
                     np.concatenate([np.full(dim, sz * sz + sz), lower_raise.data]))


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


def negative_envelope(H: SparseHermitian) -> SparseHermitian:
    """Replace every off-diagonal entry by -|entry|; keep the diagonal.

    The diagonal is gauge invariant, so this is the only candidate for a
    gauge-equivalent operator with non-positive off-diagonal entries.
    """
    coo = H.mat.tocoo()
    vals = np.where(coo.row == coo.col, coo.data, -np.abs(coo.data))
    return _from_coo(H.dim, coo.row, coo.col, vals)


@dataclass(frozen=True)
class DiagonalGauge:
    """Diagonal unitary g acting by conjugation H -> g H g^{-1}."""

    phases: np.ndarray  # unit-modulus complex, one per basis state

    @property
    def dim(self) -> int:
        return len(self.phases)

    def is_sign_gauge(self, tol: float = 1e-10) -> bool:
        """True when every phase is +-1 (real gauge)."""
        return bool(np.abs(np.abs(self.phases.real) - 1.0).max() <= tol
                    and np.abs(self.phases.imag).max() <= tol)

    def apply(self, H: SparseHermitian) -> SparseHermitian:
        g = sparse.diags(self.phases)
        ginv = sparse.diags(np.conj(self.phases))
        return SparseHermitian((g @ H.mat @ ginv).tocsr())


def conjugation_residual(g: DiagonalGauge, H: SparseHermitian,
                         target: SparseHermitian) -> float:
    d = g.apply(H).mat - target.mat
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def solve_sign_gauge(H: SparseHermitian, target: SparseHermitian,
                     tol: float = 1e-10) -> DiagonalGauge:
    """Find the diagonal unitary g with g H g^{-1} = target.

    Phases are fixed along a breadth-first spanning tree of the connectivity
    graph (phase 1 at each component's smallest index) and every remaining
    edge is checked; a cycle carrying mismatched flux raises FluxObstruction,
    which certifies the two operators are not gauge equivalent. Requires
    matching sparsity patterns and entry moduli.
    """
    if H.dim != target.dim:
        raise FluxObstruction("operators act on different dimensions")
    a = H.mat.tocsr().copy()
    b = target.mat.tocsr().copy()
    a.sort_indices()
    b.sort_indices()
    if not (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)):
        raise FluxObstruction("sparsity patterns differ")
    moduli_gap = float(np.abs(np.abs(a.data) - np.abs(b.data)).max()) if a.nnz else 0.0
    if moduli_gap > tol:
        raise FluxObstruction(f"entry moduli differ by {moduli_gap:.3e}")
    diag_gap = float(np.abs(a.diagonal() - b.diagonal()).max())
    if diag_gap > tol:
        raise FluxObstruction(f"diagonals differ by {diag_gap:.3e}")

    from scipy.sparse import csgraph

    dim = H.dim
    rows = np.repeat(np.arange(dim), np.diff(a.indptr))
    live = (rows != a.indices) & (np.abs(a.data) > tol)
    shape = (dim + 1, dim + 1)  # vertex dim: a hub for one breadth-first search
    graph = sparse.csr_matrix((np.ones(live.sum()), (rows[live], a.indices[live])), shape=shape)
    labels = csgraph.connected_components(graph, directed=False)[1][:dim]
    _, roots = np.unique(labels, return_index=True)  # smallest index per component
    hub = sparse.csr_matrix((np.ones(len(roots)), (np.full(len(roots), dim), roots)), shape=shape)
    parent = csgraph.breadth_first_order(graph + hub, dim, return_predecessors=True)[1]
    parent = parent[:dim].astype(np.int64)
    node, tree = np.arange(dim), parent != dim
    # row j holds H[j, i]; along tree edge j -> i, g_i = conj(T[j,i]) / conj(H[j,i]) * g_j
    k = np.searchsorted(rows * dim + a.indices, parent[tree] * dim + node[tree])
    ratio = np.conj(b.data[k]) / np.conj(a.data[k])
    g = np.ones(dim, dtype=complex)
    g[tree] = ratio / np.abs(ratio)
    up = np.where(tree, parent, node)
    while not np.array_equal(up, up[up]):  # pointer doubling up to each root
        g, up = g * g[up], up[up]

    check = DiagonalGauge(g)
    resid = conjugation_residual(check, H, target)
    scale = float(np.abs(a.data).max()) if a.nnz else 1.0
    if resid > tol * max(1.0, scale):
        raise FluxObstruction(
            f"cycle inconsistency: conjugation residual {resid:.3e} exceeds tolerance"
        )
    return check


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
