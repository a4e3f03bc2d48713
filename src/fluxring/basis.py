"""Occupation-number bases for (N, Sz) sectors, their hopping table and
their hard-core block structure.

A configuration is an integer bitmask over 2L fermionic modes in site-major
order, up before down: mode(x, sigma) = 2*x + sigma with x in 0..L-1 and
sigma = 0 (up) / 1 (down). A basis holds its configurations as an ascending
uint64 array (`codes`) and finds one by binary search; the 64-bit codes
limit rings to 2L <= 64, and longer rings raise MethodLimit.

A hop c+_{m_to} c_{m_from} carries the sign (-1)**(occupied modes strictly
between the two), the parity of a popcount over a contiguous mask; a spin
flip at a site touches adjacent modes and carries no sign. The hopping
table (`SectorBasis.hops`) holds every nearest-neighbour hop between the
states of a basis, built once with array operations over all of them and
shared by every operator on the basis. So is its CSR layout
(`SectorBasis.layout`): the entry of each hop and of each diagonal term in
one int32 compressed-row pattern, on which every Hamiltonian of the basis
is a data array. Arrays shared this way are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np
from scipy import sparse

from .errors import BasisMismatch, EmptySector, MethodLimit

#: Largest ring whose 2L modes fit the uint64 configuration codes.
MAX_SITES = 32

#: The up mode, bit 2x, of every site x of a code.
UP_MODES = 0x5555555555555555

#: Most bytes the term list of a CSR layout, the layout and the complex
#: data of one operator on it may take together; SectorBasis.hops and
#: csr_layout refuse a larger sector with MethodLimit before they allocate.
#: The L=12 half-filled sector (11.2M moves, 12.0M entries) needs 396 MiB.
#: It admits fewer than 2**31 entries (16 bytes each), so layouts are int32.
MEMORY_BUDGET = 2**30


def mode(site: int, sigma: int) -> int:
    return 2 * site + sigma


@dataclass(frozen=True)
class HoppingTable:
    """Every hop between the states of one basis, both directions: entry k is
    <row| c+ c |col> = sign for the hop across bond (sites bond, bond + 1 mod
    L), forward (direction +1, c+_{x+1} c_x) or backward (-1)."""

    row: np.ndarray        # int32 target state index
    col: np.ndarray        # int32 source state index
    bond: np.ndarray       # int8
    direction: np.ndarray  # int8
    sign: np.ndarray       # int8


@dataclass(frozen=True)
class CSRLayout:
    """The compressed-row pattern of hop terms (row[k], col[k]) plus every
    diagonal entry (i, i), entries in (row, column) order: the order a COO
    assembly of the same terms leaves them in, since no (row, column) pair
    repeats. hop[k] is the entry of term k and diag[i] the entry of (i, i).
    The arrays are read-only, as every operator on the layout shares them.
    """

    indptr: np.ndarray
    indices: np.ndarray   # column of each entry
    hop: np.ndarray
    diag: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.indices)


def entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of each entry of a compressed-row pattern."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=indptr.dtype), np.diff(indptr))


def _graph(edges: np.ndarray, indptr: np.ndarray) -> sparse.csr_matrix:
    """The graph whose vertex i links to edges[indptr[i]:indptr[i + 1]]."""
    size = len(indptr) - 1
    return sparse.csr_matrix((np.ones(len(edges)), edges, indptr), shape=(size, size))


def check_budget(dim: int, hops: int) -> None:
    """Raise MethodLimit when `hops` terms, the layout of them plus the
    diagonal on `dim` states and one complex data array on it would exceed
    MEMORY_BUDGET. A term is counted at the 11 bytes of a hopping-table
    move, which bounds S^2's 8-byte (row, column) pairs as well."""
    nnz = hops + dim
    need = 11 * hops + 4 * (dim + 1 + nnz + hops + dim) + 16 * nnz
    if need > MEMORY_BUDGET:
        raise MethodLimit(f"{nnz} matrix entries need {need / 2**20:.0f} MiB for their "
                          f"terms, layout and one operator, over the "
                          f"{MEMORY_BUDGET / 2**20:.0f} MiB budget")


def csr_layout(dim: int, rows: np.ndarray, cols: np.ndarray) -> CSRLayout:
    """The CSRLayout of the terms (rows[k], cols[k]), k off the diagonal and
    no two alike, plus the dim diagonal entries, in int32. Refused by
    check_budget before anything is allocated."""
    check_budget(dim, len(rows))
    n = len(rows)
    key = rows.astype(np.int64)
    key *= dim
    key += cols
    order = np.argsort(key, kind="stable")  # hop tables are few runs sorted by row
    del key
    # a hop's entry: its rank among the hops, plus one diagonal per earlier
    # row and its own row's when it lies right of the diagonal
    hop = np.empty(n, dtype=np.int32)
    hop[order] = np.arange(n, dtype=np.int32)
    del order
    hop += rows
    hop += cols > rows
    filled = np.zeros(n + dim, dtype=bool)
    filled[hop] = True
    diag = np.flatnonzero(~filled).astype(np.int32)  # one gap per row, in row order
    del filled
    indices = np.empty(n + dim, dtype=np.int32)
    indices[hop] = cols
    indices[diag] = np.arange(dim, dtype=np.int32)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=dim) + 1, out=indptr[1:])
    for a in (indptr, indices, hop, diag):
        a.flags.writeable = False
    return CSRLayout(indptr, indices, hop, diag)


@dataclass(eq=False)
class SectorBasis:
    """Canonically ordered configurations for fixed (N, 2Sz, hardcore)."""

    L: int
    N: int
    two_sz: int
    hardcore: bool
    codes: np.ndarray = field(repr=False)  # ascending uint64

    @property
    def dim(self) -> int:
        return len(self.codes)

    @property
    def n_up(self) -> int:
        return (self.N + self.two_sz) // 2

    @property
    def n_down(self) -> int:
        return (self.N - self.two_sz) // 2

    def locate(self, codes: np.ndarray) -> np.ndarray:
        """Index of each configuration code in this basis, -1 where absent."""
        found = np.searchsorted(self.codes, codes)
        found[found == self.dim] = 0
        return np.where(self.codes[found] == codes, found, -1)

    @cached_property
    def hops(self) -> HoppingTable:
        """The hopping table of the basis, built on first use; over
        MEMORY_BUDGET, MethodLimit is raised before any of it exists."""
        check_budget(self.dim, self._move_count())
        codes, parts = self.codes, []
        for x in range(self.L):
            for sigma in (0, 1):
                a, b = mode(x, sigma), mode((x + 1) % self.L, sigma)
                between = (1 << max(a, b)) - (1 << (min(a, b) + 1))
                for direction, m_from, m_to in ((1, a, b), (-1, b, a)):
                    src, moved = self.moved(m_to, m_from)
                    dst = self.locate(moved)
                    hit = dst >= 0
                    odd = (np.bitwise_count(moved[hit] & between) & 1).astype(np.int8)
                    n = len(odd)
                    parts.append((dst[hit].astype(np.int32), src[hit].astype(np.int32),
                                  np.full(n, x, np.int8), np.full(n, direction, np.int8),
                                  1 - 2 * odd))
        columns = [np.concatenate(p) for p in zip(*parts)]
        for c in columns:
            c.flags.writeable = False
        return HoppingTable(*columns)

    def _move_count(self) -> int:
        """Length of the hopping table, from the sector alone: across each of
        2L directed bonds, C(L-2, n-1) placements of n particles of a kind (a
        spin, or all N hard-core) fill the source and leave the target empty,
        times the placements of the rest (the other spin, or the spin words)."""
        L = self.L
        kinds = ([(self.N, comb(self.N, self.n_up))] if self.hardcore else
                 [(self.n_up, comb(L, self.n_down)), (self.n_down, comb(L, self.n_up))])
        return 2 * L * sum(comb(L - 2, n - 1) * rest for n, rest in kinds if 0 < n < L)

    @cached_property
    def layout(self) -> CSRLayout:
        """The CSR layout of the hopping table and the diagonal, built on
        first use; every Hamiltonian on the basis stores its entries on it."""
        return csr_layout(self.dim, self.hops.row, self.hops.col)

    def moved(self, m_to: int, m_from: int) -> tuple[np.ndarray, np.ndarray]:
        """c+_{m_to} c_{m_from} on every state, sign aside: the indices of
        the states it does not annihilate and the codes of their images."""
        src = np.flatnonzero((self.codes >> m_from) & ~(self.codes >> m_to) & 1)
        return src, self.codes[src] ^ ((1 << m_from) | (1 << m_to))


def enumerate_sector(L: int, N: int, two_sz: int, hardcore: bool = False) -> SectorBasis:
    """Enumerate all configurations of the (N, Sz) sector in canonical order.

    Dimension is C(L, N_up) * C(L, N_down) for the free sector and
    C(L, N) * C(N, N_up) under the hard-core constraint.
    """
    if L > MAX_SITES:
        raise MethodLimit(f"L={L} exceeds {MAX_SITES} sites: 2L modes must fit 64-bit codes")
    if (N + two_sz) % 2 != 0 or abs(two_sz) > N:
        raise EmptySector(f"no states with N={N}, 2Sz={two_sz}")
    n_up = (N + two_sz) // 2
    n_dn = (N - two_sz) // 2
    if n_up > L or n_dn > L or (hardcore and N > L):
        raise EmptySector(f"no states with N={N}, 2Sz={two_sz} on L={L}"
                          + (" (hard-core)" if hardcore else ""))

    def subsets(n: int, k: int) -> np.ndarray:  # the k-subsets of range(n), as rows
        return np.array(list(combinations(range(n), k)), dtype=np.uint64).reshape(comb(n, k), k)

    def masks(bits: np.ndarray) -> np.ndarray:  # the code of each row of bits
        return np.bitwise_or.reduce(np.uint64(1) << bits, axis=1)

    if hardcore:  # C(L, N) site sets times C(N, n_up) spin words (bit j: particle j down)
        sites, words = subsets(L, N), masks(subsets(N, n_dn))
        codes = np.zeros((len(sites), len(words)), dtype=np.uint64)
        for j in range(N):
            codes |= np.uint64(1) << mode(sites[:, j, None], (words >> j) & 1)
    else:
        codes = masks(mode(subsets(L, n_up), 0))[:, None] | masks(mode(subsets(L, n_dn), 1))
    codes = np.sort(codes, axis=None)

    expected = comb(L, N) * comb(N, n_up) if hardcore else comb(L, n_up) * comb(L, n_dn)
    assert len(codes) == expected
    return SectorBasis(L, N, two_sz, hardcore, codes)


def necklace_period(word) -> int:
    """Minimal p > 0 such that the word is invariant under a p-fold cyclic shift.

    Always divides len(word); the empty word has period 1.
    """
    w = tuple(word)
    n = len(w)
    for p in range(1, n + 1):
        if n % p == 0 and w == w[p:] + w[:p]:
            return p
    return 1


@dataclass(frozen=True)
class NecklaceBlock:
    """One irreducible hard-core block, labeled by its spin-word cyclic class.

    In the Sz = 0 sector the period is always even, except for the empty
    word of N = 0 (period 1); other sectors may produce odd periods (e.g.
    the fully polarized word has period 1).
    """

    period: int
    representative: str
    member_indices: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.member_indices)


def _cyclic_classes(basis: SectorBasis) -> np.ndarray:
    """Per state, the least rotation of its spin word (the spins read along
    the ring in order of increasing occupied site) as an N-bit integer,
    'u' = 1, first letter most significant: integer order is string order,
    so this is the cyclic-class representative."""
    codes = basis.codes
    word = np.zeros(basis.dim, dtype=np.uint64)
    for x in range(basis.L):
        up = (codes >> mode(x, 0)) & 1
        occupied = up | ((codes >> mode(x, 1)) & 1)
        word = np.where(occupied == 1, (word << 1) | up, word)
    n, full = basis.N, (1 << basis.N) - 1
    least = word
    for k in range(1, n):
        least = np.minimum(least, ((word << k) | (word >> (n - k))) & full)
    return least


def decompose_blocks(basis: SectorBasis) -> list[NecklaceBlock]:
    """Split a hard-core sector into connected components of the hopping graph.

    Components of the basis layout, ordered by their smallest member; the
    spin-word cyclic class of every member is cross-checked to be the
    component's, whose necklace period labels it. Membership depends only
    on the sparsity pattern, so it is gauge invariant, and is read off the
    basis alone; a basis that is not hard-core raises BasisMismatch.
    """
    from scipy.sparse.csgraph import connected_components

    if not basis.hardcore:
        raise BasisMismatch("block decomposition is defined on hard-core sectors")
    layout = basis.layout
    _, labels = connected_components(_graph(layout.indices, layout.indptr), directed=False)
    _, first = np.unique(labels, return_index=True)
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    classes = _cyclic_classes(basis)

    blocks = []
    for root in np.sort(first):
        idx = members[labels[root]]
        assert np.all(classes[idx] == classes[root]), "hopping connected distinct cyclic classes"
        word = int(classes[root])
        rep = "".join("u" if (word >> k) & 1 else "d" for k in reversed(range(basis.N)))
        blocks.append(NecklaceBlock(necklace_period(rep), rep, tuple(idx.tolist())))
    assert sum(b.dimension for b in blocks) == basis.dim
    return blocks
