"""Occupation-number bases for (N, Sz) sectors and their hard-core block structure.

A configuration is an integer bitmask over 2L fermionic modes in site-major
order, up before down: mode(x, sigma) = 2*x + sigma with x in 0..L-1 and
sigma = 0 (up) / 1 (down). With this order a spin flip at a site touches
adjacent modes and carries no fermionic sign, and hop signs reduce to a
popcount over a contiguous mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .errors import BasisMismatch, EmptySector
from .model import ModelSpec


def mode(site: int, sigma: int) -> int:
    return 2 * site + sigma


def apply_hop(occ: int, m_to: int, m_from: int) -> tuple[int, int] | None:
    """Apply c+_{m_to} c_{m_from} to a configuration.

    Returns (new_occ, sign) or None when the move annihilates the state.
    The sign is (-1)**(number of occupied modes strictly between the two),
    the composition of the two Jordan-Wigner parities.
    """
    if not (occ >> m_from) & 1:
        return None
    cleared = occ ^ (1 << m_from)
    if (cleared >> m_to) & 1:
        return None
    s1 = (occ & ((1 << m_from) - 1)).bit_count()
    s2 = (cleared & ((1 << m_to) - 1)).bit_count()
    return cleared | (1 << m_to), -1 if (s1 + s2) & 1 else 1


def spin_word(occ: int, L: int) -> str:
    """Spins read along the ring in order of increasing occupied site.

    Only meaningful for hard-core configurations (one particle per site);
    'u'/'d' per occupied site.
    """
    out = []
    for x in range(L):
        up = (occ >> mode(x, 0)) & 1
        dn = (occ >> mode(x, 1)) & 1
        if up:
            out.append("u")
        if dn:
            out.append("d")
    return "".join(out)


@dataclass(eq=False)
class SectorBasis:
    """Canonically ordered list of configurations for fixed (N, 2Sz, hardcore)."""

    L: int
    N: int
    two_sz: int
    hardcore: bool
    states: tuple[int, ...]
    index: dict[int, int] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def n_up(self) -> int:
        return (self.N + self.two_sz) // 2

    @property
    def n_down(self) -> int:
        return (self.N - self.two_sz) // 2


def enumerate_sector(L: int, N: int, two_sz: int, hardcore: bool = False) -> SectorBasis:
    """Enumerate all configurations of the (N, Sz) sector in canonical order.

    Dimension is C(L, N_up) * C(L, N_down) for the free sector and
    C(L, N) * C(N, N_up) under the hard-core constraint.
    """
    if (N + two_sz) % 2 != 0 or abs(two_sz) > N:
        raise EmptySector(f"no states with N={N}, 2Sz={two_sz}")
    n_up = (N + two_sz) // 2
    n_dn = (N - two_sz) // 2
    if n_up > L or n_dn > L or (hardcore and N > L):
        raise EmptySector(f"no states with N={N}, 2Sz={two_sz} on L={L}"
                          + (" (hard-core)" if hardcore else ""))

    states = []
    for ups in combinations(range(L), n_up):
        up_mask = 0
        for x in ups:
            up_mask |= 1 << mode(x, 0)
        up_sites = set(ups)
        for dns in combinations(range(L), n_dn):
            if hardcore and up_sites.intersection(dns):
                continue
            occ = up_mask
            for x in dns:
                occ |= 1 << mode(x, 1)
            states.append(occ)
    states.sort()

    expected = comb(L, N) * comb(N, n_up) if hardcore else comb(L, n_up) * comb(L, n_dn)
    assert len(states) == expected
    return SectorBasis(L, N, two_sz, hardcore, tuple(states),
                       {s: i for i, s in enumerate(states)})


def necklace_period(word) -> int:
    """Minimal p > 0 such that the word is invariant under a p-fold cyclic shift.

    Always divides len(word).
    """
    w = tuple(word)
    n = len(w)
    if n == 0:
        raise ValueError("empty word")
    for p in range(1, n + 1):
        if n % p == 0 and w == w[p:] + w[:p]:
            return p
    return n


def _cyclic_representative(word: str) -> str:
    return min(word[k:] + word[:k] for k in range(len(word)))


@dataclass(frozen=True)
class NecklaceBlock:
    """One irreducible hard-core block, labeled by its spin-word cyclic class.

    In the Sz = 0 sector the period is always even; other sectors may
    produce odd periods (e.g. the fully polarized word has period 1).
    """

    period: int
    representative: str
    member_indices: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.member_indices)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def hopping_moves(spec: ModelSpec, basis: SectorBasis):
    """Yield (i, j, bond, direction, sign) for every hop connecting basis states.

    direction +1 means c+_{x+1} c_x on bond x (forward around the ring);
    -1 is the conjugate move. Both directions are generated so consumers
    can build exactly Hermitian matrices.
    """
    L = basis.L
    for i, occ in enumerate(basis.states):
        for x in range(L):
            y = (x + 1) % L
            for sigma in (0, 1):
                res = apply_hop(occ, mode(y, sigma), mode(x, sigma))
                if res is not None:
                    j = basis.index.get(res[0])
                    if j is not None:
                        yield i, j, x, +1, res[1]
                res = apply_hop(occ, mode(x, sigma), mode(y, sigma))
                if res is not None:
                    j = basis.index.get(res[0])
                    if j is not None:
                        yield i, j, x, -1, res[1]


def decompose_blocks(basis: SectorBasis, spec: ModelSpec) -> list[NecklaceBlock]:
    """Split a hard-core sector into connected components of the hopping graph.

    Components are found by union-find over explicitly generated hopping
    moves; the necklace period of each component's spin-word class is then
    computed and cross-checked against every member. Membership depends
    only on the sparsity pattern, so it is gauge invariant.
    """
    if not basis.hardcore:
        raise BasisMismatch("block decomposition is defined on hard-core sectors")
    if spec.L != basis.L or spec.N != basis.N:
        raise BasisMismatch(
            f"basis (L={basis.L}, N={basis.N}) does not match model (L={spec.L}, N={spec.N})"
        )
    uf = _UnionFind(basis.dim)
    for i, j, _bond, _direction, _sign in hopping_moves(spec, basis):
        uf.union(i, j)

    members: dict[int, list[int]] = {}
    for i in range(basis.dim):
        members.setdefault(uf.find(i), []).append(i)

    blocks = []
    for root in sorted(members):
        idx = members[root]
        words = {spin_word(basis.states[i], basis.L) for i in idx}
        reps = {_cyclic_representative(w) for w in words}
        assert len(reps) == 1, "hopping connected distinct cyclic classes"
        rep = reps.pop()
        blocks.append(NecklaceBlock(necklace_period(rep), rep, tuple(idx)))
    assert sum(b.dimension for b in blocks) == basis.dim
    return blocks
