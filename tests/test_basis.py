import math
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxring as fr
from fluxring.basis import mode
from fluxring.errors import EmptySector, MethodLimit


def apply_hop(occ: int, m_to: int, m_from: int) -> tuple[int, int] | None:
    """Apply c+_{m_to} c_{m_from} to a configuration, state by state.

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
    """Spins read along the ring in order of increasing occupied site,
    'u'/'d' per occupied site of a hard-core configuration."""
    out = []
    for x in range(L):
        if (occ >> mode(x, 0)) & 1:
            out.append("u")
        if (occ >> mode(x, 1)) & 1:
            out.append("d")
    return "".join(out)


def table_moves(basis):
    """(i, j, bond, direction, sign) for every hop from state i to state j,
    read from the hopping table of the basis."""
    t = basis.hops
    return list(zip(t.col.tolist(), t.row.tolist(), t.bond.tolist(),
                    t.direction.tolist(), t.sign.tolist()))


def test_sector_dimensions():
    assert fr.enumerate_sector(4, 2, 0).dim == 16
    assert fr.enumerate_sector(4, 2, 0, hardcore=True).dim == 12
    assert fr.enumerate_sector(7, 6, 0, hardcore=True).dim == comb(7, 6) * comb(6, 3)


def test_sector_counts_match_formulas():
    for L in (3, 4, 5):
        for N in range(0, 2 * L + 1):
            for two_sz in range(-N, N + 1, 2):
                n_up = (N + two_sz) // 2
                if n_up > L or N - n_up > L:
                    continue
                free = fr.enumerate_sector(L, N, two_sz)
                assert free.dim == comb(L, n_up) * comb(L, N - n_up)
                if N <= L:
                    hc = fr.enumerate_sector(L, N, two_sz, hardcore=True)
                    assert hc.dim == comb(L, N) * comb(N, n_up)


def test_empty_sector():
    with pytest.raises(EmptySector):
        fr.enumerate_sector(4, 2, 1)  # parity mismatch
    with pytest.raises(EmptySector):
        fr.enumerate_sector(4, 2, 4)  # |2Sz| > N
    with pytest.raises(EmptySector):
        fr.enumerate_sector(3, 4, 0, hardcore=True)


def test_states_sorted_and_indexed():
    basis = fr.enumerate_sector(5, 3, 1, hardcore=True)
    states = basis.codes.tolist()
    assert states == sorted(states)
    for i, s in enumerate(states):
        assert basis.locate(np.array([s], dtype=np.uint64)).tolist() == [i]
        assert s.bit_count() == 3


def test_necklace_period_examples():
    assert fr.necklace_period("udud") == 2
    assert fr.necklace_period("uudd") == 4
    assert fr.necklace_period("ududud") == 2
    assert fr.necklace_period("u") == 1
    assert fr.necklace_period("ud") == 2


@given(st.text(alphabet="ud", min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_necklace_period_properties(word):
    p = fr.necklace_period(word)
    assert len(word) % p == 0
    assert word[p:] + word[:p] == word
    # the period is a class invariant: every rotation has the same one
    for k in range(len(word)):
        assert fr.necklace_period(word[k:] + word[:k]) == p


def test_fermion_sign_hand_computed():
    # c+_2 c_0 with mode 1 occupied in between: one crossing, sign -1
    occ = (1 << 0) | (1 << 1)
    new, sign = apply_hop(occ, 2, 0)
    assert new == (1 << 1) | (1 << 2) and sign == -1
    # same move with nothing in between: sign +1
    occ = 1 << 0
    new, sign = apply_hop(occ, 2, 0)
    assert new == 1 << 2 and sign == +1
    # spin flip at one site touches adjacent modes: never a sign
    occ = (1 << 1) | (1 << 4)
    new, sign = apply_hop(occ, 0, 1)
    assert sign == +1
    # Pauli blocking and empty-source both kill the move
    assert apply_hop(0b11, 0, 1) is None
    assert apply_hop(0b10, 2, 0) is None


def test_single_block_l4():
    basis = fr.enumerate_sector(4, 2, 0, hardcore=True)
    blocks = fr.decompose_blocks(basis)
    assert len(blocks) == 1
    assert blocks[0].period == 2
    assert blocks[0].dimension == 12


def _cyclic_classes(word_len, n_up):
    """Independent necklace census: orbits of binary words under rotation."""
    seen, classes = set(), []
    for ups in combinations(range(word_len), n_up):
        word = "".join("u" if i in ups else "d" for i in range(word_len))
        if word in seen:
            continue
        orbit = {word[k:] + word[:k] for k in range(word_len)}
        seen |= orbit
        classes.append((min(orbit), len(orbit)))
    return classes


def test_blocks_l6_n4_match_necklace_census():
    basis = fr.enumerate_sector(6, 4, 0, hardcore=True)
    blocks = fr.decompose_blocks(basis)
    census = _cyclic_classes(4, 2)  # words of length N=4 with two ups
    assert len(blocks) == len(census) == 2
    got = sorted((b.representative, b.dimension) for b in blocks)
    want = sorted((rep, orbit * comb(6, 4)) for rep, orbit in census)
    assert got == want
    assert sorted(b.period for b in blocks) == [2, 4]
    assert all(b.period % 2 == 0 for b in blocks)  # Sz = 0 forces even periods


def test_blocks_polarized_sector_allows_odd_period():
    basis = fr.enumerate_sector(5, 2, 2, hardcore=True)  # word "uu"
    blocks = fr.decompose_blocks(basis)
    assert len(blocks) == 1
    assert blocks[0].period == 1
    assert blocks[0].dimension == basis.dim


@pytest.mark.parametrize("L,N", [(4, 2), (6, 4), (7, 6), (5, 4)])
def test_blocks_closed_under_hopping_and_partition(L, N):
    basis = fr.enumerate_sector(L, N, 0, hardcore=True)
    blocks = fr.decompose_blocks(basis)
    assert sum(b.dimension for b in blocks) == basis.dim
    owner = {}
    for k, b in enumerate(blocks):
        for i in b.member_indices:
            owner[i] = k
    for i, j, *_ in table_moves(basis):
        assert owner[i] == owner[j]
    # every member's spin word is a rotation of the block representative
    states = basis.codes.tolist()
    for b in blocks:
        for i in b.member_indices:
            w = spin_word(states[i], L)
            assert min(w[k:] + w[:k] for k in range(len(w))) == b.representative


def test_block_membership_gauge_invariant():
    # blocks are read off the basis alone: they are the connected components
    # of the Hamiltonian's entries in every gauge
    from scipy.sparse.csgraph import connected_components

    base = fr.make_spec(6, 4, U=fr.INFINITY)
    basis = fr.enumerate_sector(6, 4, 0, hardcore=True)
    blocks = fr.decompose_blocks(basis)
    rng = np.random.default_rng(5)
    moved = fr.make_spec(6, 4, base.hop_mag, rng.uniform(0, 2 * math.pi, 6), base.V,
                         fr.INFINITY)
    for spec in (base, moved):
        count, labels = connected_components(abs(fr.build_hamiltonian(spec, basis).mat),
                                              directed=False)
        assert count == len(blocks)
        for b in blocks:
            assert len(set(labels[list(b.member_indices)])) == 1


@pytest.mark.parametrize("L, N, two_sz", [
    (3, 0, 0), (4, 4, 4), (4, 4, -4), (5, 3, 1), (5, 3, -1), (6, 5, -3),
    (8, 6, 0), (10, 7, 1), (12, 6, -2)])
def test_hardcore_codes_are_the_filtered_free_product(L, N, two_sz):
    """The hard-core sector, built from site sets and spin words, equals the
    free sector with every doubly occupied configuration dropped."""
    free = fr.enumerate_sector(L, N, two_sz).codes
    double = np.any([(free >> mode(x, 0)) & (free >> mode(x, 1)) & 1 for x in range(L)], axis=0)
    basis = fr.enumerate_sector(L, N, two_sz, hardcore=True)
    assert basis.codes.dtype == np.uint64
    assert np.array_equal(basis.codes, free[~double])


@pytest.mark.parametrize("dim", [1, 2**20, 2**30, 2**31 - 1, 2**31])
def test_budget_refuses_every_sector_of_2_31_entries(dim):
    # so every layout the budget admits is indexed by int32
    with pytest.raises(MethodLimit, match=f"{2**31} matrix entries"):
        fr.basis.check_budget(dim, 2**31 - dim)


def test_ring_beyond_64_modes_rejected():
    with pytest.raises(MethodLimit, match="L=33 exceeds 32 sites"):
        fr.enumerate_sector(33, 1, 1)
    assert fr.enumerate_sector(32, 1, 1).dim == 32


def _walk_moves(basis):
    """Every hop between basis states, found state by state with apply_hop."""
    states = basis.codes.tolist()
    index = {s: i for i, s in enumerate(states)}
    moves = set()
    for i, occ in enumerate(states):
        for x in range(basis.L):
            y = (x + 1) % basis.L
            for sigma in (0, 1):
                for direction, m_to, m_from in ((1, mode(y, sigma), mode(x, sigma)),
                                                (-1, mode(x, sigma), mode(y, sigma))):
                    res = apply_hop(occ, m_to, m_from)
                    if res is not None and res[0] in index:
                        moves.add((i, index[res[0]], x, direction, res[1]))
    return moves


@st.composite
def hardcore_sectors(draw):
    L = draw(st.integers(3, 7))
    N = draw(st.integers(1, L))
    two_sz = draw(st.sampled_from(range(-N, N + 1, 2)))
    return L, N, two_sz


@given(hardcore_sectors())
@settings(max_examples=40, deadline=None)
def test_table_and_blocks_match_state_walk(sector):
    L, N, two_sz = sector
    basis = fr.enumerate_sector(L, N, two_sz, hardcore=True)
    walk = _walk_moves(basis)
    moves = table_moves(basis)
    assert len(moves) == len(walk) and set(moves) == walk

    parent = list(range(basis.dim))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j, *_ in walk:
        parent[find(i)] = find(j)
    components = {}
    for i in range(basis.dim):
        components.setdefault(find(i), []).append(i)
    want = sorted(tuple(c) for c in components.values())
    blocks = fr.decompose_blocks(basis)
    assert [b.member_indices for b in blocks] == want  # ordered by smallest member
    for b in blocks:
        w = spin_word(int(basis.codes[b.member_indices[0]]), L)
        assert b.representative == min(w[k:] + w[:k] for k in range(len(w)))


def test_empty_hardcore_sector_is_one_block():
    assert fr.necklace_period("") == 1
    basis = fr.enumerate_sector(4, 0, 0, hardcore=True)
    blocks = fr.decompose_blocks(basis)
    assert [(b.period, b.representative, b.member_indices) for b in blocks] == [(1, "", (0,))]



@pytest.mark.parametrize("L,N,two_sz", [(8, 6, 0), (9, 6, 2), (10, 7, 1), (12, 8, 0)])
def test_canonical_order_is_charge_then_rotation(L, N, two_sz):
    # a block of period p holds every charge configuration with each of the
    # p rotations of its word, listed by charge, then by the left rotation
    # that carries the word to the representative
    basis = fr.enumerate_sector(L, N, two_sz, hardcore=True)
    for b in fr.decompose_blocks(basis):
        assert sorted(b.canonical_indices) == list(b.member_indices)
        assert b.dimension == comb(L, N) * b.period
        keys = []
        for i in b.canonical_indices:
            code, w = int(basis.codes[i]), spin_word(int(basis.codes[i]), L)
            charge = sum(1 << x for x in range(L) if (code >> mode(x, 0)) & 3)
            keys.append((charge, next(k for k in range(N) if w[k:] + w[:k] == b.representative)))
        assert keys == sorted(set(keys))
