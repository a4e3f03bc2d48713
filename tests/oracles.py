"""Independent oracles the tests check the package against.

DenseOracle is a from-scratch second implementation of the many-body
builder: spin-major mode order (all up modes before all down modes),
states as sorted tuples, fermion parities from list positions. It shares
no code or conventions with fluxring.operators beyond the physics, so
agreement between the two is evidence, not tautology.

hardcore_block_energies gives the ground energies of a hard-core Sz = 0
block from one-particle levels alone, each from its own L x L eigensolve,
with no call into fluxring's sectors, operators or spectra.

regauge and hermiticity_defect are reference checks on package objects
that several test modules share and the package itself never calls.
from_coo and total_spin_coo assemble operators through scipy's COO -> CSR
conversion, which sorts each row and sums repeated entries: the reference
that the package's CSR layouts are checked against bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import replace
from itertools import combinations

import numpy as np
from scipy import sparse

from fluxring.basis import mode
from fluxring.model import angle_dist, fold_angle


def fourier_levels(L: int, phi: float) -> np.ndarray:
    """One-particle levels of the uniform |t| = 1, V = 0 ring: 2cos((2pi k + phi)/L)."""
    return np.sort(2.0 * np.cos((phi + 2.0 * np.pi * np.arange(L)) / L))


def filled_sum(L: int, phi: float, K: int) -> float:
    return float(fourier_levels(L, phi)[:K].sum())


def uniform_slater_energy(L: int, phi: float, n_up: int, n_dn: int) -> float:
    """Free ground energy of a uniform ring at fixed (N_up, N_down)."""
    return filled_sum(L, phi, n_up) + filled_sum(L, phi, n_dn)


class DenseOracle:
    """Dense many-body matrices by direct operator application."""

    def __init__(self, L, amplitudes, V, U, hardcore=False):
        self.L = int(L)
        self.t = [complex(a) for a in amplitudes]
        self.V = [float(v) for v in V]
        self.U = None if hardcore else [float(u) for u in U]
        self.hardcore = hardcore

    def mode(self, x: int, sigma: int) -> int:
        return sigma * self.L + x

    def basis(self, n_up: int, n_dn: int) -> list[tuple[int, ...]]:
        states = []
        for ups in combinations(range(self.L), n_up):
            for dns in combinations(range(self.L), n_dn):
                if self.hardcore and set(ups) & set(dns):
                    continue
                modes = sorted([self.mode(x, 0) for x in ups]
                               + [self.mode(x, 1) for x in dns])
                states.append(tuple(modes))
        return sorted(states)

    @staticmethod
    def _annihilate(state, m):
        if m not in state:
            return None
        k = state.index(m)
        return state[:k] + state[k + 1:], -1 if k % 2 else 1

    @staticmethod
    def _create(state, m):
        if m in state:
            return None
        k = bisect_left(state, m)
        return state[:k] + (m,) + state[k:], -1 if k % 2 else 1

    def _apply_pair(self, state, m_create, m_destroy):
        r = self._annihilate(state, m_destroy)
        if r is None:
            return None
        st1, s1 = r
        r = self._create(st1, m_create)
        if r is None:
            return None
        st2, s2 = r
        return st2, s1 * s2

    def hamiltonian(self, n_up: int, n_dn: int) -> np.ndarray:
        basis = self.basis(n_up, n_dn)
        idx = {s: i for i, s in enumerate(basis)}
        dim = len(basis)
        H = np.zeros((dim, dim), dtype=complex)
        for j, st in enumerate(basis):
            for x in range(self.L):
                y = (x + 1) % self.L
                for sigma in (0, 1):
                    hops = (
                        (self.mode(y, sigma), self.mode(x, sigma), self.t[x]),
                        (self.mode(x, sigma), self.mode(y, sigma), np.conj(self.t[x])),
                    )
                    for a, b, amp in hops:
                        r = self._apply_pair(st, a, b)
                        if r is None:
                            continue
                        st2, sgn = r
                        i = idx.get(st2)
                        if i is not None:
                            H[i, j] += amp * sgn
            ups = {m for m in st if m < self.L}
            dns = {m - self.L for m in st if m >= self.L}
            d = sum(self.V[x] for x in ups) + sum(self.V[x] for x in dns)
            if self.U is not None:
                d += sum(self.U[x] for x in ups & dns)
            H[j, j] += d
        return H

    def total_spin(self, n_up: int, n_dn: int) -> np.ndarray:
        basis = self.basis(n_up, n_dn)
        idx = {s: i for i, s in enumerate(basis)}
        dim = len(basis)
        S2 = np.zeros((dim, dim), dtype=complex)
        sz = 0.5 * (n_up - n_dn)
        for j, st in enumerate(basis):
            S2[j, j] += sz * sz + sz
            for x in range(self.L):
                raised = self._apply_pair(st, self.mode(x, 0), self.mode(x, 1))
                if raised is None:
                    continue
                st1, s1 = raised
                for y in range(self.L):
                    lowered = self._apply_pair(st1, self.mode(y, 1), self.mode(y, 0))
                    if lowered is None:
                        continue
                    st2, s2 = lowered
                    i = idx.get(st2)
                    if i is not None:
                        S2[i, j] += s1 * s2
        return S2


def one_particle_levels(spec, phi: float) -> np.ndarray:
    """Levels of the one-particle ring of spec at total flux phi: |t_x| on
    bond x (sites x, x+1), exp(i phi) on the closing bond, V on the diagonal."""
    L = spec.L
    h = np.diag(np.asarray(spec.V, dtype=complex))
    for x in range(L):
        t = spec.hop_mag[x] * (np.exp(1j * phi) if x == L - 1 else 1.0)
        h[(x + 1) % L, x] += t
        h[x, (x + 1) % L] += np.conj(t)
    return np.linalg.eigvalsh(h)


def hardcore_block_energies(spec, period: int, phi: float) -> np.ndarray:
    """Ground energies of spinless spec.N-fermion rings at the fluxes
    phi + 2*pi*j/period, j < period: the sum of the N lowest one-particle
    levels at each. In Sz = 0 a hard-core block of necklace period p is
    unitarily equivalent to the direct sum of these p rings (the factorized
    U = infinity wave function: Ogata & Shiba, Phys. Rev. B 41, 2326
    (1990)), so the block's ground energy is their minimum."""
    return np.array([one_particle_levels(spec, phi + 2.0 * np.pi * j / period)[:spec.N].sum()
                     for j in range(period)])


def spectrum(matrix: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(matrix)


def regauge(spec, phases):
    """spec with its bond phases replaced by phases, which must carry the
    same flux mod 2*pi (to 1e-12): a pure gauge move."""
    assert angle_dist(fold_angle(math.fsum(phases)), spec.flux) <= 1e-12
    return replace(spec, hop_phase=tuple(phases))


def hermiticity_defect(H) -> float:
    """max |H - H^dagger| of a SparseHermitian."""
    d = H.mat - H.mat.getH()
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def from_coo(dim: int, rows, cols, vals) -> sparse.csr_matrix:
    """The dim x dim complex CSR matrix of the terms (rows[k], cols[k], vals[k]),
    through COO, with repeated entries summed and each row sorted."""
    m = sparse.coo_matrix(
        (np.asarray(vals, dtype=complex), (rows, cols)), shape=(dim, dim)
    ).tocsr()
    m.sum_duplicates()
    m.sort_indices()
    return m


def total_spin_coo(basis) -> sparse.csr_matrix:
    """S^2 = Sz^2 + Sz + S- S+ on a fluxring SectorBasis, with S- S+ the
    sparse product (S+)^dagger S+ of the one-site raising map into the
    two_sz + 2 sector, every diagonal entry stored."""
    dim = basis.dim
    sz = 0.5 * basis.two_sz
    src, images = zip(*(basis.moved(mode(x, 0), mode(x, 1)) for x in range(basis.L)))
    targets, target = np.unique(np.concatenate(images), return_inverse=True)
    raise_op = sparse.csr_matrix(
        (np.ones(len(target)), (target, np.concatenate(src))), shape=(len(targets), dim))
    lower_raise = (raise_op.T @ raise_op).tocoo()
    diag = np.arange(dim)
    return from_coo(dim, np.concatenate([diag, lower_raise.row]),
                    np.concatenate([diag, lower_raise.col]),
                    np.concatenate([np.full(dim, sz * sz + sz), lower_raise.data]))
