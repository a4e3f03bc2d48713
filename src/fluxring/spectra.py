"""Eigenvalue engines: ground states with degeneracy, lowest-level sums,
full spectra and log partition functions.

Ground states come from one of two solvers. The dense one diagonalizes
the densified matrix (LAPACK, lowest levels only when vectors are wanted).
The iterative one is a Lanczos iteration with a deterministic start
vector. A solve for the energy alone (no vectors, no spin operator,
max_degeneracy=0) runs the plain three-term recurrence, which keeps three
vectors. Every other solve runs full reorthogonalization, and resolves
degenerate ground levels by deflation: converged vectors are locked and
the iteration restarts in their orthogonal complement until the next
level clears the degeneracy gap.

ground(method="auto") picks between them by sector dimension, at the
crossover LANCZOS_CROSSOVER measured below: dense up to it, Lanczos above.
Between the crossover and DENSE_LIMIT a Lanczos attempt that does not
converge within about the cost of a dense solve, or whose deflation
saturates, falls back to dense, so auto returns what dense would. Above
DENSE_LIMIT nothing is densified and Lanczos failures raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySector,
    MultipletCut,
    NoConvergence,
    TooLargeForDense,
)
from .model import ModelSpec, fold_angle
from .operators import SparseHermitian, build_one_particle

#: Largest matrix ever densified: by full_spectrum and by ground's dense
#: path (method="dense" and the auto fallback).
DENSE_LIMIT = 2000

#: Dense/Lanczos crossover of ground(method="auto"): sectors up to this
#: dimension are solved dense, larger ones by Lanczos first. Measured on
#: 2 cores with 1 BLAS thread, best of 9 interleaved runs (3 above dimension
#: 1000), in ms, on random models (U = 3 unless hard-core). "recurrence"
#: and "Lanczos" are converged solves; "B steps" runs the recurrence and
#: "pass 50"/"pass B" one reorthogonalized pass for that many steps without
#: stopping, where B = min(600, 3*dim // 5) is the budget of an auto solve:
#:
#:                                 energy only                  vectors + S^2
#:    dim  sector               dense  recurrence  B steps    dense  Lanczos  pass 50  pass B
#:    100  L=5 N=4               0.95     0.78      1.01       1.33    3.18     1.59     1.87
#:    147  L=7 N=3 2Sz=1         2.00     0.84      1.64       2.64    4.07     1.59     3.19
#:    169  L=13 N=2              2.64     1.20      1.89       3.38    4.91     1.54     3.95
#:    225  L=6 N=4               6.50     1.04      3.35       7.06    4.62     1.79     6.48
#:    300  L=6 N=5 2Sz=1        11.65     1.11      5.38      13.14    5.04     1.86    12.16
#:    400  L=6 N=6              24.30     1.37      8.49      26.03    6.75     2.02    24.08
#:    560  hard-core L=8 N=6    64.54     2.12     16.93      69.22   27.72     2.83    84.79
#:    784  L=8 N=4             153.57     1.95     31.44     151.81   12.24     3.72   270.51
#:   1225  L=7 N=6             661.46     2.79     53.61     601.19   17.92     5.30   771.71
#:   1568  L=8 N=5 2Sz=1      1739.97     4.73     82.04    1444.28   31.03     7.95  1022.80
#:
#: Energy-only solves, the bulk of every flux scan, run the plain
#: recurrence (_lanczos_energy) and are cheaper than dense from dimension
#: 100 on. Solves with vectors need a reorthogonalized pass per ground
#: vector plus one to bound the degeneracy, and cross over near 220. One
#: constant serves both; between the two, the budget sends slow vector
#: solves back to dense. A step costs 30-40 us up to dimension 400, mostly
#: fixed Python overhead, so a pass of k steps costs nearly k times a short
#: one's step; B steps in one pass cost about one dense solve with vectors
#: up to dimension 400 and at most 1.8x it above, and a vector solve's
#: passes (two of 45-85 steps on these sectors) share B linearly. The
#: recurrence stops within B steps at a fraction of a dense eigvalsh.
LANCZOS_CROSSOVER = 160

#: Relative width of the ground-level window: eigenvalues within
#: GROUND_TOL * max(1, |E_min|) of E_min count as degenerate ground states.
GROUND_TOL = 1e-9

#: Seed for the deterministic Lanczos start vector.
LANCZOS_SEED = 0x5EED

#: Rows by which the Lanczos Krylov basis grows, in place, as a pass runs,
#: so that it never holds more than the rows used plus this many (a full
#: 600-row basis at dimension 63,504 would be 610 MB). Growing by doubling
#: instead raised the peak memory of verify_singlet at L=10 half filling,
#: whose passes stop after 75-90 steps, from 232 MB to 263 MB in place and
#: to 294 MB with a copy; growing by 32 kept it at 232 MB.
_KRYLOV_ROWS = 32


@dataclass(frozen=True)
class GroundInfo:
    """Lowest eigenvalue with its degeneracy, eigenvectors and spin content."""

    energy: float
    degeneracy: int
    gap: float
    vectors: np.ndarray | None          # (dim, k) orthonormal columns
    spin_content: tuple[float, ...] | None
    method: str

    def spins(self) -> set[float]:
        if self.spin_content is None:
            raise ValueError("ground state was computed without a spin operator")
        return set(self.spin_content)


@dataclass(frozen=True)
class FluxCurve:
    """A sampled map phi -> scalar on a uniform grid over [0, 2*pi)."""

    grid: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values differ in length")
        if len(self.grid) == 0 or self.grid[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(self.grid) <= 0) or self.grid[-1] >= 2 * math.pi:
            raise ValueError("grid must increase strictly within [0, 2*pi)")

    def minimum(self) -> tuple[float, float]:
        k = int(np.argmin(self.values))
        return float(self.grid[k]), float(self.values[k])


def _spin_from_s2(value: float, tol: float = 1e-8) -> float:
    """Invert s(s+1) = value onto the nearest (half-)integer spin."""
    s = 0.5 * (-1.0 + math.sqrt(max(0.0, 1.0 + 4.0 * value)))
    snapped = round(2.0 * s) / 2.0
    if abs(snapped * (snapped + 1.0) - value) > tol * max(1.0, abs(value)):
        raise ValueError(f"S^2 eigenvalue {value} is not of the form s(s+1)")
    return snapped


def _spin_content(vectors: np.ndarray, s2: SparseHermitian) -> tuple[float, ...]:
    """Diagonalize S^2 projected onto the span of the given columns."""
    block = vectors.conj().T @ s2.matvec(vectors)
    vals = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
    return tuple(sorted(_spin_from_s2(float(v)) for v in vals))


def ground(H: SparseHermitian, want_vectors: bool = True, max_degeneracy: int = 8,
           method: str = "auto", s2: SparseHermitian | None = None) -> GroundInfo:
    """Lowest eigenvalue of H with degeneracy counting.

    method is "dense", "lanczos" or "auto". Auto solves sectors up to
    LANCZOS_CROSSOVER dense and larger ones by Lanczos; inside DENSE_LIMIT
    it falls back to dense when Lanczos does not converge within a budget
    that costs about one dense solve, or when the deflation saturates
    (max_degeneracy > 0 and max_degeneracy + 1 vectors locked, so the
    degeneracy found is only a lower bound). GroundInfo.method names the
    solver whose answer is returned. The Lanczos path counts at most
    max_degeneracy + 1 ground vectors; max_degeneracy=0 asks for one ground
    vector, or with want_vectors=False for the energy alone (the plain
    recurrence), and then reports degeneracy 1.

    When s2 is given (and vectors are computed), the spin content of the
    ground eigenspace is obtained by diagonalizing the projected S^2. A
    Lanczos answer whose deflation saturated, with no dense fallback taken,
    raises MultipletCut instead: its vectors may span part of a multiplet.
    """
    dim = H.dim
    if dim < 1:
        raise EmptySector("operator has dimension 0")
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    want_vectors = want_vectors or s2 is not None
    fallback = method == "auto" and dim <= DENSE_LIMIT
    if method == "auto":
        method = "dense" if dim <= LANCZOS_CROSSOVER else "lanczos"

    if method == "lanczos":
        # 3*dim/5 iterations cost about one dense solve (see
        # LANCZOS_CROSSOVER), so a fallback at most about doubles its cost.
        budget = 3 * dim // 5 if fallback else None
        try:
            if not want_vectors and max_degeneracy == 0:
                e0, _ = _lanczos_energy(H, max_iter=600 if budget is None else min(600, budget))
                vectors, gap = None, math.inf
            else:
                # Vectors go to verifiers that judge residuals down to 1e-9
                # (spiral_state), so they are converged to a 1e-12 residual.
                e0, vectors, gap = _lanczos_ground(H, max_degeneracy, budget=budget,
                                                   resid_tol=1e-12 if want_vectors else 1e-8)
        except NoConvergence:
            if not fallback:
                raise
            method = "dense"
        else:
            deg = 1 if vectors is None else vectors.shape[1]
            if fallback and 0 < max_degeneracy < deg:
                method = "dense"
            elif s2 is not None and max_degeneracy < deg < dim:
                raise MultipletCut(
                    f"Lanczos locked {deg} ground vectors (max_degeneracy="
                    f"{max_degeneracy}) without clearing the ground level: the "
                    "multiplet may be cut, so its spin content is undefined")
            elif not want_vectors:
                vectors = None
    if method == "dense":
        e0, deg, gap, vectors = _dense_ground(H, want_vectors, max_degeneracy)

    spin = _spin_content(vectors, s2) if (s2 is not None and vectors is not None) else None
    return GroundInfo(e0, deg, gap, vectors, spin, method)


def _dense_ground(H: SparseHermitian, want_vectors: bool, max_degeneracy: int):
    """Energy, full degeneracy, gap and ground vectors of the densified H.

    With vectors, only the lowest max_degeneracy + 2 levels are computed,
    which costs about as much as eigvalsh; the full eigh (3.5x dearer at
    dimension 1225) runs only when all of them fall in the ground window.
    """
    from scipy.linalg import eigh

    dim = H.dim
    dense = _densify(H)
    if want_vectors:
        top = min(dim, max_degeneracy + 2)
        vals, vecs = eigh(dense, subset_by_index=(0, top - 1))
        if top < dim and vals[-1] <= vals[0] + GROUND_TOL * max(1.0, abs(vals[0])):
            vals, vecs = np.linalg.eigh(dense)
    else:
        vals, vecs = np.linalg.eigvalsh(dense), None
    e0 = float(vals[0])
    window = GROUND_TOL * max(1.0, abs(e0))
    deg = max(1, int(np.searchsorted(vals, e0 + window, side="right")))
    gap = float(vals[deg] - e0) if deg < len(vals) else math.inf
    vectors = vecs[:, :deg] if vecs is not None else None
    return e0, deg, gap, vectors


def _lanczos_pass(H: SparseHermitian, locked: np.ndarray | None,
                  value_tol: float = 1e-14, max_iter: int = 600, resid_tol: float = 1e-8,
                  gap_above: float = math.inf):
    """One deflated Lanczos run: lowest Ritz pair orthogonal to the locked rows,
    and the number of iterations it took.

    Full reorthogonalization against the whole Krylov basis and the locked
    set. It stops once the Ritz value stalls and the Ritz residual is at
    most resid_tol * max(1, |theta|); a Ritz value above gap_above only
    bounds the ground level from above, and 1e-8 suffices for it. The start
    vector is pseudo-random from a fixed seed, so repeated runs are
    bit-for-bit identical at a fixed thread count.
    """
    dim = H.dim
    n_locked = 0 if locked is None else locked.shape[0]
    rng = np.random.default_rng(LANCZOS_SEED + n_locked)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    budget = min(max_iter, dim - n_locked)
    space_limited = budget == dim - n_locked
    Q = np.empty((min(_KRYLOV_ROWS, budget), dim), dtype=complex)

    def orthogonalize(w, k):
        # two passes: classical Gram-Schmidt twice is numerically sufficient.
        # (B @ w.conj()).conj() equals B.conj() @ w without copying B.
        for _ in range(2):
            if locked is not None:
                w -= locked.T @ (locked @ w.conj()).conj()
            if k >= 0:
                w -= Q[: k + 1].T @ (Q[: k + 1] @ w.conj()).conj()
        return w

    v = orthogonalize(v, -1)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise NoConvergence("start vector lies entirely in the locked space")
    v /= nv

    alphas = np.empty(budget)
    betas = np.empty(budget)
    scale = 1.0
    theta_last = None
    for k in range(budget):
        if k == len(Q):  # in place; no view of Q outlives a step
            Q.resize((min(k + _KRYLOV_ROWS, budget), dim), refcheck=False)
        Q[k] = v
        w = H.matvec(v)
        a = float(np.vdot(v, w).real)
        alphas[k] = a
        scale = max(scale, abs(a))
        w -= a * v
        if k > 0:
            w -= betas[k - 1] * Q[k - 1]
        w = orthogonalize(w, k)
        b = float(np.linalg.norm(w))

        breakdown = b <= 1e-13 * scale
        if breakdown or k == budget - 1 or k % 5 == 4:
            theta, y = _lowest_ritz(alphas[: k + 1], betas[:k])
            resid = abs(b * y[-1])
            tol = 1e-8 if theta > gap_above else resid_tol
            stalled = (
                theta_last is not None
                and abs(theta - theta_last) <= value_tol * max(1.0, abs(theta))
                and resid <= tol * max(1.0, abs(theta))
            )
            if stalled or breakdown or (space_limited and k == budget - 1):
                vec = Q[: k + 1].T @ y
                vec = orthogonalize(vec, -1) if locked is not None else vec
                vec /= np.linalg.norm(vec)
                return theta, vec, k + 1
            if k == budget - 1:
                raise NoConvergence(
                    f"Lanczos exhausted {budget} iterations", residual=resid
                )
            theta_last = theta
        betas[k] = b
        v = w / b

    raise NoConvergence("Lanczos failed to produce a Ritz pair")


def _lanczos_energy(H: SparseHermitian, max_iter: int = 600, value_tol: float = 1e-14,
                    resid_tol: float = 1e-8) -> tuple[float, int]:
    """Lowest eigenvalue of H by the plain three-term Lanczos recurrence,
    and the number of iterations it took.

    No reorthogonalization and no Krylov basis: three vectors are kept.
    Rounding makes the Lanczos vectors lose orthogonality as Ritz values
    converge, which only adds copies of converged Ritz values to the
    tridiagonal matrix; the lowest Ritz value still converges to the lowest
    eigenvalue (Paige, J. Inst. Math. Appl. 18, 341 (1976)). Start vector,
    check schedule and stopping rules are those of _lanczos_pass; a run
    may go past dim iterations, since without reorthogonalization the
    Krylov space is never known to be exhausted short of a breakdown.
    """
    dim = H.dim
    rng = np.random.default_rng(LANCZOS_SEED)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    v_prev = None

    alphas = np.empty(max_iter)
    betas = np.empty(max_iter)
    scale = 1.0
    theta_last = None
    for k in range(max_iter):
        w = H.matvec(v)
        a = float(np.vdot(v, w).real)
        alphas[k] = a
        scale = max(scale, abs(a))
        w -= a * v
        if k > 0:
            w -= betas[k - 1] * v_prev
        b = float(np.linalg.norm(w))

        breakdown = b <= 1e-13 * scale
        if breakdown or k == max_iter - 1 or k % 5 == 4:
            theta, y = _lowest_ritz(alphas[: k + 1], betas[:k])
            resid = abs(b * y[-1])
            stalled = (
                theta_last is not None
                and abs(theta - theta_last) <= value_tol * max(1.0, abs(theta))
                and resid <= resid_tol * max(1.0, abs(theta))
            )
            if stalled or breakdown:
                return theta, k + 1
            if k == max_iter - 1:
                raise NoConvergence(f"Lanczos exhausted {max_iter} iterations",
                                    residual=resid)
            theta_last = theta
        betas[k] = b
        w /= b
        v_prev, v = v, w

    raise NoConvergence("Lanczos failed to produce a Ritz value")


def _lowest_ritz(d: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the real symmetric tridiagonal matrix with
    diagonal d and off-diagonal e.

    LAPACK dstebz (bisection, block order) then dstein (inverse
    iteration): the calls scipy.linalg.eigh_tridiagonal(select="i") makes,
    with the same 1 x 1 shortcut, bit for bit, without its argument checks.
    """
    if len(d) == 1:
        return float(d[0]), np.ones(1)
    from scipy.linalg.lapack import dstebz, dstein

    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        y, info = dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise NoConvergence(f"LAPACK tridiagonal eigensolver returned info={info}")
    return float(w[0]), y[:, 0]


def _lanczos_ground(H: SparseHermitian, max_degeneracy: int, budget: int | None = None,
                    resid_tol: float = 1e-8):
    """Ground energy, ground vectors and gap via deflated Lanczos passes.

    After each converged vector the iteration restarts in the orthogonal
    complement; the loop stops once the next level clears the degeneracy
    window (or max_degeneracy + 1 vectors are locked, meaning the reported
    degeneracy is a lower bound). Each ground vector is converged to a
    residual of resid_tol * max(1, |E|).

    budget, when given, caps the iterations of all passes together;
    NoConvergence is raised beyond it. Most of a step's cost is fixed
    overhead, not the reorthogonalization that grows with the pass length
    (see LANCZOS_CROSSOVER), so the passes share the budget linearly.
    """
    locked: list[np.ndarray] = []
    left = budget
    e0 = None
    cut = gap = math.inf
    for _ in range(max_degeneracy + 1):
        if len(locked) >= H.dim:
            break
        max_iter = 600 if left is None else min(600, left)
        if max_iter < 1:
            raise NoConvergence(f"Lanczos budget of {budget} iterations spent "
                                f"after {len(locked)} locked vectors")
        stack = np.vstack(locked) if locked else None
        theta, vec, steps = _lanczos_pass(H, stack, max_iter=max_iter,
                                          resid_tol=resid_tol, gap_above=cut)
        if left is not None:
            left -= steps
        if e0 is None:
            e0 = theta
            cut = e0 + GROUND_TOL * max(1.0, abs(e0))
        elif theta > cut:
            gap = theta - e0
            break
        locked.append(vec)
    vectors = np.column_stack(locked) if locked else None
    return float(e0), vectors, float(gap)


def lowest_sum(spec: ModelSpec, K: int, phi: float) -> float:
    """Sum of the K lowest one-particle eigenvalues at total flux phi."""
    if K < 0 or K > spec.L:
        raise ValueError(f"K={K} outside [0, L={spec.L}]")
    if K == 0:
        return 0.0
    vals = np.linalg.eigvalsh(build_one_particle(spec, phi=fold_angle(phi)))
    return float(vals[:K].sum())


def _densify(H: SparseHermitian) -> np.ndarray:
    if H.dim > DENSE_LIMIT:
        raise TooLargeForDense(f"dim {H.dim} exceeds dense limit {DENSE_LIMIT}")
    return H.to_dense()


def full_spectrum(H: SparseHermitian) -> np.ndarray:
    """All eigenvalues, ascending. Dense only."""
    return np.linalg.eigvalsh(_densify(H))


def log_partition_sweep(hamiltonians, betas) -> np.ndarray:
    """log Tr exp(-beta H), one row per beta and one column per operator,
    evaluated as -beta*E_min + log sum exp(-beta (E - E_min)).

    Each operator is diagonalized once and its spectrum serves every beta.
    The shift keeps the sum representable at any beta >= 0.
    """
    if any(beta < 0 for beta in betas):
        raise ValueError("beta must be non-negative")
    columns = []
    for H in hamiltonians:
        vals = full_spectrum(H)
        columns.append([float(-beta * vals[0] + math.log(np.exp(-beta * (vals - vals[0])).sum()))
                        for beta in betas])
    return np.reshape(columns, (len(columns), len(betas))).T
