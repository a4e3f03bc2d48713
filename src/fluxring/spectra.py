"""Eigenvalue engines: ground states with degeneracy, lowest-level sums,
full spectra and log partition functions.

Ground states come from one of two solvers. The dense one diagonalizes
the densified matrix (LAPACK, lowest levels only when vectors are wanted).
The iterative one is a Lanczos iteration with a deterministic start
vector. A solve for the energy alone (no vectors, no spin operator,
max_degeneracy=0) runs the plain three-term recurrence, which keeps three
vectors; _ground_energies runs it for a whole flux grid at once, one column
per angle, and ground's energy-only solve is its batch of one; each column
is checked on its own schedule, sparser while its lowest Ritz value still
moves far. Every other solve runs full reorthogonalization, and resolves
degenerate ground levels by deflation: converged vectors are locked and the
iteration restarts in their orthogonal complement until the next level
clears the degeneracy gap. Both compute a Ritz vector only at a check that
can stop: one whose Ritz value has stalled, a breakdown, or the end of the
budget.

method="auto" picks between them by sector dimension, dense up to a
crossover and Lanczos above, at crossovers measured below: one for
energy-only solves, one for a single ground vector and one for solves that
count the degeneracy or project S^2. Between the crossover and DENSE_LIMIT
a Lanczos attempt that does not converge within about the cost of a dense
solve, or whose deflation saturates, falls back to dense, so auto returns
what dense would. Above DENSE_LIMIT nothing is densified and Lanczos
failures raise.
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
from .operators import FluxFamily, SparseHermitian, build_one_particle

#: Largest matrix ever densified: by full_spectrum and by ground's dense
#: path (method="dense" and the auto fallback).
DENSE_LIMIT = 2000

#: Dense/Lanczos crossovers of method="auto": sectors up to a crossover
#: are solved dense, larger ones by Lanczos first. Where Lanczos turns
#: cheaper depends on how much of it a solve needs, so each kind of solve
#: has its own. Measured on 2 cores with 1 BLAS thread, in ms, on random
#: models (U = 3 unless hard-core), Lanczos under auto with its budget and
#: fallback.
#:
#: Energy only (ENERGY_CROSSOVER): a scan of 64 angles, dense per angle
#: against _ground_energies, and one solve of each; best of 7 interleaved
#: runs, median over 5 draws (best of 3 and 2 draws at 400 and 1225), with
#: the per-column check schedule. The machine ran about twice as slow as
#: for the vector table below (dense at 1225 took 25.5 s there); the
#: ratios are what count. Below dimension about 60 the recurrence needs
#: more steps than its budget of 3*dim/5 and every angle falls back; at 64
#: every angle did on 1 of 5 draws (3x the dense loop), and from 78 up the
#: batch won 3x or more on every draw. One solve alone pays the per-step
#: overhead a batch shares, so it turns cheaper only between 147 and 168;
#: energy-only solves outside scans are rare, and keeping one crossover
#: keeps an angle's energy the same in a scan and alone.
#:
#:                                  64 angles               one angle
#:    dim  sector                dense      batch       dense  recurrence
#:     36  L=6 N=2                11.0       16.7        0.15     1.46
#:     55  L=11 N=2 2Sz=2         18.0       33.4        0.37     2.46
#:     64  L=8 N=2                27.7       13.0        0.57     2.14
#:     78  L=13 N=2 2Sz=2         47.8       15.8        0.70     1.59
#:    100  L=5 N=4                76.2       19.4        1.18     2.04
#:    147  L=7 N=3 2Sz=1         174.5       22.6        2.28     2.32
#:    168  hard-core L=8 N=6     262.2       39.9        3.16     2.78
#:    225  L=6 N=4               552.8       44.5        6.55     2.52
#:    400  L=6 N=6              2521.6       69.6       39.35     3.50
#:   1225  L=7 N=6             50049.7      195.6      619.40     3.58
ENERGY_CROSSOVER = 72

#: With vectors, mean over 5 draws of the best of 5 runs: one ground
#: vector (max_degeneracy=0, no S^2; LANCZOS_CROSSOVER), one
#: reorthogonalized pass; and a counted degeneracy with S^2 (the default
#: max_degeneracy=8; DEFLATION_CROSSOVER), which needs a pass per ground
#: vector plus one to see the gap, and whose budget ran out on the draws
#: counted, each then solved twice:
#:
#:                             one vector         S^2, degeneracy counted
#:    dim  sector            dense  Lanczos     dense  Lanczos  fallbacks
#:    100  L=5 N=4            0.55    0.96       0.88    2.34      5/5
#:    147  L=7 N=3 2Sz=1      1.39    1.34       1.86    4.31      5/5
#:    169  L=13 N=2           2.23    2.02       2.79    6.01      5/5
#:    196  L=14 N=2           3.19    2.30       3.72    5.34      2/5
#:    225  L=15 N=2           4.15    2.19       4.73    6.18      2/5
#:    225  L=6 N=4            4.03    1.42       4.61    3.15      0/5
#:    256  L=16 N=2           5.43    2.35       6.12    5.75      1/5
#:    300  L=6 N=5 2Sz=1      7.96    1.55       8.74    3.54      0/5
#:    400  L=6 N=6           16.90    1.77      17.95    4.03      0/5
#:
#: The budget, min(600, 3*dim // 5) steps for all passes of a solve
#: together, costs about one dense solve: a step costs 30-40 us up to
#: dimension 400, mostly fixed Python overhead.
LANCZOS_CROSSOVER = 160
DEFLATION_CROSSOVER = 220

#: Matrix entries a batch of _ground_energies holds at most: about 640 kB
#: with their column indices, at least one angle. Twice as many sped the
#: block lemma at hard-core L=8 N=6 up by 3% and raised the peak memory of
#: verify_even at L <= 6 by 1.3 MB, eight times as many by 8% and 3.1 MB.
_STACK_ENTRIES = 2**15

#: Check schedule of _lanczos_energies, per column: its first check after
#: _CHECK_FIRST steps, and each next one after the steps of the first row
#: whose bound the lowest Ritz value's move since the previous check
#: exceeds, relative to max(1, |theta|) (the first check counts as a large
#: move). A check costs a dstebz call, 33 us at 70 steps, against a few us
#: for a column step at dimension 168. Measured per column on the block
#: lemma of hard-core L=8 N=6 (six models, blocks of 56 and 168, 90
#: angles) and on verify_even at L <= 6 (63 scans of 64 angles), with the
#: median of 15 interleaved runs of their recurrences, in ms (2 cores, 1
#: BLAS thread); no column ran out of its budget:
#:
#:                               block lemma              verify_even
#:    steps after a check   checks  steps    ms     checks  steps    ms
#:    5 always               14.97  74.86  1405       8.17  38.68  1060
#:    15/10/5 at 1e-4, 1e-8   6.95  79.59  1208       4.70  45.04  1158
#:    20/10/5 at 1e-4, 1e-8   5.88  83.33  1210       4.28  50.62  1219
#:    15/10/5 at 1e-3, 1e-6   7.35  76.48  1133       4.71  43.00   964
#:    15/10/5 at 1e-3, 1e-5   7.64  75.75  1107       4.71  42.45   949
#:    10/5 at 1e-6            8.82  75.92     -       5.58  39.89     -
#:
#: The last two timed rows tie within the spread (an earlier round of 15
#: runs put 1e-3, 1e-6 ahead on both). A first check after 10 steps
#: instead of 5 saved 0.5 checks and cost 0.1 steps on the block lemma,
#: and saved 0.3 checks and cost 2.6 steps on verify_even (with 15/10/5 at
#: 1e-4, 1e-8).
_CHECK_FIRST = 5
_CHECK_SCHEDULE = ((1e-3, 15), (1e-6, 10), (-math.inf, 5))

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

    method is "dense", "lanczos" or "auto". Auto solves sectors up to a
    crossover dense and larger ones by Lanczos: ENERGY_CROSSOVER for the
    energy alone, LANCZOS_CROSSOVER for one ground vector and
    DEFLATION_CROSSOVER when the degeneracy is counted (max_degeneracy > 0)
    or s2 is given. Inside DENSE_LIMIT it falls back to dense when Lanczos
    does not converge within a budget that costs about one dense solve, or
    when the deflation saturates (max_degeneracy > 0 and max_degeneracy + 1
    vectors locked, so the degeneracy found is only a lower bound).
    GroundInfo.method names the solver whose answer is returned. The
    Lanczos path counts at most max_degeneracy + 1 ground vectors;
    max_degeneracy=0 asks for one ground vector, or with want_vectors=False
    for the energy alone (the plain recurrence, the batch of one of
    _ground_energies), and then reports degeneracy 1.

    When s2 is given (and vectors are computed), the spin content of the
    ground eigenspace is obtained by diagonalizing the projected S^2. A
    Lanczos answer whose deflation saturated, with no dense fallback taken,
    raises MultipletCut instead: its vectors may span part of a multiplet.
    """
    dim = H.dim
    if dim < 1:
        raise EmptySector("operator has dimension 0")
    want_vectors = want_vectors or s2 is not None
    if not want_vectors and max_degeneracy == 0:
        return _ground_energy(H, method)
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    fallback = method == "auto" and dim <= DENSE_LIMIT
    if method == "auto":
        counted = max_degeneracy > 0 or s2 is not None
        crossover = DEFLATION_CROSSOVER if counted else LANCZOS_CROSSOVER
        method = "dense" if dim <= min(crossover, DENSE_LIMIT) else "lanczos"

    if method == "lanczos":
        # 3*dim/5 iterations cost about one dense solve (see
        # LANCZOS_CROSSOVER), so a fallback at most about doubles its cost.
        budget = 3 * dim // 5 if fallback else None
        try:
            # Vectors go to verifiers that judge residuals down to 1e-9
            # (spiral_state), so they are converged to a 1e-12 residual.
            e0, vectors, gap = _lanczos_ground(H, max_degeneracy, budget=budget,
                                               resid_tol=1e-12 if want_vectors else 1e-8)
        except NoConvergence:
            if not fallback:
                raise
            method = "dense"
        else:
            deg = vectors.shape[1]
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


def _ground_energy(H: SparseHermitian, method: str) -> GroundInfo:
    """The energy-only solve of ground: the batch of one of _ground_energies.

    The recurrence reports degeneracy 1 and an infinite gap; the dense path
    (chosen, or the auto fallback) counts the ground level and its gap.
    """
    method, max_iter, fallback = _energy_plan(H.dim, method)
    if method == "lanczos":
        (e0,), _, (resid,) = _lanczos_energies(lambda cols: H, H.dim, 1, max_iter)
        if not math.isnan(e0):
            return GroundInfo(float(e0), 1, math.inf, None, None, "lanczos")
        if not fallback:
            raise NoConvergence(f"Lanczos exhausted {max_iter} iterations",
                                residual=float(resid))
    e0, deg, gap, _ = _dense_ground(H, False, 0)
    return GroundInfo(e0, deg, gap, None, None, "dense")


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
        last = k == budget - 1
        if breakdown or last or k % 5 == 4:
            d, e = alphas[: k + 1], betas[:k]
            theta, blocks = _lowest_ritz_value(d, e)
            held = (theta_last is not None
                    and abs(theta - theta_last) <= value_tol * max(1.0, abs(theta)))
            # the vector only where the residual test is reached or it is returned
            if held or breakdown or last:
                y = _lowest_ritz_vector(d, e, blocks)
                resid = abs(b * y[-1])
                tol = 1e-8 if theta > gap_above else resid_tol
                stalled = held and resid <= tol * max(1.0, abs(theta))
                if stalled or breakdown or (space_limited and last):
                    vec = Q[: k + 1].T @ y
                    vec = orthogonalize(vec, -1) if locked is not None else vec
                    vec /= np.linalg.norm(vec)
                    return theta, vec, k + 1
                if last:
                    raise NoConvergence(
                        f"Lanczos exhausted {budget} iterations", residual=resid
                    )
            theta_last = theta
        betas[k] = b
        v = w / b

    raise NoConvergence("Lanczos failed to produce a Ritz pair")


def _lanczos_energies(stack, dim: int, count: int, max_iter: int = 600,
                      value_tol: float = 1e-14, resid_tol: float = 1e-8):
    """Lowest eigenvalues of count Hermitian operators of dimension dim by
    the plain three-term Lanczos recurrence, run on all of them at once;
    returns (energies, steps, residuals) with one entry per operator.

    stack(cols) is the block-diagonal operator whose blocks are the
    operators numbered cols, in that order; each step applies it once to
    the batch's vectors, stacked as the rows of a (len(cols), dim) array. A
    column that stops stays in the batch with its vectors zeroed; once a
    quarter of the batch has stopped, the batch drops them and stack is
    called again for the rest. An energy that does not converge within
    max_iter steps is NaN, with the residual of its last check.

    No reorthogonalization and no Krylov basis: three vectors per column.
    Rounding makes the Lanczos vectors lose orthogonality as Ritz values
    converge, which only adds copies of converged Ritz values to the
    tridiagonal matrix; the lowest Ritz value still converges to the lowest
    eigenvalue (Paige, J. Inst. Math. Appl. 18, 341 (1976)). Start vector
    and stopping rule are those of _lanczos_pass, per column: the Ritz
    value has stalled since the previous check, and then its Ritz residual
    is small. The checks come on each column's own schedule
    (_CHECK_SCHEDULE: sparser while its Ritz value still moves far), plus
    at a breakdown and at the last step, and the Ritz vector's last
    component is computed only where the residual test is reached or
    reported. A run may go past dim steps, since without
    reorthogonalization the Krylov space is never known to be exhausted
    short of a breakdown.

    Every operation on the stack acts on each row alone: a block of the
    operator, real elementwise arithmetic, or a pairwise sum along the row,
    and a column's schedule reads only its own Ritz values.
    So a column's energy is the same, bit for bit, in a batch of any size.
    """
    rng = np.random.default_rng(LANCZOS_SEED)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    start /= np.linalg.norm(start)

    energies = np.full(count, np.nan)
    residuals = np.full(count, np.nan)
    steps = np.zeros(count, dtype=int)
    cols = np.arange(count)
    op = stack(cols)
    v, v_prev = np.tile(start, (count, 1)), None
    alphas = np.empty((count, max_iter))
    betas = np.empty((count, max_iter))
    scale = np.ones(count)
    theta_last = np.full(count, np.nan)          # NaN: no check yet
    due = np.full(count, _CHECK_FIRST - 1)       # step index of each column's next check
    live = np.ones(count, dtype=bool)            # stopped columns stay, zeroed, until compacted
    stopped = 0
    for k in range(max_iter):
        w = op.matvec(v.ravel()).reshape(v.shape)
        re_v, re_w = v.view(float), w.view(float)  # (columns, 2*dim) real views
        a = np.add.reduce(re_v * re_w, axis=1)
        alphas[:, k] = a
        np.maximum(scale, np.abs(a), out=scale)
        re_w -= re_v * a[:, None]
        if k > 0:
            re_w -= v_prev.view(float) * betas[:, k - 1, None]
        b = np.sqrt(np.add.reduce(re_w * re_w, axis=1))
        betas[:, k] = b

        breakdown = b <= 1e-13 * scale           # never on a stopped column: its scale is NaN
        last = k == max_iter - 1
        for j in np.flatnonzero(live if last else breakdown | (due == k)):
            d, e = alphas[j, : k + 1], betas[j, :k]
            theta, blocks = _lowest_ritz_value(d, e)
            rel = max(1.0, abs(theta))
            move = abs(theta - theta_last[j])   # NaN at the first check
            held = move <= value_tol * rel
            converged = breakdown[j]
            # the vector only where the residual test is reached or reported
            if not converged and (held or last):
                resid = abs(b[j] * _lowest_ritz_vector(d, e, blocks)[-1])
                converged = held and resid <= resid_tol * rel
                if not converged and last:
                    residuals[cols[j]] = resid
            if converged:
                energies[cols[j]] = theta
            elif not last:
                theta_last[j] = theta
                due[j] = k + next(gap for bound, gap in _CHECK_SCHEDULE if not move <= bound * rel)
                continue
            steps[cols[j]] = k + 1
            live[j], due[j], scale[j] = False, -1, np.nan
            v[j] = w[j] = 0.0
            stopped += 1
        if stopped == len(cols):
            break
        if 4 * stopped >= len(cols):
            cols, v, w, b = cols[live], v[live], w[live], b[live]
            v_prev = None if v_prev is None else v_prev[live]
            alphas, betas = alphas[live], betas[live]
            scale, theta_last, due = scale[live], theta_last[live], due[live]
            live, stopped = live[live], 0
            op = stack(cols)
        elif stopped:
            b[~live] = 1.0                       # their rows are zero
        re_w = w.view(float)
        re_w /= b[:, None]
        v_prev, v = v, w
    return energies, steps, residuals


def _energy_plan(dim: int, method: str) -> tuple[str, int, bool]:
    """Solver of an energy-only solve at dimension dim: "dense" or
    "lanczos", the recurrence's step budget, and whether an energy that
    exhausts it falls back to dense (auto within DENSE_LIMIT, where 3*dim/5
    steps cost about one dense solve, so a fallback at most about doubles
    the cost)."""
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    fallback = method == "auto" and dim <= DENSE_LIMIT
    if method == "auto":
        method = "dense" if dim <= min(ENERGY_CROSSOVER, DENSE_LIMIT) else "lanczos"
    return method, min(600, 3 * dim // 5) if fallback else 600, fallback


def _ground_energies(family: FluxFamily, angles, method: str = "auto") -> np.ndarray:
    """Ground energy of family.hamiltonian(phi) at every angle (folded).

    Each energy equals, bit for bit, that of ground(family.hamiltonian(phi),
    want_vectors=False, max_degeneracy=0, method=method), whichever angles
    are solved with it: the same policy picks the solver by dimension, the
    dense path diagonalizes each angle alone, and the recurrence runs every
    angle as one column of _lanczos_energies on family.stacked, in batches
    holding at most about _STACK_ENTRIES matrix entries. Under auto an
    angle that exhausts its budget is solved dense alone; under "lanczos"
    it raises NoConvergence.
    """
    angles = [fold_angle(phi) for phi in np.ravel(angles)]
    dim = family.dim
    method, max_iter, fallback = _energy_plan(dim, method)
    if not angles:
        return np.empty(0)
    if method == "dense":
        _check_dense(dim)
        return np.array([_lowest_eigenvalue(family.dense(phi)) for phi in angles])

    out = np.empty(len(angles))
    resid = np.empty(len(angles))
    batches = min(len(angles), -(-len(angles) * family.nnz // _STACK_ENTRIES))
    for batch in np.array_split(np.arange(len(angles)), batches):
        chosen = [angles[k] for k in batch]
        out[batch], _, resid[batch] = _lanczos_energies(
            lambda cols: family.stacked([chosen[c] for c in cols]), dim, len(batch), max_iter)
    for k in np.flatnonzero(np.isnan(out)):
        if not fallback:
            raise NoConvergence(f"Lanczos exhausted {max_iter} iterations at phi={angles[k]}",
                                residual=float(resid[k]))
        out[k] = _lowest_eigenvalue(family.dense(angles[k]))
    return out


def _lowest_ritz_value(d: np.ndarray, e: np.ndarray) -> tuple[float, tuple | None]:
    """Lowest eigenvalue of the real symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by LAPACK dstebz (bisection, block
    order), and the block data _lowest_ritz_vector needs for its vector.

    With _lowest_ritz_vector these are the calls
    scipy.linalg.eigh_tridiagonal(select="i") makes, with the same 1 x 1
    shortcut, bit for bit, without its argument checks. The vector costs a
    dstein call on top of the value, so the Lanczos checks ask for it only
    where they use it.
    """
    if len(d) == 1:
        return float(d[0]), None
    from scipy.linalg.lapack import dstebz

    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info != 0:
        raise NoConvergence(f"LAPACK dstebz returned info={info}")
    return float(w[0]), (w[:m], iblock, isplit)


def _lowest_ritz_vector(d: np.ndarray, e: np.ndarray, blocks: tuple | None) -> np.ndarray:
    """Unit eigenvector of the eigenvalue _lowest_ritz_value(d, e) found,
    given the block data it returned, by LAPACK dstein (inverse iteration)."""
    if blocks is None:
        return np.ones(1)
    from scipy.linalg.lapack import dstein

    y, info = dstein(d, e, *blocks)
    if info != 0:
        raise NoConvergence(f"LAPACK dstein returned info={info}")
    return y[:, 0]


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


def _check_dense(dim: int) -> None:
    if dim > DENSE_LIMIT:
        raise TooLargeForDense(f"dim {dim} exceeds dense limit {DENSE_LIMIT}")


def _densify(H: SparseHermitian) -> np.ndarray:
    _check_dense(H.dim)
    return H.to_dense()


def _lowest_eigenvalue(dense: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(dense)[0])


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
