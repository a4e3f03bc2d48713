"""Eigenvalue engines: ground states with degeneracy, lowest-level sums,
full spectra and log partition functions.

ground solves for the energy alone or for the ground level with its
vectors; the spins of a level are read off it afterwards (GroundInfo.spins).
The dense solver diagonalizes the densified matrix (LAPACK, its lowest
levels only). The iterative one is the plain three-term Lanczos recurrence
of _lanczos_energies, with a deterministic start vector, which keeps three
vectors per column and serves every Lanczos solve. Energies alone come from
one loop, _lowest_energies: _ground_energies runs it for a whole flux grid
at once, one column per angle, and ground(want_vectors=False) for its one
operator, so an energy is the same, bit for bit, alone and in a scan; it
reports degeneracy 1, an infinite gap and no vectors, whichever solver
answered. Each column is checked on its own schedule, sparser while its
lowest Ritz value still moves far, and computes a Ritz vector only at a
check that can stop. From a column's third check on, the bisection for
its lowest Ritz value is warm-started: the previous value bounds it from
above (Cauchy interlacing), and an inertia test certifies the bottom of
the window searched below it. A solve with vectors resolves degenerate
ground levels by deflation: the ground vectors found so far are locked,
projected out of the recurrence at every step, until a pass's value
clears the degeneracy gap. A ground vector costs a replay: the same
recurrence runs again from the same start and sums the Lanczos vectors
with the Ritz coefficients, and one more product with H confirms its
residual.

method="auto" picks between them by sector dimension, dense up to a
crossover and Lanczos above, at crossovers measured below: one for
energy-only solves (ENERGY_CROSSOVER = 48) and one for solves with vectors
(LANCZOS_CROSSOVER = 220). Between the crossover and DENSE_LIMIT a Lanczos
attempt that does not converge within its step budget, whose replayed
vector misses its residual, or whose deflation saturates, falls back to
dense, so auto returns what dense would. The budgets differ: an energy
alone gets dim steps, where the recurrence is exact in exact arithmetic,
and a solve with vectors 3*dim/5 for all its passes, about the cost of one
dense solve; no recurrence runs past _MAX_STEPS. Above DENSE_LIMIT nothing
is densified and Lanczos failures raise.

A densified operator whose entries are all real is diagonalized as a real
matrix. Every Hamiltonian at flux 0 or pi is real: its phase factors are
exactly +-1 there (model.unit_phase). The choice is read from the data.
A hard-core sector is block diagonal, and the spin-flux relation solves
its ground level block by block through ground
(analysis._hardcore_grounds), so a level of one state per block needs no
deflation across the whole sector.
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
#: cheaper depends on how much of it a solve needs: energies alone have
#: their own crossover, and solves with vectors share one. Measured on 2
#: cores with 1 BLAS thread, in ms, on random models (U = 3 unless
#: hard-core), Lanczos under auto with its budget and fallback. The
#: machine's speed drifts by up to 2x from one measurement to the next;
#: the ratios are what count.
#:
#: Energy only (ENERGY_CROSSOVER): a scan of 64 angles, dense per angle
#: against _ground_energies, and one solve of each, the recurrence under its
#: budget of dim steps and with its fallback; best of 7 interleaved runs
#: (one solve: best of 3, 7 times), median over 5 draws (3 draws and best of
#: 3 at 225 and 400), with the range of the recurrence/dense ratio over the
#: draws. At 25 nearly every angle needed more than its 25 steps on 4 of 5
#: draws and fell back; from 36 up at most 2 of 64 angles did on any draw,
#: and the batch won on every draw, by 16-26% at 36 and by 30% or more from
#: 45. One solve alone pays the per-step overhead a batch shares: it costs
#: 5-7x dense at 36-49 and 3-5x up to 64, and turns cheaper only between 100
#: and 147. The crossover sits between 45 and 49, where the batch first
#: saves 30% on every draw; one crossover keeps an angle's energy the same,
#: bit for bit, in a scan and alone.
#:
#:                                 64 angles                  one angle
#:    dim  sector              dense  batch    ratio     dense  recurrence  ratio
#:     25  L=5 N=2              6.74  13.26  0.91-1.98   0.083   1.049  11.2-13.1
#:     36  L=6 N=2             12.39  10.16  0.74-0.84   0.180   1.321   6.9-7.5
#:     45  L=10 N=2 2Sz=2      16.52  10.02  0.57-0.69   0.246   1.451   5.7-5.9
#:     49  L=7 N=2             18.98  11.91  0.55-0.70   0.285   1.620   5.1-6.0
#:     55  L=11 N=2 2Sz=2      22.78  12.15  0.48-0.58   0.343   1.509   4.2-4.8
#:     56  hard-core L=8 N=6   22.99  12.69  0.54-0.58   0.346   1.633   4.7-4.8
#:         period-2 block
#:     64  L=8 N=2             29.62  13.85  0.42-0.66   0.439   1.577   3.3-3.9
#:     78  L=13 N=2 2Sz=2      28.90  11.38  0.29-0.46   0.449   1.082   2.2-2.7
#:    100  L=5 N=4             49.80  13.70  0.23-0.29   0.757   0.955  1.25-1.30
#:    147  L=7 N=3 2Sz=1      113.70  17.85  0.14-0.17   1.747   1.179  0.55-0.69
#:    168  hard-core L=8 N=6  156.30  29.44  0.18-0.20   2.287   1.759  0.75-0.77
#:         period-6 block
#:    225  L=6 N=4            309.83  25.66  0.08-0.09   4.814   1.222  0.25-0.26
#:    400  L=6 N=6           1419.50  42.38  0.02-0.03  21.418   1.293  0.05-0.07
ENERGY_CROSSOVER = 48

#: With vectors (LANCZOS_CROSSOVER), mean over 5 draws (random phases and
#: potentials) of the best of 5 runs, and the range of the Lanczos/dense
#: ratio over the draws: one ground vector (max_degeneracy=0, no S^2),
#: a recurrence and its replay; and a counted degeneracy with S^2 (the
#: default max_degeneracy=8), a pass and a replay per ground vector plus
#: one pass to see the gap, whose budget ran out on the draws counted,
#: each then solved twice:
#:
#:                          one vector                S^2, degeneracy counted
#:    dim  sector          dense Lanczos  ratio      dense Lanczos  ratio  fallbacks
#:    100  L=5 N=4          1.31   3.27 2.30-2.63     1.89   6.36 3.31-3.41   5/5
#:    147  L=7 N=3 2Sz=1    3.16   4.09 1.19-1.38     3.95  10.42 2.62-2.68   5/5
#:    169  L=13 N=2         4.97   5.34 0.87-1.22     6.04  13.54 2.17-2.35   5/5
#:    196  L=14 N=2         7.03   5.85 0.73-1.01     8.22  13.16 0.97-2.07   3/5
#:    225  L=15 N=2        10.12   6.15 0.53-0.68    11.42  14.23 0.78-1.90   2/5
#:    225  L=6 N=4          9.85   4.60 0.41-0.51    11.23   7.79 0.66-0.73   0/5
#:    256  L=16 N=2        13.99   6.87 0.39-0.56    15.33  12.97 0.47-1.87   1/5
#:    300  L=6 N=5 2Sz=1   14.82   3.60 0.21-0.31    16.67   7.87 0.31-0.59   0/5
#:    400  L=6 N=6         39.32   5.78 0.14-0.15    36.69   7.89 0.15-0.27   0/5
#:
#: One crossover serves both within the spread: one vector turns cheaper
#: between 169 (a tie) and 225 (cheaper on every draw), a counted
#: degeneracy between 196 and 300 (at 225 and 256 one sector is cheaper
#: and one ties or is dearer). The budget, 3*dim // 5 recurrence steps
#: for all passes of a solve together (replays not counted, and no pass
#: past _MAX_STEPS), costs about one dense solve: a step costs 30-50 us up to
#: dimension 400, mostly fixed Python overhead.
LANCZOS_CROSSOVER = 220

#: Matrix entries a batch of _ground_energies holds at most: about 640 kB
#: with their column indices, at least one angle. Twice as many sped the
#: block lemma at hard-core L=8 N=6 up by 3% and raised the peak memory of
#: verify_even at L <= 6 by 1.3 MB, eight times as many by 8% and 3.1 MB.
_STACK_ENTRIES = 2**15

#: Check schedule of _lanczos_energies, per column: its first check after
#: _CHECK_FIRST steps, and each next one after the steps of the first row
#: whose bound the lowest Ritz value's move since the previous check
#: exceeds, relative to max(1, |theta|) (the first check counts as a large
#: move). A check costs a bisection (dstebz): on the block lemma below
#: (42 rows on average) 24-27 us from the Gershgorin interval and 19 us in
#: a warm-started window, its inertia test included (see _WINDOW), against
#: about 3 us for a column step. Measured
#: per column on the block lemma of hard-core L=8 N=6 (six models, blocks
#: of 56 and 168, 90 angles) and on verify_even at L <= 6 (63 scans of 64
#: angles), with the median of 15 interleaved runs of their recurrences, in
#: ms (2 cores, 1 BLAS thread), with cold checks, the late gap 5 and the
#: 56-state blocks solved dense; no column ran out of its budget:
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
#: 1e-4, 1e-8). Past the step where its Krylov space is exhausted a
#: column is checked at every step: with this schedule alone, 16 of 800
#: ground vectors of random sectors up to dimension 400 under
#: method="lanczos" missed their residual (all at dimension 40 or less),
#: with checks every 5 steps 4; with the rule none of 3000 did.
#:
#: Warm-started checks cost less, so the late gap was measured again on
#: the block lemma of the six models of seeds 1-3 of the hardcore_blocks
#: pool (their 56-state blocks now on the recurrence, 2160 columns) and
#: the 27 verify_even scans of seeds 1-3 of even_scan that run the
#: recurrence (1728 columns), in CPU ms over 30 interleaved runs, best and
#: median (quartiles 250-400 ms apart):
#:
#:                          block lemma                verify_even
#:    late gap      checks  steps  best  median   checks  steps  best  median
#:    5               6.51  68.47   745     976     4.27  42.99   778     928
#:    4               6.54  67.63   758     955     4.28  42.07   744     960
#:    3               6.56  66.73   743     965     4.30  41.13   764     992
#:    2               6.66  65.93   735     951     4.34  40.23   748     983
#:
#: The times tie within the machine's spread, so the counts decide: a gap
#: of 3 stops 1.7 and 1.9 steps per column earlier than 5, about 6 us, for
#: 0.05 more checks, about 1 us; a gap of 2 saves 0.8-0.9 steps more for
#: 0.04-0.10 more checks.
_CHECK_FIRST = 5
_CHECK_SCHEDULE = ((1e-3, 15), (1e-6, 10), (-math.inf, 3))

#: Most steps one recurrence of _lanczos_energies takes, whatever its budget.
_MAX_STEPS = 600

#: Unit roundoff of float64, which LAPACK's bisection tolerance scales.
_EPS = float(np.finfo(float).eps)

#: Warm start of a column's checks after its second (_lowest_ritz_value):
#: the window certified reaches _WINDOW times the Ritz value's last move
#: below its previous value. On the block lemma columns of seed 1, the drop
#: from one check to the next exceeded the last move in 3.7% of checks, and
#: 4 times it in 1.5%; on the six models above the inertia test failed in
#: 1.7% of warm-started checks, which then bisect cold. A window twice as
#: wide costs one more bisection step, about 0.3 us.
_WINDOW = 4

#: Relative width of the ground-level window (_ground_window).
GROUND_TOL = 1e-9

#: Seed for the deterministic Lanczos start vector.
LANCZOS_SEED = 0x5EED


def _ground_window(e0: float) -> float:
    """Width of the ground level above its lowest energy e0: eigenvalues
    within it of e0 count as degenerate ground states."""
    return GROUND_TOL * max(1.0, abs(e0))


@dataclass(frozen=True)
class GroundInfo:
    """Lowest eigenvalue with its degeneracy, gap and eigenvectors (None
    for an energy-only solve)."""

    energy: float
    degeneracy: int
    gap: float
    vectors: np.ndarray | None          # (dim, k) orthonormal columns
    method: str

    @property
    def saturated(self) -> bool:
        """The solve stopped without clearing the ground level (a deflation
        out of room, no gap seen): the degeneracy is only a lower bound.
        Never true of a dense answer or of an energy alone."""
        return (self.vectors is not None and math.isinf(self.gap)
                and self.degeneracy < len(self.vectors))

    def spins(self, s2: SparseHermitian) -> set[float]:
        """Spins of the ground level: s2, the total spin S^2 on the level's
        sector, diagonalized on the span of its vectors. Raises MultipletCut
        when the level is saturated or an eigenvalue of S^2 there is not of
        the form s(s+1): the vectors do not span whole multiplets."""
        if self.vectors is None:
            raise ValueError("ground level was solved without vectors")
        if self.saturated:
            raise MultipletCut(
                f"{self.degeneracy} ground vectors locked without clearing the ground "
                "level: the multiplet may be cut, so its spin content is undefined")
        block = self.vectors.conj().T @ s2.matvec(self.vectors)
        vals = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
        return {_spin_from_s2(float(v)) for v in vals}


def _spin_from_s2(value: float) -> float:
    """Invert s(s+1) = value onto the nearest (half-)integer spin."""
    s = 0.5 * (-1.0 + math.sqrt(max(0.0, 1.0 + 4.0 * value)))
    snapped = round(2.0 * s) / 2.0
    if abs(snapped * (snapped + 1.0) - value) > 1e-8 * max(1.0, abs(value)):
        raise MultipletCut(f"S^2 eigenvalue {value} is not of the form s(s+1): the "
                           "vectors do not span whole spin multiplets")
    return snapped


def ground(H: SparseHermitian, want_vectors: bool = True, max_degeneracy: int = 8,
           method: str = "auto") -> GroundInfo:
    """Lowest eigenvalue of H: the energy alone, or the ground level with
    its degeneracy, gap and vectors.

    method is "dense", "lanczos" or "auto". Auto solves sectors up to a
    crossover dense and larger ones by Lanczos: ENERGY_CROSSOVER for the
    energy alone and LANCZOS_CROSSOVER for a level. Inside DENSE_LIMIT it
    falls back to dense when Lanczos does not converge within its step
    budget (see _plan; a replayed vector whose true residual misses counts
    as not converged), or when the deflation saturates (max_degeneracy > 0
    and max_degeneracy + 1 vectors locked, so the degeneracy found is only
    a lower bound). GroundInfo.method names the solver whose answer is
    returned.

    want_vectors=False asks for the energy alone, by the loop of a flux
    scan (_lowest_energies) on H alone: bit for bit the energy
    _ground_energies gives, with degeneracy 1, gap inf and no vectors
    whichever solver answered. Otherwise the Lanczos path counts at most
    max_degeneracy + 1 ground vectors (0: one vector), and a saturated
    answer with no fallback taken is returned as such (GroundInfo.saturated).
    """
    dim = H.dim
    if dim < 1:
        raise EmptySector("operator has dimension 0")
    if not want_vectors:
        (e0,), method = _lowest_energies(1, dim, H.mat.nnz, lambda ks: H,
                                         lambda k: H.to_dense(), method)
        return GroundInfo(float(e0), 1, math.inf, None, method)
    method, budget, fallback = _plan(dim, method, energy_only=False)

    if method == "lanczos":
        try:
            e0, vectors, gap = _lanczos_ground(H, max_degeneracy, budget=budget)
        except NoConvergence:
            if not fallback:
                raise
            method = "dense"
        else:
            deg = vectors.shape[1]
            if fallback and 0 < max_degeneracy < deg:
                method = "dense"
    if method == "dense":
        e0, deg, gap, vectors = _dense_ground(H, max_degeneracy)
    return GroundInfo(e0, deg, gap, vectors, method)


def _dense_ground(H: SparseHermitian, max_degeneracy: int):
    """Energy, full degeneracy, gap and ground vectors of the densified H.

    Only the lowest max_degeneracy + 2 levels are computed, which costs
    about as much as eigvalsh; the full eigh (3.5x dearer at dimension
    1225) runs only when all of them fall in the ground window.
    """
    from scipy.linalg import eigh

    dense = _densify(H)
    top = min(H.dim, max_degeneracy + 2)
    vals, vecs = eigh(dense, subset_by_index=(0, top - 1))
    if top < H.dim and vals[-1] <= vals[0] + _ground_window(vals[0]):
        vals, vecs = np.linalg.eigh(dense)
    e0 = float(vals[0])
    deg = max(1, int(np.searchsorted(vals, e0 + _ground_window(e0), side="right")))
    gap = float(vals[deg] - e0) if deg < len(vals) else math.inf
    return e0, deg, gap, vecs[:, :deg]


def _lanczos_energies(stack, dim: int, count: int, max_iter: float = _MAX_STEPS,
                      resid_tol: float = 1e-8, locked: np.ndarray | None = None,
                      cut: float = math.inf, replay: np.ndarray | None = None):
    """Lowest eigenvalues of count Hermitian operators of dimension dim by
    the plain three-term Lanczos recurrence, run on all of them at once;
    returns (energies, steps, residuals, ritz) with one entry per operator,
    ritz holding the coefficients y of the lowest Ritz vector at the step
    where the column stopped (None where the energy is NaN).

    stack(cols) is the block-diagonal operator whose blocks are the
    operators numbered cols, in that order; each step applies it once to
    the batch's vectors, stacked as the rows of a (len(cols), dim) array. A
    column that stops stays in the batch with its vectors zeroed; once a
    quarter of the batch has stopped, the batch drops them and stack is
    called again for the rest. An energy that does not converge within
    max_iter steps, and never more than _MAX_STEPS, is NaN, with the
    residual of its last check; steps then holds the steps it ran.

    No reorthogonalization and no Krylov basis: three vectors per column.
    Rounding makes the Lanczos vectors lose orthogonality as Ritz values
    converge, which only adds copies of converged Ritz values to the
    tridiagonal matrix; the lowest Ritz value still converges to the lowest
    eigenvalue (Paige, J. Inst. Math. Appl. 18, 341 (1976)). The start
    vector is pseudo-random from a fixed seed. A column stops once its
    lowest Ritz value has stalled since the previous check and its Ritz
    residual is at most resid_tol * max(1, |theta|), or 1e-8 for a value
    above cut (it only bounds a gap from below), or at a breakdown. The
    checks come on each column's own schedule (_CHECK_SCHEDULE: sparser
    while its Ritz value still moves far), plus at a breakdown and at the
    last step, and the Ritz vector is computed only where a column can
    stop or is reported. A run may go past dim steps, since without
    reorthogonalization the Krylov space is never known to be exhausted
    short of a breakdown; from the step where it would be in exact
    arithmetic (dim less the locked rows) a column is checked at every
    step, since past it the recurrence only repeats converged values and a
    replayed vector degrades. Under auto's budgets only an energy-only
    column gets there, at its last step: it may take dim steps, a solve
    with vectors 3*dim/5.

    Each check after a column's second warm-starts its bisection from the
    column's previous Ritz value and last move (_lowest_ritz_value), which
    agrees with a cold bisection to a few ulps of ||T||, not bit for bit.

    locked rows (orthonormal) are projected out of the start vector and of
    every column at every step, so the recurrence runs in their orthogonal
    complement; the seed is offset by their number. Given replay, the
    Ritz coefficients y of a column that stopped with these same arguments
    (count=1), the recurrence runs again, regenerating the same Lanczos
    vectors v_k bit for bit, and returns the Ritz vector sum y_k v_k
    instead (Cullum & Willoughby, Lanczos Algorithms for Large Symmetric
    Eigenvalue Computations, 1985): a vector costs a second run, never a
    stored basis.

    Every operation on the stack acts on each row alone: a block of the
    operator, real elementwise arithmetic, a projection of one row, or a
    pairwise sum along the row, and a column's schedule reads only its own
    Ritz values. So a column's energy is the same, bit for bit, in a batch
    of any size.
    """
    max_iter = min(max_iter, _MAX_STEPS)
    n_locked = 0 if locked is None else len(locked)
    space = dim - n_locked                       # the largest Krylov space
    rng = np.random.default_rng(LANCZOS_SEED + n_locked)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if locked is not None:
        _deflate(start[None], locked)
    start /= np.linalg.norm(start)

    energies = np.full(count, np.nan)
    residuals = np.full(count, np.nan)
    steps = np.zeros(count, dtype=int)
    ritz = [None] * count
    cols = np.arange(count)
    op = stack(cols)
    v, v_prev = np.tile(start, (count, 1)), None
    alphas = np.empty((count, max_iter))
    betas = np.empty((count, max_iter))
    scale = np.ones(count)                       # max(1, |alpha|): a breakdown's scale
    beta_max = np.zeros(count)                   # with scale, 2 * beta_max bounds ||T||
    theta_last = np.full(count, np.nan)          # NaN: no check yet
    drop = np.full(count, np.nan)                # its move at that check, NaN at the first
    due = np.full(count, min(_CHECK_FIRST, space) - 1)  # step index of each column's next check
    live = np.ones(count, dtype=bool)            # stopped columns stay, zeroed, until compacted
    stopped = 0
    vector = None if replay is None else np.zeros(dim, dtype=complex)
    for k in range(max_iter):
        if replay is not None:
            vector += replay[k] * v[0]
            if k == len(replay) - 1:
                return vector
        w = op.matvec(v.ravel()).reshape(v.shape)
        re_v, re_w = v.view(float), w.view(float)  # (columns, 2*dim) real views
        a = np.add.reduce(re_v * re_w, axis=1)
        alphas[:, k] = a
        re_w -= re_v * a[:, None]
        if k > 0:
            re_w -= v_prev.view(float) * betas[:, k - 1, None]
        if locked is not None:
            _deflate(w, locked)
        b = np.sqrt(np.add.reduce(re_w * re_w, axis=1))
        betas[:, k] = b

        last = k == max_iter - 1
        if replay is None:
            np.maximum(scale, np.abs(a), out=scale)
            np.maximum(beta_max, b, out=beta_max)
            breakdown = b <= 1e-13 * scale       # never on a stopped column: its scale is NaN
            checked = np.flatnonzero(live if last else breakdown | (due == k))
        else:
            checked = ()                         # a replay stops where its column did
        for j in checked:
            d, e = alphas[j, : k + 1], betas[j, :k]
            theta, blocks = _lowest_ritz_value(d, e, theta_last[j], drop[j],
                                               scale[j] + 2.0 * beta_max[j])
            rel = max(1.0, abs(theta))
            move = abs(theta - theta_last[j])   # NaN at the first check
            held = move <= 1e-14 * rel
            converged = breakdown[j]
            # the vector only where the column can stop or is reported
            if converged or held or last:
                y = _lowest_ritz_vector(d, e, blocks)
            if not converged and (held or last):
                resid = abs(b[j] * y[-1])
                converged = held and resid <= (resid_tol if theta <= cut else 1e-8) * rel
                if not converged and last:
                    residuals[cols[j]] = resid
            if converged:
                energies[cols[j]], ritz[cols[j]] = theta, y
            elif not last:
                theta_last[j], drop[j] = theta, move
                gap = next(gap for bound, gap in _CHECK_SCHEDULE if not move <= bound * rel)
                due[j] = min(k + gap, max(k + 1, space - 1))
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
            scale, beta_max, due = scale[live], beta_max[live], due[live]
            theta_last, drop = theta_last[live], drop[live]
            live, stopped = live[live], 0
            op = stack(cols)
        elif stopped:
            b[~live] = 1.0                       # their rows are zero
        re_w = w.view(float)
        re_w /= b[:, None]
        v_prev, v = v, w
    return energies, steps, residuals, ritz


def _deflate(rows: np.ndarray, locked: np.ndarray) -> None:
    """Project the span of the orthonormal locked rows out of each row, in
    place and one row at a time. (L @ r.conj()).conj() equals L.conj() @ r
    without copying L."""
    for row in rows:
        row -= (locked @ row.conj()).conj() @ locked


def _plan(dim: int, method: str, energy_only: bool) -> tuple[str, float, bool]:
    """Solver at dimension dim ("dense" or "lanczos"; auto: dense up to
    ENERGY_CROSSOVER for an energy-only solve, up to LANCZOS_CROSSOVER for
    any other), the steps its Lanczos attempt may take in all, and whether
    a failure falls back to dense: under auto within DENSE_LIMIT. Under the
    fallback an energy alone may take dim steps, the step at which the
    recurrence is exact in exact arithmetic, and a solve with vectors
    3*dim // 5, about the cost of one dense solve (see ENERGY_CROSSOVER and
    LANCZOS_CROSSOVER); _lanczos_energies caps each recurrence at
    _MAX_STEPS."""
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    crossover, budget = (ENERGY_CROSSOVER, dim) if energy_only else (LANCZOS_CROSSOVER,
                                                                     3 * dim // 5)
    fallback = method == "auto" and dim <= DENSE_LIMIT
    if method == "auto":
        method = "dense" if dim <= min(crossover, DENSE_LIMIT) else "lanczos"
    return method, budget if fallback else math.inf, fallback


def _ground_energies(family: FluxFamily, angles, method: str = "auto") -> np.ndarray:
    """Ground energy of family.hamiltonian(phi) at every angle (folded), by
    _lowest_energies on family.stacked: bit for bit that of
    ground(family.hamiltonian(phi), want_vectors=False, method=method),
    whichever angles are solved with it."""
    angles = [fold_angle(phi) for phi in np.ravel(angles)]
    return _lowest_energies(len(angles), family.dim, family.nnz,
                            lambda ks: family.stacked([angles[k] for k in ks]),
                            lambda k: family.dense(angles[k]), method,
                            lambda k: f" at phi={angles[k]}")[0]


def _lowest_energies(count: int, dim: int, nnz: int, stack, dense, method: str,
                     where=lambda k: "") -> tuple[np.ndarray, str]:
    """Lowest eigenvalues of count Hermitian operators of dimension dim with
    nnz entries each, and the solver that answered ("dense" after any
    fallback): the energy-only solve of ground and _ground_energies alike.

    The solver is _plan's. Dense diagonalizes each dense(k), operator k
    densified, alone. The recurrence runs operator k as a column of
    _lanczos_energies, stack(ks) being the block-diagonal operator of those
    numbered ks, in batches of at most about _STACK_ENTRIES entries. A NaN
    energy raises NoConvergence (where(k) names operator k) or, under
    auto's fallback, is solved dense alone.
    """
    method, budget, fallback = _plan(dim, method, energy_only=True)
    if not count:
        return np.empty(0), method
    if method == "dense":
        _check_dense(dim)
        return np.array([_lowest_eigenvalue(dense(k)) for k in range(count)]), method

    out, steps, resid = np.empty(count), np.empty(count, dtype=int), np.empty(count)
    batches = min(count, max(1, -(-count * nnz // _STACK_ENTRIES)))
    for batch in np.array_split(np.arange(count), batches):
        out[batch], steps[batch], resid[batch], _ = _lanczos_energies(
            lambda cols: stack(batch[cols]), dim, len(batch), budget)
    failed = np.flatnonzero(np.isnan(out))
    for k in failed:
        if not fallback:
            raise NoConvergence(f"Lanczos exhausted {steps[k]} iterations{where(k)}",
                                residual=float(resid[k]))
        out[k] = _lowest_eigenvalue(dense(k))
    return out, "dense" if len(failed) else method


def _lowest_ritz_value(d: np.ndarray, e: np.ndarray, bound: float = math.nan,
                       drop: float = math.nan, norm: float = math.nan
                       ) -> tuple[float, tuple | None]:
    """Lowest eigenvalue of the real symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by LAPACK dstebz (bisection, block
    order), and the block data _lowest_ritz_vector needs for its vector.

    With _lowest_ritz_vector these are the calls
    scipy.linalg.eigh_tridiagonal(select="i") makes, with the same 1 x 1
    shortcut, bit for bit, without its argument checks. The vector costs a
    dstein call on top of the value, so the Lanczos checks ask for it only
    where they use it.

    Given a bound and a drop (a column's previous Ritz value and its last
    move) and a norm at least ||T||, the search is warm-started: by Cauchy interlacing the lowest
    eigenvalue only falls as rows are appended to T (Parlett, The Symmetric
    Eigenvalue Problem, 1998, sections 7.9 and 10.1), so only the window
    (bound - (_WINDOW + 1) * drop, bound + 1e-13 * max(1, |bound|)] is
    bisected, once an inertia test certifies that no eigenvalue lies at or
    below floor = bound - _WINDOW * drop: T - floor has positive LDL^T
    pivots (dpttrf). The extra drop below the floor covers rounding in the
    two inertia counts, and the slack above the bound its own rounding, ten
    times the stall test's 1e-14; the window stops there, since each other
    eigenvalue in it costs a bisection of its own. An uncertified window,
    one that holds no eigenvalue, or one no wider than the bisection's own
    tolerance, about ulp * ||T|| (8 ulp * norm here), falls back to the
    bisection of the whole matrix: dstebz would return the middle of so narrow a window unrefined,
    and a column's Ritz value would then seem to stall where a cold
    bisection sees it still move by rounding. A windowed value agrees with
    the full bisection's to a few ulps of ||T||, not bit for bit.
    """
    if len(d) == 1:
        return float(d[0]), None
    from scipy.linalg.lapack import dpttrf, dstebz

    floor = bound - _WINDOW * drop
    low, high = floor - drop, bound + 1e-13 * max(1.0, abs(bound))
    if (high - low > 8 * _EPS * norm                     # False for NaN: no move yet
            and dpttrf(d - floor, e, overwrite_d=1)[2] == 0):
        m, w, iblock, isplit, info = dstebz(d, e, 1, low, high, 0, 0, 0.0, "B")
        if info == 0 and m:
            i = 0 if m == 1 else int(np.argmin(w[:m]))
            iblock[0] = iblock[i]
            return float(w[i]), (w[i:i + 1], iblock, isplit)
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


def _lanczos_ground(H: SparseHermitian, max_degeneracy: int, budget: float = math.inf):
    """Ground energy, ground vectors and gap by deflation.

    Each pass runs the recurrence of _lanczos_energies in the orthogonal
    complement of the ground vectors found so far, and a pass whose Ritz
    value lies in the ground window replays it for its vector, which is
    then locked. The loop stops at the first pass whose value clears the
    window, which gives the gap and needs no vector (or once
    max_degeneracy + 1 vectors are locked, meaning the reported degeneracy
    is a lower bound). Vectors go to verifiers that judge residuals down to
    1e-9 (spiral_state): each is confirmed by one more product with H, its
    true residual ||Hv - theta v|| at most 1e-12 * max(1, |theta|), else
    NoConvergence is raised with it, as it is when a pass runs out.

    budget caps the recurrence steps of all passes together; NoConvergence
    is raised beyond it.
    """
    found: list[np.ndarray] = []
    left = budget
    e0 = None
    cut = gap = math.inf
    for _ in range(max_degeneracy + 1):
        if len(found) >= H.dim:
            break
        if left < 1:
            raise NoConvergence(f"Lanczos budget of {budget} iterations spent "
                                f"after {len(found)} locked vectors")
        args = (lambda cols: H, H.dim, 1, left, 1e-12,
                np.vstack(found) if found else None, cut)
        (theta,), (steps,), (resid,), (y,) = _lanczos_energies(*args)
        left -= steps
        if math.isnan(theta):
            raise NoConvergence(f"Lanczos exhausted {steps} iterations",
                                residual=float(resid))
        if e0 is None:
            e0 = theta
            cut = e0 + _ground_window(e0)
        elif theta > cut:
            gap = theta - e0
            break
        vec = _lanczos_energies(*args, replay=y)
        vec /= np.linalg.norm(vec)
        miss = float(np.linalg.norm(H.matvec(vec) - theta * vec))
        if miss > 1e-12 * max(1.0, abs(theta)):
            raise NoConvergence(f"replayed Lanczos vector has residual {miss:.3g} after "
                                f"{steps} iterations", residual=miss)
        found.append(vec)
    vectors = np.column_stack(found) if found else None
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
    return _real_if_real(H.to_dense())


def _real_if_real(dense: np.ndarray) -> np.ndarray:
    """dense, or its real part when every entry is real (a Hamiltonian at
    flux 0 or pi), which LAPACK's real solvers diagonalize in real
    arithmetic."""
    return dense if dense.imag.any() else dense.real


def _lowest_eigenvalue(dense: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_real_if_real(dense))[0])


def full_spectrum(H: SparseHermitian) -> np.ndarray:
    """All eigenvalues, ascending. Dense only."""
    return np.linalg.eigvalsh(_densify(H))


def log_partition_sweep(hamiltonians, betas) -> np.ndarray:
    """log Tr exp(-beta H), one row per beta and one column per operator,
    evaluated as -beta*E_min + log sum exp(-beta (E - E_min)).

    Each operator is diagonalized once and its spectrum serves every beta.
    The shift keeps the sum representable at any finite beta >= 0.
    """
    if not all(0.0 <= beta < math.inf for beta in betas):
        raise ValueError("beta must be finite and non-negative")
    columns = []
    for H in hamiltonians:
        vals = full_spectrum(H)
        columns.append([float(-beta * vals[0] + math.log(np.exp(-beta * (vals - vals[0])).sum()))
                        for beta in betas])
    return np.reshape(columns, (len(columns), len(betas))).T
