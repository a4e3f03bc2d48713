"""Theorem-level verifiers: flux scans, argmin refinement, periodicity,
block structure, singlet/uniqueness checks, the spin-flux biconditional,
the spiral state and finite-temperature scans.

Every verifier returns a VerificationReport holding the measured
quantities next to the tolerances they were judged against, so a failing
report is self-describing. Each builds it through _report from one judged
table, which gives the report its tolerances and its verdict alike, and
from the statement's exact conditions; no report passes against a
tolerance it does not show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .basis import UP_MODES, SectorBasis, decompose_blocks, enumerate_sector
from .errors import (
    DegenerateGround,
    HypothesisViolated,
    MethodLimit,
    MultipletCut,
    NotFourNPlusTwo,
)
from .model import ModelSpec, angle_dist, fold_angle, validate, with_flux
from .operators import (
    FluxFamily,
    _check_basis,
    build_hamiltonian,
    build_total_spin,
    conjugation_residual,
    extend_ring,
    flux_family,
    is_sign_gauge,
    negative_envelope,
    solve_sign_gauge,
)
from .spectra import (
    GroundInfo,
    _ground_energies,
    _ground_window,
    ground,
    log_partition_sweep,
    lowest_sum,
)

TWO_PI = 2.0 * math.pi

#: Default argmin tolerances: equality in energy and in angle.
VALUE_TOL = 1e-9
ANGLE_MATCH_TOL = 1e-6
REFINE_XTOL = 1e-10

#: Most hard-core blocks whose sign patterns spiral_state enumerates (2^16).
SIGN_SEARCH_BLOCKS = 16


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one claim checked on one model instance."""

    claim: str
    instance: str
    measured: dict
    tolerance: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "instance": self.instance,
            "measured": _jsonable(self.measured),
            "tolerance": _jsonable(self.tolerance),
            "passed": bool(self.passed),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def describe(spec: ModelSpec) -> str:
    u = "inf" if spec.hardcore else f"{min(spec.U):g}..{max(spec.U):g}"
    return (f"L={spec.L} N={spec.N} |t|={min(spec.hop_mag):g}..{max(spec.hop_mag):g} "
            f"V={min(spec.V):g}..{max(spec.V):g} U={u} flux={spec.flux:.6f}")


def _report(claim: str, spec: ModelSpec, measured: dict, judged: dict,
            exact: bool = True) -> VerificationReport:
    """The report of a claim on spec, judged by its table alone.

    judged maps each tolerance name to (tolerance, residuals, gaps): the
    claim holds when every residual is at most its tolerance, every gap
    exceeds it, and the statement's exact conditions (exact) hold.
    """
    passed = exact and all(all(r <= tol for r in residuals) and all(g > tol for g in gaps)
                           for tol, residuals, gaps in judged.values())
    tolerance = {name: tol for name, (tol, _, _) in judged.items()}
    return VerificationReport(claim, describe(spec), measured, tolerance, bool(passed))


def minimal_two_sz(N: int) -> int:
    return N % 2


def sector_basis_for(spec: ModelSpec, two_sz: int | None = None) -> SectorBasis:
    if two_sz is None:
        two_sz = minimal_two_sz(spec.N)
    return enumerate_sector(spec.L, spec.N, two_sz, spec.hardcore)


def even_optimal_flux(L: int, N: int) -> float:
    """Flux minimizing the ground energy for even N at finite coupling:
    (N/2 + 1)*pi on even rings, N*pi/2 on odd rings (both mod 2*pi)."""
    if N % 2:
        raise ValueError("defined for even N")
    half = N // 2
    return fold_angle((half + 1) * math.pi if L % 2 == 0 else half * math.pi)


def _even_optima(spec: ModelSpec) -> list[float]:
    """The optimal fluxes predicted for even N: every 2*pi*k/N on hard-core
    rings, even_optimal_flux at finite coupling."""
    if spec.hardcore:
        return [fold_angle(TWO_PI * k / spec.N) for k in range(spec.N)]
    return [even_optimal_flux(spec.L, spec.N)]


def flux_grid(grid_size: int) -> np.ndarray:
    """The uniform grid of grid_size angles on [0, 2*pi); at least 8."""
    if grid_size < 8:
        raise ValueError(f"grid size must be at least 8, got {grid_size}")
    return np.arange(grid_size) * (TWO_PI / grid_size)


def _shifted(values: np.ndarray, p: int, family: FluxFamily) -> np.ndarray:
    """E(phi_i + 2*pi/p) at every angle of flux_grid(G), for family's G
    curve values on it: the curve G/p steps on when p divides G (separate
    solves of other matrices), else the shifted grid solved on family."""
    n = len(values)
    if n % p == 0:
        return np.roll(values, -(n // p))
    return _ground_energies(family, flux_grid(n) + TWO_PI / p)


def scan_flux(family: FluxFamily, grid_size: int = 720, method: str = "auto") -> np.ndarray:
    """Ground energy of one sector's family at each angle of flux_grid(grid_size)."""
    return _ground_energies(family, flux_grid(grid_size), method)


def _current(family: FluxFamily, phi: float, method: str) -> tuple[float, float, float]:
    """Ground energy at phi and the least and greatest persistent current
    dE/dphi there: dH/dphi projected onto the ground vectors
    (Hellmann-Feynman), whose eigenvalues are the one-sided slopes of E."""
    phi = fold_angle(phi)
    info = ground(family.hamiltonian(phi), max_degeneracy=0, method=method)
    block = info.vectors.conj().T @ family.derivative(phi).matvec(info.vectors)
    slopes = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
    return info.energy, float(slopes[0]), float(slopes[-1])


def _current_root(current, a: float, b: float, xtol: float) -> tuple[float, float] | None:
    """Angle and energy where the persistent current crosses zero upward in
    [a, b], or None when the bracket shows no such crossing.

    An angle counts as left of the crossing when its greatest slope is
    negative, right of it when its least slope is positive, and as the
    crossing itself when its slopes straddle zero. The bracket is closed by
    the Illinois variant of regula falsi, each new angle kept xtol/4 inside
    the bracket so that a converged end is crossed and the bracket shuts.
    A cusp, where the current jumps across zero, closes the same way.
    """
    (ea, lo_a, hi_a), (eb, lo_b, hi_b) = current(a), current(b)
    for x, e, lo, hi in ((a, ea, lo_a, hi_a), (b, eb, lo_b, hi_b)):
        if lo <= 0.0 <= hi:
            return x, e
    if not (hi_a < 0.0 < lo_b):
        return None
    ja, jb = hi_a, lo_b       # the currents at the ends
    wa, wb, last = ja, jb, 0  # their weights in the interpolation
    while b - a > xtol:
        x = min(max((a * wb - b * wa) / (wb - wa), a + 0.25 * xtol), b - 0.25 * xtol)
        e, lo, hi = current(x)
        if lo <= 0.0 <= hi:
            return x, e
        if hi < 0.0:
            a, ea, ja, wa = x, e, hi, hi
            if last < 0:      # the right end was kept twice: halve its weight
                wb *= 0.5
            last = -1
        else:
            b, eb, jb, wb = x, e, lo, lo
            if last > 0:
                wa *= 0.5
            last = 1
    return (a * jb - b * ja) / (jb - ja), min(ea, eb)


def refine_argmin(values: np.ndarray, family: FluxFamily, method: str = "auto") -> list[float]:
    """All global minimizers of family's scanned energy, refined to REFINE_XTOL in angle.

    values are the energies on flux_grid(len(values)), as scan_flux returns
    them; fewer than 8 raise ValueError. Each grid-local minimum is refined
    to the root of the persistent current dE/dphi between its two grid
    neighbours; one without an upward crossing of the current there keeps
    its grid angle and scanned energy.
    Refined minima within VALUE_TOL of the global minimum are returned
    (folded, deduplicated). A flat curve returns every grid angle.
    """
    n = len(values)
    grid = flux_grid(n)
    if float(values.max() - values.min()) <= VALUE_TOL:
        return [float(g) for g in grid]

    current = lambda phi: _current(family, phi, method)

    spacing = TWO_PI / n
    candidates = []
    for i in range(n):
        left, right = values[(i - 1) % n], values[(i + 1) % n]
        if values[i] <= left and values[i] <= right:
            x = float(grid[i])
            root = _current_root(current, x - spacing, x + spacing, REFINE_XTOL)
            candidates.append(root or (x, float(values[i])))

    best = min(v for _, v in candidates)
    keep = sorted((fold_angle(x), v) for x, v in candidates if v <= best + VALUE_TOL)
    out: list[tuple[float, float]] = []
    for x, v in keep:
        for k, (xo, vo) in enumerate(out):
            if angle_dist(x, xo) <= 10 * REFINE_XTOL:
                if v < vo:
                    out[k] = (x, v)
                break
        else:
            out.append((x, v))
    return [x for x, _ in sorted(out)]


# ---------------------------------------------------------------------------
# Theorem verifiers
# ---------------------------------------------------------------------------

def _require_hopping(spec: ModelSpec) -> None:
    """A sector without hops (N = 0, a filled hard-core ring, or N = 2L)
    has a flat flux curve, so no claim about where it peaks or dips can be
    checked."""
    full, bound = (spec.L, "L on hard-core rings") if spec.hardcore else (2 * spec.L, "2L")
    if not 0 < spec.N < full:
        raise HypothesisViolated(f"requires 0 < N < {bound}: no particle can hop")


def _require_hardcore(spec: ModelSpec) -> None:
    if not spec.hardcore:
        raise HypothesisViolated("requires the hard-core interaction")


def verify_even(spec: ModelSpec, grid_size: int = 240) -> VerificationReport:
    """Even particle number: the optimal flux sits where the theory puts it.

    Finite coupling: the refined argmin equals (N/2+1)*pi (even ring) or
    N*pi/2 (odd ring). Hard-core: the argmin set is {2*pi*n/N} and the
    curve has period 2*pi/N, checked at every grid angle.
    """
    if spec.N % 2 or spec.N > spec.L:
        raise HypothesisViolated("requires even N <= L")
    _require_hopping(spec)
    family = flux_family(spec, sector_basis_for(spec, 0))
    energies = scan_flux(family, grid_size=grid_size)
    minima = refine_argmin(energies, family)
    expected = _even_optima(spec)
    deviation = max(min(angle_dist(x, e) for e in expected) for x in minima)
    measured = {
        "argmin": minima,
        "expected": expected,
        "max_angle_deviation": deviation,
        "min_energy": float(energies.min()),
    }
    if not spec.hardcore:
        return _report("even-optimal-flux", spec, measured,
                       {"angle": (ANGLE_MATCH_TOL, [deviation], [])})

    covered = max(min(angle_dist(e, x) for x in minima) for e in expected)
    shifted = _shifted(energies, spec.N, family)
    resid = float(np.abs(shifted - energies).max())
    measured.update(period=TWO_PI / spec.N, period_residual=resid, argmin_coverage=covered)
    return _report("hardcore-optimal-flux", spec, measured,
                   {"angle": (ANGLE_MATCH_TOL, [deviation, covered], []),
                    "period_residual": (1e-10, [resid], [])})


def verify_odd(spec: ModelSpec, grid_size: int = 64, method: str = "auto") -> VerificationReport:
    """Odd half filling, free case: period pi, minima at pi/2 and 3*pi/2,
    and the reduction of the ground energy to one-particle level sums.

    Refuses models with V != 0 or U != 0: the claim is false there (the
    potential-disorder counterexample is exercised separately).
    """
    if spec.N != spec.L or spec.N % 2 == 0:
        raise HypothesisViolated("requires half filling N = L with N odd")
    if spec.hardcore or any(u != 0.0 for u in spec.U):
        raise HypothesisViolated("requires U = 0")
    if any(v != 0.0 for v in spec.V):
        raise HypothesisViolated("requires V = 0; potential disorder can move the optimum")

    grid_size += grid_size % 2  # need the half-turn shift on the grid
    family = flux_family(spec, sector_basis_for(spec, 1))
    energies = scan_flux(family, grid_size=grid_size, method=method)
    half_turn = _shifted(energies, 2, family)  # grid_size is even
    period_resid = float(np.abs(energies - half_turn).max())
    minima = refine_argmin(energies, family, method=method)
    expected = [0.5 * math.pi, 1.5 * math.pi]
    deviation = max(min(angle_dist(x, e) for e in expected) for x in minima)
    coverage = max(min(angle_dist(e, x) for x in minima) for e in expected)

    n = spec.N // 2
    grid = flux_grid(grid_size)
    chain_resid = 0.0
    for k in range(0, grid_size, max(1, grid_size // 8)):
        phi, e_many = float(grid[k]), float(energies[k])
        lower = lowest_sum(spec, n, phi)
        split = lower + lowest_sum(spec, n + 1, phi)
        halfshift = lower + lowest_sum(spec, n, phi + math.pi)
        chain_resid = max(chain_resid, abs(e_many - split), abs(split - halfshift))

    measured = {
        "argmin": minima,
        "expected": expected,
        "max_angle_deviation": deviation,
        "argmin_coverage": coverage,
        "period_residual": period_resid,
        "reduction_residual": chain_resid,
        "min_energy": float(energies.min()),
    }
    return _report("odd-halffill-optimal-flux", spec, measured,
                   {"angle": (ANGLE_MATCH_TOL, [deviation, coverage], []),
                    "period_residual": (1e-10, [period_resid], []),
                    "reduction_residual": (1e-9, [chain_resid], [])})


def verify_doubling(spec: ModelSpec, grid_size: int = 64) -> VerificationReport:
    """Sum of n lowest levels at phi and phi+pi equals the sum of 2n lowest
    levels of the periodically doubled ring at 2*phi, pointwise on a grid."""
    grid = flux_grid(grid_size)
    doubled = extend_ring(spec)
    n = spec.N // 2 if spec.N >= 2 else 1
    n = min(max(n, 1), spec.L)
    resid = 0.0
    for phi in grid:
        lhs = lowest_sum(spec, n, phi) + lowest_sum(spec, n, phi + math.pi)
        rhs = lowest_sum(doubled, 2 * n, 2.0 * phi)
        resid = max(resid, abs(lhs - rhs))
    measured = {"n": n, "grid_size": grid_size, "max_residual": resid}
    return _report("lowest-sum-doubling", spec, measured,
                   {"max_residual": (1e-10, [resid], [])})


def verify_singlet(spec: ModelSpec) -> VerificationReport:
    """Uniqueness and spin of the ground state at the model's own flux.

    Passes when the global ground state is a single multiplet with S = 0
    (even N) or S = 1/2 (odd N) -- i.e. degeneracy one in the minimal
    sector, the expected spin there, and every sector with |2Sz| > 2S
    strictly above the ground energy. Every multiplet has a member in the
    minimal sector, so S^2 and the degeneracy are read there alone, S^2
    built once the Hamiltonian's solve is done; the sectors above it give
    their ground energies only (negative sectors mirror them by the
    up-down exchange symmetry of the Hamiltonian).
    """
    two_sz_min = minimal_two_sz(spec.N)
    expected_spin = 0.0 if spec.N % 2 == 0 else 0.5
    basis = sector_basis_for(spec)
    base = ground(build_hamiltonian(spec, basis))
    spins = base.spins(build_total_spin(basis))
    del basis  # its hopping table and layout, before the next sector's
    energies = {two_sz_min: base.energy}
    for two_sz in range(two_sz_min + 2, spec.N + 1, 2):
        h = build_hamiltonian(spec, sector_basis_for(spec, two_sz))
        energies[two_sz] = ground(h, want_vectors=False).energy
    e0 = min(energies.values())
    above = {ts: e - e0 for ts, e in energies.items() if ts > 2 * expected_spin}
    measured = {
        "sector_energies": energies,
        "minimal_sector_degeneracy": base.degeneracy,
        "minimal_sector_spins": sorted(spins),
        "expected_spin": expected_spin,
        "excess_above_ground": above,
    }
    return _report("unique-singlet-ground", spec, measured,
                   {"degeneracy_window": (_ground_window(e0), [abs(base.energy - e0)],
                                          above.values())},
                   exact=base.degeneracy == 1 and spins == {expected_spin})


def _flux_roles(L: int) -> tuple[float, float]:
    """(zero_role, pi_role): statements about flux 0 and pi swap on odd rings."""
    return (0.0, math.pi) if L % 2 == 0 else (math.pi, 0.0)


def _hardcore_grounds(basis: SectorBasis, family: FluxFamily, angles) -> list[GroundInfo]:
    """The ground level of a hard-core sector's family at each angle,
    solved block by block.

    The hard-core operator is block diagonal (decompose_blocks), so its
    ground space is the direct sum of the ground spaces of the blocks that
    reach the minimum (Aizenman & Lieb, PRL 65, 1470 (1990)). Each block is
    solved on its restricted family under ground's policy; the blocks
    within the ground window of the lowest energy keep their vectors,
    embedded in the sector, where the spins of the joint level are read
    (GroundInfo.spins: S^2 mixes blocks). A block whose solve ends without
    clearing its ground level (GroundInfo.saturated) raises MultipletCut.
    """
    blocks = decompose_blocks(basis)
    subs = [family.restrict(b.member_indices) for b in blocks]
    out = []
    for phi in angles:
        infos = [ground(sub.hamiltonian(phi)) for sub in subs]
        for b, info in zip(blocks, infos):
            if info.saturated:
                raise MultipletCut(
                    f"block {b.representative} at phi={phi}: {info.degeneracy} locked "
                    "ground vectors without clearing the ground level: the multiplet "
                    "may be cut, so its spin content is undefined")
        e0 = min(info.energy for info in infos)
        cut = e0 + _ground_window(e0)
        low = [k for k, info in enumerate(infos) if info.energy <= cut]
        gap = min([infos[k].energy + infos[k].gap - e0 for k in low]
                  + [info.energy - e0 for info in infos if info.energy > cut])
        vectors = np.zeros((basis.dim, sum(infos[k].degeneracy for k in low)), dtype=complex)
        col = 0
        for k in low:
            deg = infos[k].degeneracy
            vectors[list(blocks[k].member_indices), col:col + deg] = infos[k].vectors
            col += deg
        method = "+".join(sorted({info.method for info in infos}))
        out.append(GroundInfo(e0, col, gap, vectors, method))
    return out


def verify_relation(spec: ModelSpec) -> VerificationReport:
    """Hard-core even N < L: absence of a maximal-spin ground state at the
    zero-role flux is equivalent to a strict drop of the N-level sum at the
    pi-role flux, and that absence in fact always holds; the hard-core
    ground energies at both fluxes coincide with the pi-role level sum.

    Both sides of the biconditional are evaluated independently: spin
    content via S^2 projected onto the ground space, which is solved block
    by block (_hardcore_grounds), the level sums from the one-particle
    problem. Since the absence always holds, the biconditional asks for
    the strict drop, a gap judged against the strictness tolerance.
    """
    _require_hardcore(spec)
    if spec.N % 2 or spec.N >= spec.L:
        raise HypothesisViolated("requires even N < L")
    phi0, phi1 = _flux_roles(spec.L)
    basis = sector_basis_for(spec, 0)
    g0, g1 = _hardcore_grounds(basis, flux_family(spec, basis), (phi0, phi1))
    s2 = build_total_spin(basis)
    spins0, spins1 = g0.spins(s2), g1.spins(s2)

    s_max = spec.N / 2.0
    has_ferro_0 = s_max in spins0
    has_ferro_1 = s_max in spins1
    f_zero = lowest_sum(spec, spec.N, phi0)
    f_pi = lowest_sum(spec, spec.N, phi1)
    tol = 1e-10
    strict_drop = f_zero - f_pi > tol

    e_equal = abs(g0.energy - g1.energy)
    e_vs_sum = abs(g0.energy - f_pi)
    measured = {
        "zero_role_flux": phi0,
        "ground_spins_zero": sorted(spins0),
        "ground_spins_pi": sorted(spins1),
        "has_maximal_spin_zero": has_ferro_0,
        "levelsum_zero": f_zero,
        "levelsum_pi": f_pi,
        "strict_drop": strict_drop,
        "hardcore_energy_zero": g0.energy,
        "hardcore_energy_pi": g1.energy,
        "energy_equality_residual": e_equal,
        "energy_vs_levelsum_residual": e_vs_sum,
    }
    return _report("spin-flux-relation", spec, measured,
                   {"energy": (tol, [e_equal, e_vs_sum], []),
                    "strictness": (tol, [], [f_zero - f_pi])},
                   exact=not has_ferro_0 and has_ferro_1)


def _sign_fixed_spec(spec: ModelSpec) -> ModelSpec:
    """Bulk bonds at phase pi, closing bond at 0: the gauge in which the
    hard-core matrix is non-positive; its flux is the pi role on any ring."""
    phases = (math.pi,) * (spec.L - 1) + (0.0,)
    return validate(ModelSpec(spec.L, spec.N, spec.hop_mag, phases, spec.V, spec.U))


def ferromagnetic_state(spec: ModelSpec, basis: SectorBasis) -> np.ndarray:
    """Member in basis, a hard-core sector of spec, of the maximal-spin
    ground multiplet at the pi-role flux.

    Read off the ground vector of the fully polarized (spinless) sector in
    the sign-fixed gauge: S^- turns a spin between the two adjacent modes
    of its site, so it carries no sign, and lowering the polarized vector
    k times gives each state with k down spins k! times the amplitude of
    its charge configuration. Normalized and phase-fixed to be entrywise
    positive (the Perron-Frobenius property of that gauge). A polarized
    ground level found degenerate raises DegenerateGround; a basis that is
    not hard-core or has another L or N raises BasisMismatch.
    """
    _require_hardcore(spec)
    _check_basis(spec, basis)
    basis_pol = enumerate_sector(spec.L, spec.N, spec.N, hardcore=True)
    info = ground(build_hamiltonian(_sign_fixed_spec(spec), basis_pol))
    if info.degeneracy != 1:  # Perron-Frobenius makes it simple in this gauge
        raise DegenerateGround(f"the polarized ground level is {info.degeneracy}-fold "
                               "within the degeneracy window, so no single "
                               "Perron-Frobenius vector is defined")
    codes = basis.codes
    vec = info.vectors[basis_pol.locate((codes | codes >> 1) & UP_MODES), 0]
    vec = vec / np.linalg.norm(vec)
    return vec * np.exp(-1j * np.angle(vec[np.argmax(np.abs(vec))]))


def spiral_state(spec: ModelSpec):
    """Gauge the ferromagnetic hard-core ground state into a singlet.

    For N = 4n+2, the maximal-spin ground state at the pi-role flux (built
    as the positive ground vector of the polarized sector, lowered into
    Sz = 0) is carried by a sign gauge onto a singlet ground state at the
    zero-role flux. The gauge doing it is not unique, because the
    hard-core operator is block diagonal. Within each block the phases are
    those of the gauge carrying the negative envelope of H(zero role) to
    H(zero role) on the hard-core sector; every block is connected and
    both operators are real, so they are unique up to one sign per block.
    The claim is that some choice of those block constants turns the
    ferromagnet into a singlet. That choice is found by exact enumeration
    of per-block sign patterns, and the winner is certified by the
    measured S^2 expectation, the eigenvalue residual, and the
    conjugation property of the assembled gauge. Returns (state, report);
    the state lives in the Sz = 0 hard-core basis. A sector of more than
    SIGN_SEARCH_BLOCKS blocks raises MethodLimit once that basis, its
    hopping table and its layout are built to find the blocks, before any
    operator is. The exact condition pf_min_entry > 0 is judged outside the
    table.
    """
    _require_hardcore(spec)
    if spec.N % 4 != 2:
        raise NotFourNPlusTwo(f"N={spec.N} is not of the form 4n+2")

    phi_zero, phi_pi = _flux_roles(spec.L)
    # In the sign-fixed gauge the hard-core matrix has non-positive entries
    # and equals the envelope of H(zero role).
    spec_ferro = _sign_fixed_spec(spec)
    assert angle_dist(spec_ferro.flux, phi_pi) < 1e-12

    basis0 = sector_basis_for(spec, 0)
    blocks = decompose_blocks(basis0)
    if len(blocks) > SIGN_SEARCH_BLOCKS:
        raise MethodLimit(f"{len(blocks)} blocks exceed the sign search's limit "
                          f"of {SIGN_SEARCH_BLOCKS}")
    h_ferro = build_hamiltonian(spec_ferro, basis0)
    h_zero = build_hamiltonian(with_flux(spec, phi_zero), basis0)
    envelope = negative_envelope(h_zero)
    # both operands are data arrays on the layout of basis0
    envelope_gap = float(np.abs(h_ferro.mat.data - envelope.mat.data).max())

    ferro = ferromagnetic_state(spec, basis0)
    pf_min_entry = float(ferro.real.min())
    pf_imag = float(np.abs(ferro.imag).max())

    # Any per-block constant is itself a gauge of the block-diagonal
    # operator, so the phases are fixed up to the signs searched below.
    phases = solve_sign_gauge(envelope, h_zero)
    s2 = build_total_spin(basis0)
    base_state = phases * ferro
    block_of = np.empty(basis0.dim, dtype=np.intp)
    for k, b in enumerate(blocks):
        block_of[list(b.member_indices)] = k
    best_signs, best_s2, state = None, math.inf, None
    for signs in product((1.0, -1.0), repeat=len(blocks)):
        cand = np.array(signs)[block_of] * base_state
        s2_val = float(np.real(np.vdot(cand, s2.matvec(cand))))
        if s2_val < best_s2:
            best_signs, best_s2, state = signs, s2_val, cand

    gauge = np.array(best_signs)[block_of] * phases
    conj_resid = conjugation_residual(gauge, h_ferro, h_zero)

    e0 = ground(h_zero, want_vectors=False).energy
    residual = float(np.linalg.norm(h_zero.matvec(state) - e0 * state))
    norm_drift = abs(float(np.linalg.norm(state)) - 1.0)

    measured = {
        "envelope_matches_sign_gauge": envelope_gap,
        "gauge_conjugation_residual": conj_resid,
        "pf_min_entry": pf_min_entry,
        "pf_imag_max": pf_imag,
        "block_signs": list(best_signs),
        "spin_expectation": best_s2,
        "energy_residual": residual,
        "ground_energy": e0,
        "norm_drift": norm_drift,
        "gauge_is_sign": is_sign_gauge(gauge),
    }
    return state, _report("spiral-singlet", spec, measured,
                          {"spin_expectation": (1e-8, [best_s2], []),
                           "energy_residual": (1e-9, [residual], []),
                           "norm_drift": (1e-12, [norm_drift], []),
                           "envelope_matches_sign_gauge": (1e-12, [envelope_gap], []),
                           "gauge_conjugation_residual": (1e-10, [conj_resid], [])},
                          exact=pf_min_entry > 0.0)


def verify_block_lemma(spec: ModelSpec, grid_size: int = 90) -> VerificationReport:
    """Hard-core block structure: every block's energy curve has period
    2*pi/p, and the minimum over blocks is attained on a full-period block
    at every grid point. On even rings with even N the block minima at the
    pi-role flux agree and bound each block curve from below.

    Each block's curve is solved on its own family by _ground_energies,
    under the eigensolver policy and DENSE_LIMIT. E(phi_i + 2*pi/p) is
    read from the curve G/p grid steps on when p divides G, and E(pi) from
    the grid point equal to pi (separate solves of other matrices); else
    both are solved directly.
    """
    _require_hardcore(spec)
    _require_hopping(spec)
    basis = sector_basis_for(spec, 0)
    blocks = decompose_blocks(basis)
    family = flux_family(spec, basis)
    subs = [family.restrict(b.member_indices) for b in blocks]
    grid = flux_grid(grid_size)

    curves = np.column_stack([_ground_energies(sub, grid) for sub in subs])  # (G, K)
    period_resid = 0.0
    for k, (b, sub) in enumerate(zip(blocks, subs)):
        shifted = _shifted(curves[:, k], b.period, sub)
        period_resid = max(period_resid, float(np.abs(shifted - curves[:, k]).max()))

    full = [k for k, b in enumerate(blocks) if b.period == spec.N]
    if full:
        lemma_gap = float((curves[:, full].min(axis=1) - curves.min(axis=1)).max())
    else:
        lemma_gap = math.inf

    measured = {
        "blocks": [{"period": b.period, "dimension": b.dimension,
                    "representative": b.representative} for b in blocks],
        "period_residual": period_resid,
        "full_period_min_gap": lemma_gap,
    }
    judged = {"period_residual": (1e-10, [period_resid], []),
              "full_period_min_gap": (1e-10, [lemma_gap], [])}
    if spec.L % 2 == 0 and spec.N % 2 == 0:
        on_grid = np.flatnonzero(grid == math.pi)
        at_pi = (curves[on_grid[0]] if len(on_grid)
                 else np.array([_ground_energies(sub, [math.pi])[0] for sub in subs]))
        eq_two = float(np.abs(at_pi - at_pi[0]).max())
        eq_three = float(max(0.0, (at_pi[None, :] - curves).max()))
        measured["pi_block_minima_spread"] = eq_two
        measured["diamagnetic_violation"] = eq_three
        judged["pi_block_minima_spread"] = (1e-10, [eq_two], [])
        judged["diamagnetic_violation"] = (1e-10, [eq_three], [])
    return _report("hardcore-block-lemma", spec, measured, judged)


def thermal_scan(spec: ModelSpec, betas=(0.5, 1.0, 2.0),
                 grid_size: int = 90) -> VerificationReport:
    """Finite-temperature behaviour of the sector partition function.

    Odd free half filling: the quarter-turn fluxes are critical points of P.
    The central-difference derivative of log P there, (dP/dphi) / P, is
    judged at every beta: it vanishes exactly where dP/dphi does, and it
    stays finite and free of the factor exp(beta |E_0|) that P carries into
    the rounding noise of dP/dphi (the maximizer may wander at large beta,
    which is recorded but never judged). Its window is 1e-8, or the
    rounding noise of the difference quotient where that grows past it
    with beta * max|E|. Even N: the maximizer sits at the
    zero-temperature optimal flux for every beta. Maximizers are taken from
    log P, which has the argmax of P and stays finite at any beta. Odd N
    away from free half filling is claimed nothing about, and raises
    HypothesisViolated; no beta at all leaves nothing to judge, and raises
    ValueError.
    """
    if len(betas) == 0:
        raise ValueError("thermal_scan needs at least one beta")
    _require_hopping(spec)
    odd_free_halffill = (
        spec.N == spec.L and spec.N % 2 == 1 and not spec.hardcore
        and all(u == 0.0 for u in spec.U) and all(v == 0.0 for v in spec.V)
    )
    if spec.N % 2 and not odd_free_halffill:
        raise HypothesisViolated("odd N requires free half filling (N = L, U = 0, V = 0)")
    two_sz = minimal_two_sz(spec.N)
    family = flux_family(spec, sector_basis_for(spec, two_sz))
    grid = flux_grid(grid_size)

    measured: dict = {"betas": list(betas), "two_sz": two_sz}
    log_p = log_partition_sweep((family.hamiltonian(phi) for phi in grid), betas)
    argmax = {beta: float(grid[int(np.argmax(row))]) for beta, row in zip(betas, log_p)}

    if odd_free_halffill:
        h = 1e-2  # half-width of the central difference
        ends = [family.hamiltonian(fold_angle(c + s * h))
                for c in (0.5 * math.pi, 1.5 * math.pi) for s in (1, -1)]
        log_p = log_partition_sweep(ends, betas)
        derivs = {beta: max(abs(lp - lm) for lp, lm in zip(row[0::2], row[1::2])) / (2.0 * h)
                  for beta, row in zip(betas, log_p)}
        # Each log P carries the rounding of its -beta*E_min term, up to a
        # few eps*beta*max|E|, so the difference quotient carries noise of
        # that over h; 2.7 times eps*beta*||H||/h at most on rings of 3 and
        # 5 sites for beta up to 1e8. The window grows with it, at 16 times
        # that, above the floor of 1e-8. The largest absolute row sum bounds
        # max|E|, and it is the same at every flux.
        norm = float(abs(ends[0].mat).sum(axis=1).max())
        window = max(1e-8, 16.0 * np.finfo(float).eps * max(betas) * norm / h)
        measured["critical_point_log_derivative"] = derivs
        measured["argmax"] = argmax
        judged = {"critical_point_log_derivative": (window, derivs.values(), [])}
    else:
        expected = _even_optima(spec)
        deviation = {b: min(angle_dist(a, e) for e in expected)
                     for b, a in argmax.items()}
        measured["argmax"] = argmax
        measured["expected_argmax"] = expected
        measured["argmax_deviation"] = deviation
        judged = {"argmax_deviation": (TWO_PI / grid_size / 2.0 + 1e-12, deviation.values(), [])}
    return _report("thermal-critical-points", spec, measured, judged)
