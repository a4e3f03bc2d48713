"""Theorem-level verifiers: flux scans, argmin refinement, periodicity,
block structure, singlet/uniqueness checks, the spin-flux biconditional,
the spiral state and finite-temperature scans.

Every verifier returns a VerificationReport holding the measured
quantities next to the tolerances they were judged against, so a failing
report is self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .basis import SectorBasis, decompose_blocks, enumerate_sector
from .errors import DegenerateGround, HypothesisViolated, MethodLimit, NotFourNPlusTwo
from .model import ModelSpec, angle_dist, fold_angle, validate, with_flux
from .operators import (
    DiagonalGauge,
    FluxFamily,
    apply_lowering,
    build_hamiltonian,
    build_total_spin,
    conjugation_residual,
    extend_ring,
    flux_family,
    negative_envelope,
    solve_sign_gauge,
)
from .spectra import (
    GROUND_TOL,
    FluxCurve,
    GroundInfo,
    _ground_energies,
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
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "instance": self.instance,
            "measured": _jsonable(self.measured),
            "tolerance": _jsonable(self.tolerance),
            "passed": bool(self.passed),
            "notes": list(self.notes),
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


def flux_grid(grid_size: int) -> np.ndarray:
    """The uniform grid of grid_size angles on [0, 2*pi); at least 8."""
    if grid_size < 8:
        raise ValueError(f"grid size must be at least 8, got {grid_size}")
    return np.arange(grid_size) * (TWO_PI / grid_size)


def _shifted(values: np.ndarray, grid: np.ndarray, p: int, energies) -> np.ndarray:
    """E(phi_i + 2*pi/p) at every grid angle: the curve G/p steps on when p
    divides G (separate solves of other matrices), else energies(angles),
    which solves the shifted grid."""
    if len(grid) % p == 0:
        return np.roll(values, -(len(grid) // p))
    return energies(grid + TWO_PI / p)


def scan_flux(spec: ModelSpec, two_sz: int | None = None, grid_size: int = 720,
              method: str = "auto") -> FluxCurve:
    """Ground energy over a uniform flux grid on [0, 2*pi)."""
    grid = flux_grid(grid_size)
    family = flux_family(spec, sector_basis_for(spec, two_sz))
    return FluxCurve(grid, _ground_energies(family, grid, method), f"E_{spec.N}")


def _current(family: FluxFamily, phi: float, method: str) -> tuple[float, float, float]:
    """Ground energy at phi and the least and greatest persistent current
    dE/dphi there: dH/dphi projected onto the ground vectors
    (Hellmann-Feynman), whose eigenvalues are the one-sided slopes of E."""
    phi = fold_angle(phi)
    info = ground(family.hamiltonian(phi), want_vectors=True, max_degeneracy=0,
                  method=method)
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


def refine_argmin(curve: FluxCurve, spec: ModelSpec, two_sz: int | None = None,
                  method: str = "auto") -> list[float]:
    """All global minimizers of the scanned energy, refined to REFINE_XTOL in angle.

    Each grid-local minimum is refined to the root of the persistent
    current dE/dphi between its two grid neighbours; one without an upward
    crossing of the current there keeps its grid angle and scanned energy.
    Refined minima within VALUE_TOL of the global minimum are returned
    (folded, deduplicated). A flat curve returns every grid angle.
    """
    values = curve.values
    n = len(values)
    if float(values.max() - values.min()) <= VALUE_TOL:
        return [float(g) for g in curve.grid]

    basis = sector_basis_for(spec, two_sz)
    family = flux_family(spec, basis)
    current = lambda phi: _current(family, phi, method)

    spacing = TWO_PI / n
    candidates = []
    for i in range(n):
        left, right = values[(i - 1) % n], values[(i + 1) % n]
        if values[i] <= left and values[i] <= right:
            x = float(curve.grid[i])
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


def verify_even(spec: ModelSpec, grid_size: int = 240) -> VerificationReport:
    """Even particle number: the optimal flux sits where the theory puts it.

    Finite coupling: the refined argmin equals (N/2+1)*pi (even ring) or
    N*pi/2 (odd ring). Hard-core: the argmin set is {2*pi*n/N} and the
    curve has period 2*pi/N, checked at every grid angle.
    """
    if spec.N % 2 or spec.N > spec.L:
        raise HypothesisViolated("requires even N <= L")
    _require_hopping(spec)
    curve = scan_flux(spec, two_sz=0, grid_size=grid_size)
    minima = refine_argmin(curve, spec, two_sz=0)

    if not spec.hardcore:
        expected = [even_optimal_flux(spec.L, spec.N)]
    else:
        expected = [fold_angle(TWO_PI * k / spec.N) for k in range(spec.N)]
    deviation = max(min(angle_dist(x, e) for e in expected) for x in minima)
    covered = max(min(angle_dist(e, x) for x in minima) for e in expected) if spec.hardcore else 0.0

    measured = {
        "argmin": minima,
        "expected": expected,
        "max_angle_deviation": deviation,
        "min_energy": float(curve.values.min()),
    }
    tolerance = {"angle": ANGLE_MATCH_TOL}
    ok = deviation <= ANGLE_MATCH_TOL

    if spec.hardcore:
        family = flux_family(spec, sector_basis_for(spec, 0))
        shifted = _shifted(curve.values, curve.grid, spec.N,
                           lambda angles: _ground_energies(family, angles))
        resid = float(np.abs(shifted - curve.values).max())
        measured["period"] = TWO_PI / spec.N
        measured["period_residual"] = resid
        measured["argmin_coverage"] = covered
        tolerance["period_residual"] = 1e-10
        ok = ok and resid < 1e-10 and covered <= ANGLE_MATCH_TOL

    return VerificationReport(
        claim="even-optimal-flux" if not spec.hardcore else "hardcore-optimal-flux",
        instance=describe(spec), measured=measured, tolerance=tolerance, passed=ok)


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
    curve = scan_flux(spec, two_sz=1, grid_size=grid_size, method=method)
    half_turn = _shifted(curve.values, curve.grid, 2, None)  # grid_size is even
    period_resid = float(np.abs(curve.values - half_turn).max())
    minima = refine_argmin(curve, spec, two_sz=1, method=method)
    expected = [0.5 * math.pi, 1.5 * math.pi]
    deviation = max(min(angle_dist(x, e) for e in expected) for x in minima)
    coverage = max(min(angle_dist(e, x) for x in minima) for e in expected)

    n = spec.N // 2
    chain_resid = 0.0
    for k in range(0, grid_size, max(1, grid_size // 8)):
        phi, e_many = float(curve.grid[k]), float(curve.values[k])
        split = lowest_sum(spec, n, phi) + lowest_sum(spec, n + 1, phi)
        halfshift = lowest_sum(spec, n, phi) + lowest_sum(spec, n, phi + math.pi)
        chain_resid = max(chain_resid, abs(e_many - split), abs(split - halfshift))

    measured = {
        "argmin": minima,
        "expected": expected,
        "max_angle_deviation": deviation,
        "argmin_coverage": coverage,
        "period_residual": period_resid,
        "reduction_residual": chain_resid,
        "min_energy": float(curve.values.min()),
    }
    tolerance = {"angle": ANGLE_MATCH_TOL, "period_residual": 1e-10,
                 "reduction_residual": 1e-9}
    ok = (deviation <= ANGLE_MATCH_TOL and coverage <= ANGLE_MATCH_TOL
          and period_resid < 1e-10 and chain_resid < 1e-9)
    return VerificationReport("odd-halffill-optimal-flux", describe(spec),
                              measured, tolerance, ok)


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
    return VerificationReport("lowest-sum-doubling", describe(spec), measured,
                              {"max_residual": 1e-10}, resid < 1e-10)


def ground_manifold_spins(spec: ModelSpec) -> dict[int, GroundInfo]:
    """Ground data per two_sz >= minimal sector (negative sectors mirror by
    the up-down exchange symmetry of the Hamiltonian)."""
    out = {}
    for two_sz in range(minimal_two_sz(spec.N), spec.N + 1, 2):
        basis = enumerate_sector(spec.L, spec.N, two_sz, spec.hardcore)
        h = build_hamiltonian(spec, basis)
        s2 = build_total_spin(basis)
        out[two_sz] = ground(h, s2=s2)
    return out


def verify_singlet(spec: ModelSpec) -> VerificationReport:
    """Uniqueness and spin of the ground state at the model's own flux.

    Sweeps every Sz sector: passes when the global ground state is a single
    multiplet with S = 0 (even N) or S = 1/2 (odd N) -- i.e. degeneracy one
    in the minimal sector, the expected spin there, and every sector with
    |2Sz| > 2S strictly above the ground energy.
    """
    sectors = ground_manifold_spins(spec)
    two_sz_min = minimal_two_sz(spec.N)
    expected_spin = 0.0 if spec.N % 2 == 0 else 0.5
    base = sectors[two_sz_min]
    e0 = min(info.energy for info in sectors.values())
    window = GROUND_TOL * max(1.0, abs(e0))

    above = {
        ts: info.energy - e0
        for ts, info in sectors.items()
        if ts > 2 * expected_spin
    }
    unique = (
        base.degeneracy == 1
        and abs(base.energy - e0) <= window
        and base.spins() == {expected_spin}
        and all(gap > window for gap in above.values())
    )
    measured = {
        "sector_energies": {ts: info.energy for ts, info in sectors.items()},
        "minimal_sector_degeneracy": base.degeneracy,
        "minimal_sector_spins": sorted(base.spins()),
        "expected_spin": expected_spin,
        "excess_above_ground": above,
    }
    return VerificationReport("unique-singlet-ground", describe(spec), measured,
                              {"degeneracy_window": window}, unique)


def _flux_roles(L: int) -> tuple[float, float]:
    """(zero_role, pi_role): statements about flux 0 and pi swap on odd rings."""
    return (0.0, math.pi) if L % 2 == 0 else (math.pi, 0.0)


def verify_relation(spec: ModelSpec) -> VerificationReport:
    """Hard-core even N < L: absence of a maximal-spin ground state at the
    zero-role flux is equivalent to a strict drop of the N-level sum at the
    pi-role flux, and that absence in fact always holds; the hard-core
    ground energies at both fluxes coincide with the pi-role level sum.

    Both sides of the biconditional are evaluated independently: spin
    content via the projected S^2, the level sums from the one-particle
    problem.
    """
    if not spec.hardcore:
        raise HypothesisViolated("requires the hard-core interaction")
    if spec.N % 2 or spec.N >= spec.L:
        raise HypothesisViolated("requires even N < L")
    phi0, phi1 = _flux_roles(spec.L)
    basis = sector_basis_for(spec, 0)
    s2 = build_total_spin(basis)
    g0 = ground(build_hamiltonian(with_flux(spec, phi0), basis), s2=s2)
    g1 = ground(build_hamiltonian(with_flux(spec, phi1), basis), s2=s2)

    s_max = spec.N / 2.0
    has_ferro_0 = s_max in g0.spins()
    has_ferro_1 = s_max in g1.spins()
    f_zero = lowest_sum(spec, spec.N, phi0)
    f_pi = lowest_sum(spec, spec.N, phi1)
    strict_drop = f_pi < f_zero - 1e-10

    e_equal = abs(g0.energy - g1.energy)
    e_vs_sum = abs(g0.energy - f_pi)
    ok = ((not has_ferro_0) == strict_drop) and (not has_ferro_0) and has_ferro_1 \
        and e_equal < 1e-10 and e_vs_sum < 1e-10

    measured = {
        "zero_role_flux": phi0,
        "ground_spins_zero": sorted(g0.spins()),
        "ground_spins_pi": sorted(g1.spins()),
        "has_maximal_spin_zero": has_ferro_0,
        "levelsum_zero": f_zero,
        "levelsum_pi": f_pi,
        "strict_drop": strict_drop,
        "hardcore_energy_zero": g0.energy,
        "hardcore_energy_pi": g1.energy,
        "energy_equality_residual": e_equal,
        "energy_vs_levelsum_residual": e_vs_sum,
    }
    return VerificationReport("spin-flux-relation", describe(spec), measured,
                              {"energy": 1e-10, "strictness": 1e-10}, ok)


def _sign_fixed_spec(spec: ModelSpec) -> ModelSpec:
    """Bulk bonds at phase pi, closing bond at 0: the gauge in which the
    hard-core matrix is non-positive; its flux is the pi role on any ring."""
    phases = (math.pi,) * (spec.L - 1) + (0.0,)
    return validate(ModelSpec(spec.L, spec.N, spec.hop_mag, phases, spec.V, spec.U))


def ferromagnetic_state(spec: ModelSpec) -> np.ndarray:
    """Sz = 0 member of the maximal-spin ground multiplet at the pi-role flux.

    Built as the ground vector of the fully polarized (spinless) sector in
    the sign-fixed gauge, lowered N/2 times; phase-fixed to be entrywise
    positive there (the Perron-Frobenius property of that gauge). A
    polarized ground level found degenerate raises DegenerateGround.
    """
    if not spec.hardcore:
        raise HypothesisViolated("requires the hard-core interaction")
    spec_ferro = _sign_fixed_spec(spec)
    basis_pol = enumerate_sector(spec.L, spec.N, spec.N, hardcore=True)
    info = ground(build_hamiltonian(spec_ferro, basis_pol))
    if info.degeneracy != 1:  # Perron-Frobenius makes it simple in this gauge
        raise DegenerateGround(f"the polarized ground level is {info.degeneracy}-fold "
                               "within the degeneracy window, so no single "
                               "Perron-Frobenius vector is defined")
    vec = info.vectors[:, 0]
    src = basis_pol
    for two_sz in range(spec.N - 2, -1, -2):
        dst = enumerate_sector(spec.L, spec.N, two_sz, hardcore=True)
        vec = apply_lowering(vec, src, dst)
        src = dst
    vec = vec / np.linalg.norm(vec)
    return vec * np.exp(-1j * np.angle(vec[np.argmax(np.abs(vec))]))


def spiral_state(spec: ModelSpec):
    """Gauge the ferromagnetic hard-core ground state into a singlet.

    For N = 4n+2, the maximal-spin ground state at the pi-role flux (built
    as the positive ground vector of the polarized sector, lowered into
    Sz = 0) is carried by a sign gauge onto a singlet ground state at the
    zero-role flux. The gauge doing it is not unique, because the
    hard-core operator is block diagonal. Within each block the phases are
    inherited from the finite-coupling problem (connected free sector, so
    unique up to a global phase); the remaining freedom is one constant
    per block, and the claim is that some choice of those constants turns
    the ferromagnet into a singlet. That choice is found by exact
    enumeration of per-block sign patterns, and the winner is certified by
    the measured S^2 expectation, the eigenvalue residual, and the
    conjugation property of the assembled gauge. Returns (state, report);
    the state lives in the Sz = 0 hard-core basis. A sector of more than
    SIGN_SEARCH_BLOCKS blocks raises MethodLimit before anything is built.
    """
    if not spec.hardcore:
        raise HypothesisViolated("requires the hard-core interaction")
    if spec.N % 4 != 2:
        raise NotFourNPlusTwo(f"N={spec.N} is not of the form 4n+2")

    L, N = spec.L, spec.N
    phi_zero, phi_pi = _flux_roles(L)
    # In the sign-fixed gauge the hard-core matrix has non-positive entries
    # and equals the envelope of H(zero role) restricted to hard-core states.
    spec_ferro = _sign_fixed_spec(spec)
    assert angle_dist(spec_ferro.flux, phi_pi) < 1e-12

    basis0 = sector_basis_for(spec, 0)
    blocks = decompose_blocks(basis0, spec)
    if len(blocks) > SIGN_SEARCH_BLOCKS:
        raise MethodLimit(f"{len(blocks)} blocks exceed the sign search's limit "
                          f"of {SIGN_SEARCH_BLOCKS}")
    h_ferro = build_hamiltonian(spec_ferro, basis0)
    h_zero = build_hamiltonian(with_flux(spec, phi_zero), basis0)
    # both operands are data arrays on the layout of basis0
    envelope_gap = float(np.abs(h_ferro.mat.data - negative_envelope(h_zero).mat.data).max())

    ferro = ferromagnetic_state(spec)
    pf_min_entry = float(ferro.real.min())
    pf_imag = float(np.abs(ferro.imag).max())

    # Within-block phases are inherited from the finite-coupling problem,
    # whose free-sector graph is connected and therefore pins the gauge up
    # to one global phase there.
    free_spec = validate(ModelSpec(L, N, spec.hop_mag,
                                   with_flux(spec, phi_zero).hop_phase,
                                   spec.V, (0.0,) * L))
    free_basis = enumerate_sector(L, N, 0, hardcore=False)
    h_free = build_hamiltonian(free_spec, free_basis)
    gauge_free = solve_sign_gauge(negative_envelope(h_free), h_free)
    restricted = gauge_free.phases[free_basis.locate(basis0.codes)]
    del free_basis, h_free, gauge_free  # the free sector's table, layout and operators

    # The restriction leaves one constant per hard-core block free (any
    # per-block constant is itself a gauge of the block-diagonal operator).
    # The claim is that some choice sends the ferromagnet to a singlet;
    # solve for it by exact enumeration of sign patterns.
    s2 = build_total_spin(basis0)
    base_state = restricted * ferro
    best_signs, best_s2, best_state = None, math.inf, None
    for signs in product((1.0, -1.0), repeat=len(blocks)):
        z = np.empty(basis0.dim)
        for zc, b in zip(signs, blocks):
            z[list(b.member_indices)] = zc
        cand = z * base_state
        s2_val = float(np.real(np.vdot(cand, s2.matvec(cand))))
        if s2_val < best_s2:
            best_signs, best_s2, best_state = signs, s2_val, cand

    z = np.empty(basis0.dim)
    for zc, b in zip(best_signs, blocks):
        z[list(b.member_indices)] = zc
    gauge = DiagonalGauge(z * restricted)
    state = best_state
    conj_resid = conjugation_residual(gauge, h_ferro, h_zero)

    e0 = ground(h_zero, want_vectors=False, max_degeneracy=0).energy
    residual = float(np.linalg.norm(h_zero.matvec(state) - e0 * state))
    s2_exp = best_s2
    norm_drift = abs(float(np.linalg.norm(state)) - 1.0)

    measured = {
        "envelope_matches_sign_gauge": envelope_gap,
        "gauge_conjugation_residual": conj_resid,
        "pf_min_entry": pf_min_entry,
        "pf_imag_max": pf_imag,
        "block_signs": list(best_signs),
        "spin_expectation": s2_exp,
        "energy_residual": residual,
        "ground_energy": e0,
        "norm_drift": norm_drift,
        "gauge_is_sign": gauge.is_sign_gauge(),
    }
    tolerance = {"spin_expectation": 1e-8, "energy_residual": 1e-9, "norm_drift": 1e-12}
    ok = (s2_exp < 1e-8 and residual < 1e-9 and norm_drift < 1e-12
          and envelope_gap <= 1e-12 and conj_resid <= 1e-10 and pf_min_entry > 0.0)
    report = VerificationReport("spiral-singlet", describe(spec), measured,
                                tolerance, ok)
    return state, report


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
    if not spec.hardcore:
        raise HypothesisViolated("requires the hard-core interaction")
    _require_hopping(spec)
    basis = sector_basis_for(spec, 0)
    blocks = decompose_blocks(basis, spec)
    family = flux_family(spec, basis)
    subs = [family.restrict(b.member_indices) for b in blocks]
    grid = flux_grid(grid_size)

    curves = np.column_stack([_ground_energies(sub, grid) for sub in subs])  # (G, K)
    period_resid = 0.0
    for k, (b, sub) in enumerate(zip(blocks, subs)):
        shifted = _shifted(curves[:, k], grid, b.period,
                           lambda angles: _ground_energies(sub, angles))
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
    tolerance = {"period_residual": 1e-10, "full_period_min_gap": 1e-10}
    ok = period_resid < 1e-10 and lemma_gap < 1e-10

    if spec.L % 2 == 0 and spec.N % 2 == 0:
        on_grid = np.flatnonzero(grid == math.pi)
        at_pi = (curves[on_grid[0]] if len(on_grid)
                 else np.array([_ground_energies(sub, [math.pi])[0] for sub in subs]))
        eq_two = float(np.abs(at_pi - at_pi[0]).max())
        eq_three = float(max(0.0, (at_pi[None, :] - curves).max()))
        measured["pi_block_minima_spread"] = eq_two
        measured["diamagnetic_violation"] = eq_three
        tolerance["pi_block_minima_spread"] = 1e-10
        tolerance["diamagnetic_violation"] = 1e-10
        ok = ok and eq_two < 1e-10 and eq_three < 1e-10

    return VerificationReport("hardcore-block-lemma", describe(spec), measured,
                              tolerance, ok)


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
    log P, which has the argmax of P and stays finite at any beta.
    """
    _require_hopping(spec)
    two_sz = minimal_two_sz(spec.N)
    family = flux_family(spec, sector_basis_for(spec, two_sz))

    odd_free_halffill = (
        spec.N == spec.L and spec.N % 2 == 1 and not spec.hardcore
        and all(u == 0.0 for u in spec.U) and all(v == 0.0 for v in spec.V)
    )
    grid = flux_grid(grid_size)

    measured: dict = {"betas": list(betas), "two_sz": two_sz}
    tolerance: dict = {}
    ok = True
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
        window = max(1e-8, 16.0 * np.finfo(float).eps * max(betas, default=0.0) * norm / h)
        measured["critical_point_log_derivative"] = derivs
        measured["argmax"] = argmax
        tolerance["critical_point_log_derivative"] = window
        ok = all(d < window for d in derivs.values())
    elif spec.N % 2 == 0:
        if spec.hardcore:
            expected = [fold_angle(TWO_PI * k / spec.N) for k in range(spec.N)]
        else:
            expected = [even_optimal_flux(spec.L, spec.N)]
        deviation = {b: min(angle_dist(a, e) for e in expected)
                     for b, a in argmax.items()}
        measured["argmax"] = argmax
        measured["expected_argmax"] = expected
        measured["argmax_deviation"] = deviation
        tolerance["argmax_deviation"] = TWO_PI / grid_size / 2.0 + 1e-12
        ok = all(d <= tolerance["argmax_deviation"] for d in deviation.values())
    else:
        measured["argmax"] = argmax
        ok = True

    return VerificationReport("thermal-critical-points", describe(spec), measured,
                              tolerance, ok)
