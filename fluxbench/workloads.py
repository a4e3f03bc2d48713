"""Benchmark workloads: inputs drawn from the workload seed, and one callable
per verification that returns the verifier's verdict and its report.

Every workload is a pool of verifications drawn at set-up. The pool holds
the same mix of sizes on every seed; only the random magnitudes and
potentials change. A run goes through the pool pass after pass, so each
verification is timed several times on the same inputs (see run.py).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fluxring import analysis, cli
from fluxring.fixtures import gen_fixture
from fluxring.model import INFINITY, make_spec, save_model, with_flux


@dataclass(frozen=True)
class Outcome:
    passed: bool
    report: dict          # the report as to_dict() or the CLI would write it


@dataclass(frozen=True)
class Case:
    label: str
    run: Callable[[], Outcome]


def _library(verifier, spec, **kwargs) -> Callable[[], Outcome]:
    # Looked up by name at call time, so the traced run sees the wrapped verifier.
    def run():
        report = getattr(analysis, verifier)(spec, **kwargs)
        if isinstance(report, tuple):      # spiral_state returns (state, report)
            report = report[1]
        return Outcome(bool(report.passed), report.to_dict())
    return run


def _cli(argv: list[str], out: str) -> Callable[[], Outcome]:
    def run():
        code = cli.run(argv + ["--out", out])
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        if (code == 0) != bool(report["passed"]):
            raise RuntimeError(f"exit code {code} disagrees with passed={report['passed']}")
        return Outcome(code == 0, report)
    return run


def even_scan(seed: int, workdir: str) -> list[Case]:
    """Criterion-1 family: L in {4,5,6}, every even N <= L, U in {-2, 0, 3},
    random |t| in [0.5, 2] and random V; each (L, N, U) once, 21 verifications.
    They run largest first, so that the partial pass at the end of a run
    repeats the ones that take most of its time.

    verify_even fails on about 1% of these instances (README.md, known
    findings); those count in failed_frac and lower pass_frac."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for L in (4, 5, 6):
        for N in range(2, L + 1, 2):
            for u in (-2.0, 0.0, 3.0):
                spec = make_spec(L, N, rng.uniform(0.5, 2.0, L), None,
                                 rng.normal(0.0, 1.0, L), u)
                cases.append(Case(f"even L={L} N={N} U={u:g}",
                                  _library("verify_even", spec, grid_size=64)))
    return cases[::-1]


def odd_scan(seed: int, workdir: str) -> list[Case]:
    """verify_odd at L=7 half filling on twelve random-hop fixtures, on the
    Lanczos path.

    Not in BENCHMARK.json: its memory-bound Lanczos steps made its timings
    too unsteady on a shared machine (see README.md). Run it by name."""
    rng = np.random.default_rng([seed, 2])
    cases = []
    for _ in range(12):
        fixture_seed = int(rng.integers(2**31))
        spec = gen_fixture("random-hop", seed=fixture_seed, L=7)
        cases.append(Case(f"odd L=7 fixture seed {fixture_seed}",
                          _library("verify_odd", spec, grid_size=32, method="lanczos")))
    return cases


def singlet_L10(seed: int, workdir: str) -> list[Case]:
    """verify_singlet at L=10, N=10, U=2 with random |t|, at the even-N optimal
    flux; every Sz sector up to dimension 63,504. Two verifications.

    Not in BENCHMARK.json: its memory-bound Lanczos steps made its timings
    too unsteady on a shared machine (see README.md). Run it by name."""
    rng = np.random.default_rng([seed, 3])
    phi = analysis.even_optimal_flux(10, 10)
    specs = [with_flux(make_spec(10, 10, rng.uniform(0.5, 2.0, 10), None, None, 2.0), phi)
             for _ in range(2)]
    return [Case("singlet L=10 N=10 U=2", _library("verify_singlet", spec)) for spec in specs]


def hardcore_blocks(seed: int, workdir: str) -> list[Case]:
    """`fluxring verify` in process on hard-core model files written here:
    blocks (L=8, N=6, grid 90), spiral (L=10, N=6), relation (L=8, N=6),
    two models each."""
    rng = np.random.default_rng([seed, 4])
    cases = []
    for r in range(2):
        for claim, L, extra in (("blocks", 8, ["--grid", "90"]),
                                ("spiral", 10, []),
                                ("relation", 8, [])):
            model = os.path.join(workdir, f"{claim}-{r}.json")
            save_model(make_spec(L, 6, rng.uniform(0.5, 2.0, L), None, None, INFINITY), model)
            argv = ["verify", claim, "--model", model] + extra
            cases.append(Case(f"cli verify {claim} L={L} N=6",
                              _cli(argv, os.path.join(workdir, f"{claim}-{r}.out.json"))))
    return cases


WORKLOADS = {
    "even_scan": even_scan,
    "odd_scan": odd_scan,
    "singlet_L10": singlet_L10,
    "hardcore_blocks": hardcore_blocks,
}


#: Tolerance keys whose judged quantity is not the same-named measured entry:
#: key -> (judged values, True when the check is value < tolerance).
#: Every other tolerance key judges measured[key] < tolerance.
_JUDGED = {
    "angle": (lambda m: [m[k] for k in ("max_angle_deviation", "argmin_coverage") if k in m], True),
    "energy": (lambda m: [m["energy_equality_residual"], m["energy_vs_levelsum_residual"]], True),
    "degeneracy_window": (lambda m: list(m["excess_above_ground"].values()), False),
    "strictness": (lambda m: [m["levelsum_zero"] - m["levelsum_pi"]], False),
}


def margins(report: dict) -> list[float]:
    """log10 of the factor by which each judged quantity clears its tolerance.

    A residual r judged as r < tol gives log10(tol / |r|); an exact zero
    clears by an unbounded factor and is left out. A gap g judged as g > tol
    gives log10(g / tol), and a gap of 0 or less, which no tolerance can
    clear, gives -inf. Non-finite measured values are left out.
    """
    measured, out = report["measured"], []
    for key, tol in report["tolerance"].items():
        values, below = _JUDGED.get(key, (lambda m, k=key: [m[k]], True))
        try:
            judged = values(measured)
        except KeyError:        # a tolerance without a measured counterpart
            continue
        for v in judged:
            v = float(v) if v is not None else 0.0
            if not math.isfinite(v):
                continue
            if below:
                if v != 0.0:
                    out.append(math.log10(tol / abs(v)))
            else:
                out.append(math.log10(v / tol) if v > 0.0 else -math.inf)
    return out
