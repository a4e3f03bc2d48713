"""Compare two sets of benchmark result files, workload by workload.

    python3 fluxbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result files run.py wrote (fluxbench/results/ of
two checkouts). Untraced runs are paired by seed, in the order they ran.
For every end-to-end metric the table gives each side's median and
quartiles, the share of pairs the change won (ties count for neither) and
a verdict:

  improved    the change won at least 9 in 10 pairs and its median is better
              by more than the distance between the base's quartiles;
  no worse    the change's median is not worse than the base's by more than
              the metric's bound in BENCHMARK.json;
  worse       it is, and the spread of both sides is within the bound;
  unresolved  the spread (quartile distance over median) of either side is
              wider than the bound, and not every change run beats every
              base run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[str, dict[int, list[dict]]]:
    """workload -> seed -> untraced result records, oldest first."""
    out: dict = defaultdict(lambda: defaultdict(list))
    paths = sorted(Path(directory).glob("*.json"))
    for path in paths:
        if path.name.endswith(".spans.json"):
            continue
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            out[rec["workload"]][rec["environment"]["seed"]].append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base: list[float], change: list[float], pairs, higher: bool,
            bound: float) -> tuple[str, float]:
    sign = 1.0 if higher else -1.0
    won = sum(sign * (c - b) > 0 for b, c in pairs) / len(pairs) if pairs else 0.0
    q1b, mb, q3b = quartiles(base)
    q1c, mc, q3c = quartiles(change)
    gain = sign * (mc - mb)
    spread = max((q3b - q1b) / abs(mb) if mb else 0.0,
                 (q3c - q1c) / abs(mc) if mc else 0.0)
    if won >= 0.9 and gain > q3b - q1b:
        return "improved", won
    if spread > bound and min(sign * c for c in change) <= max(sign * b for b in base):
        return "unresolved", won
    return ("no worse" if -gain <= bound * abs(mb) else "worse"), won


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, change = load(argv[0]), load(argv[1])
    for workload in sorted(set(base) | set(change)):
        b_runs = [r for seed in sorted(base[workload]) for r in base[workload][seed]]
        c_runs = [r for seed in sorted(change[workload]) for r in change[workload][seed]]
        print(f"\n{workload}: {len(b_runs)} base runs, {len(c_runs)} change runs")
        if not b_runs or not c_runs:
            print("  nothing to compare")
            continue
        for side, runs in (("base", b_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            env = runs[0]["environment"]
            print(f"  {side}: failed_frac {failed / attempted:.4g} ({failed}/{attempted}), "
                  f"{env['cpu_model']}, nproc {env['nproc']}, {env['blas']} "
                  f"x{env['blas_threads']}, commit {env['git_commit']}")
        pairs = [p for s in sorted(set(base[workload]) & set(change[workload]))
                 for p in zip(base[workload][s], change[workload][s])]
        print(f"  {len(pairs)} pairs by seed")
        print(f"  {'metric':16} {'unit':5} {'base median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'won':>5}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            pv = [(p[0]["metrics"][name]["value"], p[1]["metrics"][name]["value"])
                  for p in pairs]
            v, won = verdict(bv, cv, pv, m["better"] == "higher", m["bound"])
            cols = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (quartiles(bv), quartiles(cv))]
            print(f"  {name:16} {m['unit']:5} {cols[0]:34} {cols[1]:34} {won:5.2f}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
