"""fluxring benchmark: closed-loop verifier workloads, timed end to end.

    python3 fluxbench/run.py --workload odd_scan --seed 1 --seconds 30 --trace 0

One process, one caller: verifications run back to back. Each workload is
a pool of verifications drawn from the seed (see workloads.py). The run
goes through the pool pass after pass and stops between two verifications
once the first pass is complete and --seconds have passed. Every repeat of
a verification must reproduce its first report. A verification's time is
the fastest of its repeats, so that a burst of load from other tenants of
the machine slows one repeat, not the figure.

A verification counts as passed only when its report, and for the CLI its
exit code, say so; one that fails lowers pass_frac. attempted and failed
count each verification of the pool once, so they depend on the seed
alone. The run is incorrect only when the benchmark itself breaks: a
verification raises, a CLI exit code disagrees with its report, a report
says passed while one of its judged quantities misses its tolerance, or a
repeat or a traced pass does not reproduce the first report's digest.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the pool runs untraced and traced, a pass each, and the line
holds the per-layer metrics. Each run also writes a result file with the
environment and the report digests to fluxbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

#: BLAS threads. On a 2-core machine one thread ran the block-lemma verifier,
#: with its many small dense eigensolves, about 15% faster than two; a fixed
#: count keeps every report bit-reproducible from run to run.
BLAS_THREADS = 1
#: Set before numpy is first imported. Without numpy's huge-page advice a
#: process's large arrays do not depend on how many huge pages the kernel
#: can find at that moment, which varied from one run to the next.
RUN_ENV = {**{v: str(BLAS_THREADS) for v in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
           "NUMPY_MADVISE_HUGEPAGE": "0"}

#: Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5

#: A verification shorter than this runs again, back to back, within a pass
#: until this much time has gone on it, so that the smallest ones get as many
#: repeats as their share of the run allows.
MIN_CASE_S = 0.3

_SETUP_CHILD = """
import sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
with tempfile.TemporaryDirectory(dir={results!r}) as work:
    workloads.WORKLOADS[{workload!r}]({seed!r}, work)
"""


def measure(pool, seconds: float, min_case_s: float = MIN_CASE_S) -> dict:
    """Run the pool pass after pass; stop between two verifications once the
    first pass is complete and `seconds` have passed. With `seconds` 0 this
    is one pass. Within a pass a verification repeats until `min_case_s` have
    gone on it; every repeat must reproduce the report of its first run."""
    from workloads import margins

    n = len(pool)
    times = [[] for _ in pool]
    digests, passed = [""] * n, [False] * n
    failures, errors, inconsistent, unstable = [], [], [], []
    margin_list, no_gap, rss_mb = [], 0, 0.0
    t0 = time.perf_counter()
    for k in itertools.count():
        if k >= n and time.perf_counter() - t0 >= seconds:
            break
        i, case = k % n, pool[k % n]
        spent, repeats = 0.0, []
        while not repeats or (spent < min_case_s and outcome is not None):
            c0 = time.perf_counter()
            try:
                outcome = case.run()
            except Exception:  # a crash fails the verification and the run
                traceback.print_exc()
                outcome = None
            times[i].append(time.perf_counter() - c0)
            spent += times[i][-1]
            text = None if outcome is None else json.dumps(
                outcome.report, sort_keys=True, separators=(",", ":"))
            repeats.append("error" if text is None else hashlib.sha256(text.encode()).hexdigest())
        if k == n - 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if k < n:
            digests[i] = repeats[0]
        if any(d != digests[i] for d in repeats):
            unstable.append(case.label)
            print(f"repeat changed its report: {case.label}", file=sys.stderr)
        if k >= n:
            continue
        if outcome is None:
            failures.append(case.label)
            errors.append(case.label)
            continue
        passed[i] = outcome.passed
        case_margins = margins(outcome.report)
        finite = [m for m in case_margins if math.isfinite(m)]
        margin_list.extend(finite)
        no_gap += len(case_margins) - len(finite)
        if outcome.passed and any(m < 0.0 for m in case_margins):
            inconsistent.append(case.label)
            print(f"passed outside a tolerance: {case.label}: {text}", file=sys.stderr)
        if not outcome.passed:
            failures.append(case.label)
            print(f"verification failed: {case.label}: {text}", file=sys.stderr)
    return {
        "wall_s": time.perf_counter() - t0,
        "best_s": [min(t) for t in times],
        "times_s": times,
        "peak_rss_mb": rss_mb,
        "labels": [case.label for case in pool],
        "passed": passed,
        "failures": failures,
        "errors": errors,
        "inconsistent": inconsistent,
        "unstable": unstable,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "digests": digests,
        "margins_min": min(margin_list) if margin_list else None,
        "margins_without_gap": no_gap,
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    code = _SETUP_CHILD.format(src=str(ROOT / "src"), bench=str(BENCH),
                               results=str(RESULTS), workload=workload, seed=seed)
    env = {**os.environ, **RUN_ENV}
    out = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t)
    return out


def blas_threads_in_use() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it is found."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas*.so"):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fluxring").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def end_to_end(run: dict, setup: list[float]) -> dict:
    """Each verification counts with the fastest of its repeats. Throughput is
    the passed verifications over the summed time of all of them. Peak RSS is
    taken after the first pass: later passes repeat the same work, and how
    many fit in the run must not move the figure."""
    best = run["best_s"]
    passed = sum(run["passed"])
    return {
        "verify_per_s": (passed / sum(best), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "pass_frac": (passed / len(best), "frac"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "fluxring" / "__init__.py").is_file():
        print(f"fluxbench: no fluxring source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(RUN_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import fluxring
    import workloads

    if Path(fluxring.__file__).resolve().parent != ROOT / "src" / "fluxring":
        print(f"fluxbench: imported fluxring from {fluxring.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    RESULTS.mkdir(exist_ok=True)
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=RESULTS) as work:
        pool = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            from tracer import Recorder, unit

            # One untimed pass warms first calls and page faults. Then the
            # pool runs untraced and traced, a pass each, so that drift of
            # the machine's speed falls on both alike. The second of two
            # passes over the same inputs runs a few percent faster than the
            # first, so the order alternates and the pairs come in twos.
            # No verification repeats within a pass, so both passes do the
            # same work.
            measure(pool, 0.0, 0.0)
            recorder, plain, spanned = Recorder(), [], []

            def traced_pass():
                recorder.install()
                try:
                    return measure(pool, 0.0, 0.0)
                finally:
                    recorder.uninstall()

            t0 = time.perf_counter()
            for k in itertools.count():
                if k % 2 == 0 and plain and time.perf_counter() - t0 >= args.seconds:
                    break
                if k % 2 == 0:
                    plain.append(measure(pool, 0.0, 0.0))
                    spanned.append(traced_pass())
                else:
                    spanned.append(traced_pass())
                    plain.append(measure(pool, 0.0, 0.0))
            runs = plain + spanned
            traced_s = sum(r["wall_s"] for r in spanned)
            verifications = len(pool) * len(spanned)
            metrics = recorder.layer_metrics(verifications)
            metrics["trace.verify_s"] = traced_s / verifications
            metrics["trace.overhead_frac"] = traced_s / sum(r["wall_s"] for r in plain) - 1.0
            metrics["analysis.tol_margin_dec"] = plain[0]["margins_min"]
            metrics = {k: (v, unit(k)) for k, v in metrics.items()}
            correct = all(r["digest"] == plain[0]["digest"] for r in runs)
        else:
            runs = [measure(pool, args.seconds)]
            metrics = end_to_end(runs[0], setup)
            correct = True

    attempted = len(pool)
    failed = len(runs[0]["failures"])
    correct = correct and not any(r["errors"] or r["inconsistent"] or r["unstable"]
                                  for r in runs)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    if args.trace:
        recorder.dump(str(RESULTS / f"{name}.spans.json"))
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "setup_samples_s": setup,
        # Not gated: the median of a pool of mixed sizes lands on whichever
        # size class sits in its middle (README.md, end-to-end metrics).
        "verify_p50_s": statistics.median(runs[0]["best_s"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "runs": runs,
    }
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
