"""Span recorder for the traced benchmark run, installed from outside the package.

`Recorder.install` replaces fluxring's public functions at each module
boundary with wrappers, in every fluxring module namespace that holds them
(so `analysis.ground` and `spectra.ground` are both wrapped), and
`uninstall` puts the originals back. The package source is not
instrumented. Spans are kept in memory with parent links. The recorder
assumes one calling thread, which is how the benchmark calls fluxring.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from fluxring import analysis, basis, cli, operators, spectra

#: (span name, defining module, function name). Every span named
#: "analysis.*" counts toward analysis self time.
_FUNCTIONS = [
    ("basis.enumerate_sector", basis, "enumerate_sector"),
    ("basis.decompose_blocks", basis, "decompose_blocks"),
    ("operators.flux_family", operators, "flux_family"),
    ("operators.build_hamiltonian", operators, "build_hamiltonian"),
    ("operators.build_total_spin", operators, "build_total_spin"),
    ("operators.gauge", operators, "solve_sign_gauge"),
    ("operators.gauge", operators, "negative_envelope"),
    ("operators.gauge", operators, "apply_lowering"),
    ("spectra.ground", spectra, "ground"),
    ("spectra.lowest_sum", spectra, "lowest_sum"),
    ("analysis.scan_flux", analysis, "scan_flux"),
    ("analysis.refine_argmin", analysis, "refine_argmin"),
    ("analysis.verify", analysis, "verify_even"),
    ("analysis.verify", analysis, "verify_odd"),
    ("analysis.verify", analysis, "verify_singlet"),
    ("analysis.verify", analysis, "verify_relation"),
    ("analysis.verify", analysis, "verify_block_lemma"),
    ("analysis.verify", analysis, "spiral_state"),
    ("cli.run", cli, "run"),
]

_METHODS = [
    ("operators.family_eval", operators.FluxFamily, "hamiltonian"),
    ("operators.family_eval", operators.FluxFamily, "dense"),
]

#: Per-layer metrics that are the total time of one span name. Nested spans
#: of the same name are counted once, through the outermost.
_TIMED = {
    "basis.enumerate_sector.s": "basis.enumerate_sector",
    "basis.decompose_blocks.s": "basis.decompose_blocks",
    "operators.flux_family.s": "operators.flux_family",
    "operators.build_hamiltonian.s": "operators.build_hamiltonian",
    "operators.build_total_spin.s": "operators.build_total_spin",
    "operators.family_eval.s": "operators.family_eval",
    "operators.gauge.s": "operators.gauge",
    "spectra.ground.s": "spectra.ground",
    "spectra.lowest_sum.s": "spectra.lowest_sum",
}


def unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_dec"):
        return "dec"
    return "frac" if metric.endswith("_frac") else "count"


@dataclass
class Span:
    name: str
    parent: int               # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _on_result(self, span: Span, args, kwargs, result) -> None:
        c = self.counts
        name = span.name
        if name == "basis.enumerate_sector":
            c["basis.states"] += result.dim
        elif name == "basis.decompose_blocks":
            c["basis.blocks"] += len(result)
        elif name == "operators.flux_family":
            c["operators.nnz"] += len(result.rows) + int(np.count_nonzero(result.diag))
        elif name in ("operators.build_hamiltonian", "operators.build_total_spin"):
            c["operators.nnz"] += result.mat.nnz
        elif name == "spectra.ground":
            H = args[0] if args else kwargs["H"]
            span.attrs = {"method": result.method, "dim": H.dim}
        elif name == "analysis.refine_argmin":
            c["analysis.minima"] += len(result)
        elif name == "analysis.verify" and isinstance(result, tuple):
            c["analysis.sign_patterns"] += 2 ** len(result[1].measured["block_signs"])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._on_result(span, args, kwargs, result)
            return result
        return wrapper

    def _wrap_matvec(self, fn):
        @functools.wraps(fn)
        def matvec(op, v):
            self.counts["spectra.matvecs"] += 1 if np.ndim(v) == 1 else np.shape(v)[1]
            return fn(op, v)
        return matvec

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fluxring" or name.startswith("fluxring.")]
        for name, module, attr in _FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        for name, cls, attr in _METHODS:
            self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))
        matvec = operators.SparseHermitian.matvec
        self._patch(operators.SparseHermitian, "matvec", self._wrap_matvec(matvec))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def _has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def layer_metrics(self, verifications: int) -> dict[str, float]:
        """Per-layer metrics per verification (dim_max and ratios excepted)."""
        per = 1.0 / verifications
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        total = defaultdict(float)
        self_time = defaultdict(float)
        for i, s in enumerate(self.spans):
            self_time[s.name.split(".")[0]] += s.end - s.start - child_time[i]
            if not self._has_ancestor(s, s.name):
                total[s.name] += s.end - s.start

        grounds = [s for s in self.spans if s.name == "spectra.ground"]
        refine = sum(self._has_ancestor(s, "analysis.refine_argmin") for s in grounds)
        out = {metric: total[name] * per for metric, name in _TIMED.items()}
        c = self.counts
        out.update({
            "basis.states": c["basis.states"] * per,
            "basis.blocks": c["basis.blocks"] * per,
            "operators.nnz": c["operators.nnz"] * per,
            "operators.family_eval.calls":
                sum(s.name == "operators.family_eval" for s in self.spans) * per,
            "spectra.ground.calls": len(grounds) * per,
            "spectra.ground_dense.calls":
                sum(s.attrs.get("method") == "dense" for s in grounds) * per,
            "spectra.ground_lanczos.calls":
                sum(s.attrs.get("method") == "lanczos" for s in grounds) * per,
            "spectra.ground.dim_max": max((s.attrs.get("dim", 0) for s in grounds), default=0),
            "spectra.matvecs": c["spectra.matvecs"] * per,
            "analysis.scan_evals":
                sum(self._has_ancestor(s, "analysis.scan_flux") for s in grounds) * per,
            "analysis.refine_evals": refine * per,
            "analysis.evals_per_minimum":
                refine / c["analysis.minima"] if c["analysis.minima"] else 0.0,
            "analysis.self_s": self_time["analysis"] * per,
            "analysis.sign_patterns": c["analysis.sign_patterns"] * per,
            "cli.self_s": self_time["cli"] * per,
        })
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [[s.name, s.parent, s.start, s.end, s.attrs]
                                 for s in self.spans],
                       "counts": dict(self.counts)}, fh)
