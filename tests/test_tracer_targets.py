"""The benchmark's tracer wraps fluxring functions and methods by name and
reads attributes of their results; each of those names must exist, or the
traced benchmark runs break. The tracer is imported, never installed."""

import importlib.util
import sys
from pathlib import Path

from fluxring import operators

TRACER = Path(__file__).resolve().parents[1] / "fluxbench" / "tracer.py"


def _tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("fluxbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(monkeypatch):
    tracer = _tracer(monkeypatch)
    missing = [f"{module.__name__}.{attr}" for _, module, attr in tracer._FUNCTIONS
               if not callable(getattr(module, attr, None))]
    missing += [f"{cls.__name__}.{attr}" for _, cls, attr in tracer._METHODS
                if not callable(getattr(cls, attr, None))]
    assert missing == []
    assert callable(operators.SparseHermitian.matvec)
    for attr in ("rows", "diag"):   # read off each traced flux_family result
        assert hasattr(operators.FluxFamily, attr), attr
