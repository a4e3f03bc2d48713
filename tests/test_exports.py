"""The public surface stays as small as its callers need.

A name in fluxring.__all__ needs a caller: a use, outside its own definition
and outside type annotations, in a package module other than __init__.py
(the CLI included) or in the benchmark under fluxbench/. Tests do not
count, so reference code only tests call lives with the tests.
"""

import ast
import inspect
from pathlib import Path

import fluxring as fr
from fluxring import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fluxring"


class _Uses(ast.NodeVisitor):
    """Names read in a module, keyed by the top-level definition they sit in
    (None outside every definition); annotations are skipped."""

    def __init__(self):
        self.uses: set[tuple[str | None, str]] = set()
        self.owner: str | None = None

    def visit_Module(self, node):
        for stmt in node.body:
            targets = [t.id for t in getattr(stmt, "targets", []) if isinstance(t, ast.Name)]
            self.owner = getattr(stmt, "name", None) or (targets[0] if targets else None)
            self.visit(stmt)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.uses.add((self.owner, node.id))

    def visit_Attribute(self, node):
        self.uses.add((self.owner, node.attr))
        self.visit(node.value)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)

    def _visit_def(self, node):
        for child in node.decorator_list + node.args.defaults + node.args.kw_defaults:
            if child is not None:
                self.visit(child)
        for stmt in node.body:
            self.visit(stmt)

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_def


def _callers() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "fluxbench").glob("*.py"))
    used = set()
    for path in sources:
        visitor = _Uses()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        used |= {name for owner, name in visitor.uses if owner != name}
    return used


def test_every_exported_name_has_a_caller():
    unused = sorted(set(fr.__all__) - _callers())
    assert unused == [], f"exported without a caller: {unused}"


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) == len(set(imported))
    assert sorted(fr.__all__) == sorted(imported)
    assert len(fr.__all__) == len(set(fr.__all__))


def test_errors_define_exactly_the_kinds_callers_act_on():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert defined == {
        "FluxRingError", "ModelError", "EmptySector", "BasisMismatch",
        "FluxObstruction", "NoConvergence", "MultipletCut", "DegenerateGround",
        "HypothesisViolated", "MethodLimit",
    }
    assert all(issubclass(getattr(errors, name), errors.FluxRingError) for name in defined)
