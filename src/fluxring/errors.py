"""Exception hierarchy for fluxring: each error is a FluxRingError of one
kind, and the CLI exits 2 on each.

- ModelError: a malformed model, model file or fixture name.
- HypothesisViolated: a model outside the hypotheses of the claim asked of it.
- MethodLimit: too large for the dense size, 64-bit codes, memory or sign search.
- The rest: an empty sector, a foreign basis or a computation that failed.
"""


class FluxRingError(Exception):
    """Base class for all fluxring errors."""


class ModelError(FluxRingError):
    """Invalid model definition."""


class EmptySector(FluxRingError):
    """Sector constraints are unsatisfiable."""


class BasisMismatch(FluxRingError):
    """Operator construction received a basis built for a different model."""


class FluxObstruction(FluxRingError):
    """Two operators are not gauge equivalent: a cycle carries mismatched flux."""


class NoConvergence(FluxRingError):
    """Iterative eigensolver exhausted its budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class MultipletCut(FluxRingError):
    """Ground vectors that may cut a spin multiplet: a saturated deflation,
    or S^2 projected on them with an eigenvalue not of the form s(s+1)."""


class DegenerateGround(FluxRingError):
    """A ground level that theory makes simple came out degenerate within
    the degeneracy window, so no single ground vector can be picked."""


class HypothesisViolated(FluxRingError):
    """A model outside the hypotheses of the claim or construction asked of it."""


class MethodLimit(FluxRingError):
    """An input too large for a method, though the claim may hold."""
