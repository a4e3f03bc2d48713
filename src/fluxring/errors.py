"""Exception hierarchy for fluxring."""


class FluxRingError(Exception):
    """Base class for all fluxring errors."""


class ModelError(FluxRingError):
    """Invalid model definition."""


class RingTooSmall(ModelError):
    """Ring length below 3 (a 2-site ring duplicates its single bond)."""


class BadLength(ModelError):
    """A per-bond or per-site list does not have length L."""


class ZeroHopping(ModelError):
    """Some hopping magnitude is not strictly positive."""


class HardCoreOverfill(ModelError):
    """Hard-core mode with more particles than sites."""


class MixedInteraction(ModelError):
    """Per-site interaction mixes finite and infinite values."""


class EmptySector(FluxRingError):
    """Sector constraints are unsatisfiable."""


class BasisMismatch(FluxRingError):
    """Operator construction received a basis built for a different model."""


class PotentialPresent(FluxRingError):
    """Operation requires V = 0."""


class InteractionPresent(FluxRingError):
    """Operation requires U = 0."""


class FluxObstruction(FluxRingError):
    """Two operators are not gauge equivalent: a cycle carries mismatched flux."""


class NoConvergence(FluxRingError):
    """Iterative eigensolver exhausted its budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TooLargeForDense(FluxRingError):
    """Dense spectrum requested above the dense size limit."""


class MultipletCut(FluxRingError):
    """Ground vectors that may cut a spin multiplet: a saturated deflation,
    or S^2 projected on them with an eigenvalue not of the form s(s+1)."""


class DegenerateGround(FluxRingError):
    """A ground level that theory makes simple came out degenerate within
    the degeneracy window, so no single ground vector can be picked."""


class RingTooLong(FluxRingError):
    """Ring longer than the 64-bit configuration codes allow (2L > 64)."""


class HypothesisViolated(FluxRingError):
    """A verifier was handed a model outside the hypotheses of its claim."""


class MethodLimit(FluxRingError):
    """A verifier's method cannot take an input this large; the claim's
    hypotheses may well hold."""


class NotFourNPlusTwo(FluxRingError):
    """Spiral-state construction requires N = 4n + 2."""


class UnknownFixture(FluxRingError):
    """Fixture generator does not know the requested name."""
