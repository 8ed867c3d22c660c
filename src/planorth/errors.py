"""Exception types shared across the package."""

from contextlib import contextmanager


class PlanorthError(Exception):
    """Base class for all package errors."""


class TruncationOverflowError(PlanorthError):
    """Discarded coefficient mass of a truncated series operation exceeded tolerance."""


class ConvergenceError(PlanorthError):
    """An iterative procedure (series exponential, Newton inversion) failed to converge."""


class DomainError(PlanorthError):
    """Input outside the mathematical domain of the operation."""


class OffSpectralError(DomainError):
    """Evaluation point is not separated from the closed domain."""


class OutOfValidityError(PlanorthError):
    """Expansion requested at a point outside the declared validity region."""


class WeightResolutionError(PlanorthError):
    """Weight pullback could not be resolved on the annulus to the requested tolerance."""


class PositivityError(PlanorthError):
    """Weight is not strictly positive where it must be."""


class NonStarlikeError(PlanorthError):
    """Domain is not starlike with respect to the boundary centroid."""


class DegreeTooHighError(PlanorthError):
    """Quadrature resolution insufficient for the requested polynomial degree."""


class ConsistencyError(PlanorthError):
    """An internal cross-check failed (a quantity that must be real or normalized is not)."""


class NonFiniteError(PlanorthError):
    """A result overflows a float or is not finite."""


class ConfigError(PlanorthError):
    """Malformed or inconsistent configuration input."""


@contextmanager
def stage(name: str):
    """Prefix a :class:`PlanorthError` raised inside the block with ``[stage: name]``."""
    try:
        yield
    except PlanorthError as exc:
        exc.args = (f"[stage: {name}] {exc}",)
        raise
