"""Exception types shared across the package."""

from contextlib import contextmanager


class PlanorthError(Exception):
    """Base class for all package errors."""


class TruncationOverflowError(PlanorthError):
    """Discarded coefficient mass of a truncated series operation exceeded tolerance."""


class ConvergenceError(PlanorthError):
    """An iterative procedure (Newton inversion) failed to converge."""


class DomainError(PlanorthError):
    """Input outside the mathematical domain of the operation."""


class OffSpectralError(DomainError):
    """Evaluation point is not separated from the closed domain."""


class OutOfValidityError(PlanorthError):
    """Expansion requested at a point outside the declared validity region."""


class WeightResolutionError(PlanorthError):
    """Weight pullback is not harmonic, or not resolved at the bandwidth, to the tolerance."""


class PositivityError(PlanorthError):
    """Weight is not strictly positive where it must be."""


class DegreeTooHighError(PlanorthError):
    """The boundary oracle cannot orthonormalize to the requested degree: its Gram
    matrix or ``log kappa_n`` does not settle at any circle sample count it tries."""


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
