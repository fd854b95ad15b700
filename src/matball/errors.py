"""Exception hierarchy for numerical guards and domain violations."""


class MatballError(Exception):
    """Base class for all library errors."""


class PoleError(MatballError):
    """A Gamma factor was evaluated at (or within tolerance of) a pole."""


class DegenerateConnection(MatballError):
    """c - a - b is a (near-)integer, so the two-term connection formula
    for 2F1 at argument near 1 degenerates into the logarithmic case."""


class ConvergenceError(MatballError):
    """An iterative evaluation failed to meet its tail tolerance."""


class DomainError(MatballError):
    """An argument violates a documented domain restriction."""


class HypothesisError(DomainError):
    """s lies outside a hypothesis of a theorem; the message names it."""


class SingularError(MatballError):
    """det(I - Z U*) vanished; the point lies on the singular set."""


class CoincidentError(MatballError):
    """Coincident entries in a tuple that must be pairwise distinct."""


class MarginError(MatballError):
    """Finite-difference probes would leave the matrix ball."""


class GuardError(MatballError):
    """A parameter sits inside the exclusion radius of a forbidden point."""


class RangeError(MatballError):
    """A value is zero, non-finite or too small for the floating-point
    computation that consumes it to stay accurate."""
