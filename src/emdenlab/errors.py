"""Exception types shared across the lab."""


class EmdenLabError(Exception):
    """Base class for all lab errors."""


class DomainError(EmdenLabError):
    """A coordinate or parameter lies outside its admissible domain."""


class PreconditionError(EmdenLabError):
    """A documented precondition of an operation is violated."""


class SingularJetError(EmdenLabError):
    """An operation hit the critical set (|grad u| below the cutoff)."""


class NumericalError(EmdenLabError):
    """A quadrature or integration step failed to reach its tolerance."""


class InputError(EmdenLabError):
    """Inconsistent or malformed user input (flags, config, evaluators)."""
