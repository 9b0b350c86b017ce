"""Exception types shared across the lab, and the domain check that the
exponents, the campaigns and the jet inequalities share."""


class EmdenLabError(Exception):
    """Base class for all lab errors."""


class DomainError(EmdenLabError):
    """A coordinate or parameter lies outside its admissible domain."""


def require_domain(n_values, p_values):
    """The paper's domain, n >= 2 and p > 1, for every n and p given (a
    NaN p is outside): the exponents, the campaigns and the jet
    inequalities share it."""
    if any(n < 2 for n in n_values) or not all(p > 1 for p in p_values):
        raise DomainError("need n >= 2 and p > 1")


class PreconditionError(EmdenLabError):
    """A documented precondition of an operation is violated."""


class SingularJetError(EmdenLabError):
    """An operation hit the critical set (|grad u| below the cutoff)."""


class NumericalError(EmdenLabError):
    """A quadrature or integration step failed to reach its tolerance."""


class InputError(EmdenLabError):
    """Inconsistent or malformed user input (flags, config, evaluators)."""
