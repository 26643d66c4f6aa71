"""Exception types shared across the package, and the integer check that raises one."""

import operator


class CoinWalkError(Exception):
    """Base class for every error raised by coinwalk."""


class NonUnitaryInput(CoinWalkError):
    """A matrix that must be unitary failed the unitarity check."""


class ConvergenceFailure(CoinWalkError):
    """The eigensolver did not converge or produced an invalid decomposition."""


class DimensionMismatch(CoinWalkError):
    """Vector/matrix dimensions are inconsistent with the walk definition."""


class DegenerateDispersion(CoinWalkError):
    """The bands of the walk cross where the computation needs them apart.

    Raised by the closed form at a k where sin^2(gamma) ~ 0, and by the
    quadrature for a 2x2 coin with a zero off-diagonal entry, whose two bands
    cross wherever U_k is scalar.
    """


class NormalizationError(CoinWalkError):
    """A state or weight function is not normalized to within tolerance."""


class NumericalFailure(CoinWalkError):
    """An internal numerical consistency check failed."""


class InvalidArgument(CoinWalkError):
    """A size, count or time-window argument is outside its valid range."""


class FormatError(CoinWalkError):
    """A text input (walk config, state grammar, angle literal) did not parse."""


def as_int(value, what: str) -> int:
    """``value`` as an int; :class:`InvalidArgument` unless it is an int64 integer."""
    try:
        value = operator.index(value)
    except TypeError as exc:
        raise InvalidArgument(f"{what} must be an integer, got {value!r}") from exc
    if not -(2**63) <= value < 2**63:
        raise InvalidArgument(f"{what} must fit in a 64-bit integer, got {value}")
    return value
