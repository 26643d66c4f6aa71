"""Exception types shared across the package, one per CLI exit code, and an integer check."""

import operator


class CoinWalkError(Exception):
    """Base class for every error raised by coinwalk."""


class InvalidArgument(CoinWalkError):
    """Bad input (CLI exit code 2).

    A size, count, position, shift or time window out of range, dimensions
    that do not fit each other or the walk, a coin that is not unitary, a
    state that is not normalized, or an amplitude or coin entry that is not
    a number.
    """


class FormatError(InvalidArgument):
    """A text input (walk config, state grammar, angle literal) did not parse."""


class DegenerateDispersion(CoinWalkError):
    """The bands of the walk cross where the computation needs them apart (CLI exit code 3).

    Raised by the closed form at a k where sin^2(gamma) ~ 0, and by the
    quadrature for a 2x2 coin with a zero off-diagonal entry, whose two bands
    cross wherever U_k is scalar.
    """


class NumericalFailure(CoinWalkError):
    """A consistency check failed on valid input (CLI exit code 4).

    The eigensolver failed, found no shift at which some node's eigenpairs
    fit and its eigenphases keep clear of the collision points, or gave
    eigenvectors that are not orthonormal, or a density matrix is not
    Hermitian, of unit trace and positive.
    """


def as_int(value, what: str) -> int:
    """``value`` as an int; :class:`InvalidArgument` unless it is an int64 integer."""
    try:
        value = operator.index(value)
    except TypeError as exc:
        raise InvalidArgument(f"{what} must be an integer, got {value!r}") from exc
    if not -(2**63) <= value < 2**63:
        raise InvalidArgument(f"{what} must fit in a 64-bit integer, got {value}")
    return value
