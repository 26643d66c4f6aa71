"""Initial walker states and their momentum-space projectors.

Three families: a coin state at one site, a coin state spread over several
sites with scalar weights, and fully general (possibly coin-position
entangled) amplitude maps. The momentum component is
``psi_k = sum_r exp(-1j k.r) c_r`` (the sign that pairs with the
``exp(-1j k.s_j)`` phases of the step operator) and the projector is its
outer square, which depends on the separations of the sites only.

:func:`psi_k_many` sums over the sites at any k-points; the quadrature takes
the nodes of its grid from one FFT per row of nodes instead
(:func:`~coinwalk.characteristic.psi_on_grid`), and the tests compare the two.

Positions are sparse integer tuples, so far-apart supports cost O(support).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, as_int
from .linalg import Array
from .walk import WalkSpec


def _as_position(pos) -> tuple[int, ...]:
    try:
        components = tuple(pos)
    except TypeError:  # a scalar is a position on the line
        components = (pos,)
    return tuple(as_int(x, "a position component") for x in components)


def _site_map(amplitudes: dict, value) -> dict:
    """``{position: value(a)}`` over a map's entries, with every key as a position tuple.

    An empty map, two keys that name one site (``0`` and ``(0,)``: the later would
    replace the earlier) or a non-numeric amplitude raise :class:`InvalidArgument`.
    """
    if not amplitudes:
        raise InvalidArgument("the map lists no site")
    out = {}
    for r, a in amplitudes.items():
        pos = _as_position(r)
        if pos in out:
            raise InvalidArgument(f"position {';'.join(map(str, pos))} is repeated in the map")
        try:
            out[pos] = value(a)
        except (TypeError, ValueError) as exc:
            raise InvalidArgument(f"amplitudes must be numbers: {exc}") from exc
    if len({len(r) for r in out}) > 1:
        raise InvalidArgument("all positions must have the same number of components")
    return out


def _as_vector(v) -> Array:
    try:
        arr = np.atleast_1d(np.asarray(v, dtype=np.complex128))
    except (TypeError, ValueError) as exc:
        raise InvalidArgument(f"amplitudes must be numbers: {exc}") from exc
    if arr.ndim > 1 or arr.size < 1:
        raise InvalidArgument(f"coin vector must be 1-d and non-empty, got shape {arr.shape}")
    return arr


def _norm(values) -> float:
    """Euclidean norm of complex values, taken with scaling (``math.hypot``).

    A Python float: amplitudes too large to square give a large norm, or inf,
    and no overflow error or warning, so the callers' checks refuse them. A
    zero entry adds exactly nothing, so listing one changes no bit of the norm.
    """
    return math.hypot(*np.ravel(np.asarray(values, dtype=np.complex128)).view(np.float64))


def _require_unit(values, subject: str) -> None:
    """Refuse ``values`` unless their total probability ``n * n`` is 1 within 1e-12.

    ``n = _norm(values)``; where ``n ** 2`` would raise ``OverflowError``, ``n * n`` is inf.
    """
    norm = _norm(values)
    if not abs(norm * norm - 1.0) <= 1e-12:
        raise InvalidArgument(f"{subject} not normalized within 1e-12")


@dataclass(frozen=True)
class LocalState:
    """Unit coin vector ``chi`` localized at one lattice site."""

    position: tuple[int, ...]
    chi: Array

    def __post_init__(self):
        object.__setattr__(self, "position", _as_position(self.position))
        chi = _as_vector(self.chi)
        _require_unit(chi, "local coin state is")
        object.__setattr__(self, "chi", chi)


@dataclass(frozen=True)
class DistributedState:
    """Separable state: one coin vector ``chi`` spread over sites with weights."""

    amplitudes: dict[tuple[int, ...], complex]
    chi: Array

    def __post_init__(self):
        amps = _site_map(self.amplitudes, complex)
        _require_unit(list(amps.values()), "position amplitudes are")
        object.__setattr__(self, "amplitudes", amps)
        chi = _as_vector(self.chi)
        _require_unit(chi, "coin state is")
        object.__setattr__(self, "chi", chi)


@dataclass(frozen=True)
class GeneralState:
    """Arbitrary map site -> coin vector; subsumes the other two variants."""

    amplitudes: dict[tuple[int, ...], Array]

    def __post_init__(self):
        amps = _site_map(self.amplitudes, _as_vector)
        dims = {c.size for c in amps.values()}
        if len(dims) != 1:
            raise InvalidArgument("all coin vectors must have the same dimension")
        _require_unit(list(amps.values()), "total amplitude is")
        object.__setattr__(self, "amplitudes", amps)


InitialState = LocalState | DistributedState | GeneralState


@dataclass(frozen=True)
class BlochCoin:
    """Coin vector on the Bloch sphere: cos(xi/2)|0> + e^{i eta} sin(xi/2)|1>."""

    xi: float
    eta: float


def bloch_coin(b: BlochCoin) -> Array:
    return np.array(
        [np.cos(b.xi / 2), np.exp(1j * b.eta) * np.sin(b.xi / 2)], dtype=np.complex128
    )


def checked_site_table(spec: WalkSpec, state: InitialState) -> tuple[Array, Array]:
    """The :func:`site_table` of ``state``; :class:`InvalidArgument` unless it fits the walk."""
    positions, coeffs = site_table(state)
    if coeffs.shape[1] != spec.coin_dim:
        raise InvalidArgument("state coin dimension does not match the walk")
    if positions.shape[1] != spec.lattice_dim:
        raise InvalidArgument("state lattice dimension does not match the walk")
    return positions, coeffs


def site_table(state: InitialState) -> tuple[Array, Array]:
    """Flatten any state variant to (positions (m, d) int, coeffs (m, n)).

    The state is ``sum_r |r> (x) coeffs[r]`` with positions sorted, so every
    downstream reduction is deterministic. Only occupied sites are listed: a
    site whose coefficients are all zero is dropped, so it widens no span,
    box or grid requirement downstream.
    """
    if isinstance(state, LocalState):
        return np.array([state.position], dtype=np.int64), state.chi[None, :].copy()
    items = sorted(state.amplitudes.items())
    positions = np.array([r for r, _ in items], dtype=np.int64)
    if isinstance(state, DistributedState):
        coeffs = np.multiply.outer(np.array([a for _, a in items]), state.chi)
    else:
        coeffs = np.array([c for _, c in items], dtype=np.complex128)
    occupied = coeffs.any(axis=1)
    return positions[occupied], coeffs[occupied]


def to_origin(positions: Array) -> Array:
    """The offsets ``r - r_min`` of a (m, d) positions array from its smallest entry on each axis.

    They are taken in uint64, where any two int64 positions' difference fits
    without wrapping, so this never refuses a state. Every translate of a state
    has the same offsets, so results built from them agree to the last bit.
    """
    return positions.view(np.uint64) - positions.min(axis=0).view(np.uint64)


def psi_k_many(state: InitialState, ks: Array) -> Array:
    """Momentum components ``sum_r exp(-1j k.r) c_r``, (M, n), at the rows of a (M, d) k-array.

    The site phases are taken on the offsets from the smallest position on
    each axis, ``r_min`` (:func:`to_origin`), and ``exp(-1j k.r_min)``
    multiplies each row last, so the site sum keeps its precision however far
    the state is from the origin.
    """
    positions, coeffs = site_table(state)
    if ks.shape[1] != positions.shape[1]:
        raise InvalidArgument("k-grid dimension does not match the state")
    low = positions.min(axis=0)
    return np.exp(-1j * (ks @ to_origin(positions).T)) @ coeffs * np.exp(-1j * (ks @ low))[:, None]
