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

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NormalizationError, as_int
from .linalg import Array
from .walk import WalkSpec


def _as_position(pos) -> tuple[int, ...]:
    try:
        components = tuple(pos)
    except TypeError:  # a scalar is a position on the line
        components = (pos,)
    return tuple(as_int(x, "a position component") for x in components)


def _require_one_lattice_dim(positions) -> None:
    if len({len(r) for r in positions}) > 1:
        raise DimensionMismatch("all positions must have the same number of components")


def _as_vector(v) -> Array:
    arr = np.atleast_1d(np.asarray(v, dtype=np.complex128))
    if arr.ndim > 1 or arr.size < 1:
        raise DimensionMismatch(f"coin vector must be 1-d and non-empty, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class LocalState:
    """Unit coin vector ``chi`` localized at one lattice site."""

    position: tuple[int, ...]
    chi: Array

    def __post_init__(self):
        object.__setattr__(self, "position", _as_position(self.position))
        chi = _as_vector(self.chi)
        if abs(np.linalg.norm(chi) - 1.0) > 1e-12:
            raise NormalizationError("local coin state is not normalized within 1e-12")
        object.__setattr__(self, "chi", chi)


@dataclass(frozen=True)
class DistributedState:
    """Separable state: one coin vector ``chi`` spread over sites with weights."""

    amplitudes: dict[tuple[int, ...], complex]
    chi: Array

    def __post_init__(self):
        amps = {_as_position(r): complex(a) for r, a in self.amplitudes.items()}
        _require_one_lattice_dim(amps)
        if abs(sum(abs(a) ** 2 for a in amps.values()) - 1.0) > 1e-12:
            raise NormalizationError("position amplitudes are not normalized within 1e-12")
        object.__setattr__(self, "amplitudes", amps)
        chi = _as_vector(self.chi)
        if abs(np.linalg.norm(chi) - 1.0) > 1e-12:
            raise NormalizationError("coin state is not normalized within 1e-12")
        object.__setattr__(self, "chi", chi)


@dataclass(frozen=True)
class GeneralState:
    """Arbitrary map site -> coin vector; subsumes the other two variants."""

    amplitudes: dict[tuple[int, ...], Array]

    def __post_init__(self):
        amps = {_as_position(r): _as_vector(c) for r, c in self.amplitudes.items()}
        _require_one_lattice_dim(amps)
        dims = {c.size for c in amps.values()}
        if len(dims) != 1:
            raise DimensionMismatch("all coin vectors must have the same dimension")
        if abs(sum(np.linalg.norm(c) ** 2 for c in amps.values()) - 1.0) > 1e-12:
            raise NormalizationError("total amplitude is not normalized within 1e-12")
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
    """The :func:`site_table` of ``state``; :class:`DimensionMismatch` unless it fits the walk."""
    positions, coeffs = site_table(state)
    if coeffs.shape[1] != spec.coin_dim:
        raise DimensionMismatch("state coin dimension does not match the walk")
    if positions.shape[1] != spec.lattice_dim:
        raise DimensionMismatch("state lattice dimension does not match the walk")
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
    """A (m, d) positions array translated so that its smallest entry on each axis is 0.

    Every translate of a state has the same translated table, so results built
    from it agree to the last bit.

    Raises
    ------
    InvalidArgument
        If two positions are 2**63 or more apart on some axis, so that their
        separation does not fit in a 64-bit integer.
    """
    low = positions.min(axis=0)
    rel = positions.view(np.uint64) - low.view(np.uint64)  # r - r_min < 2**64: no wrap
    if (span := rel.max()) >= 2**63:
        raise InvalidArgument(f"the state's positions are {span} apart on an axis, beyond int64")
    return rel.view(np.int64)


def psi_k_many(state: InitialState, ks: Array) -> Array:
    """Momentum components ``sum_r exp(-1j k.r) c_r``, (M, n), at the rows of a (M, d) k-array.

    The site phases are taken relative to the smallest position on each axis,
    ``r_min``, and ``exp(-1j k.r_min)`` multiplies each row last, so the site
    sum keeps its precision however far the state is from the origin.
    """
    positions, coeffs = site_table(state)
    if ks.shape[1] != positions.shape[1]:
        raise DimensionMismatch("k-grid dimension does not match the state")
    low = positions.min(axis=0)
    # r - r_min in uint64 does not wrap, however far apart two int64 positions are
    rel = positions.view(np.uint64) - low.view(np.uint64)
    return np.exp(-1j * (ks @ rel.T)) @ coeffs * np.exp(-1j * (ks @ low))[:, None]
