"""Initial walker states and their momentum-space projectors.

Three families: a coin state at one site, a coin state spread over several
sites with scalar weights, and fully general (possibly coin-position
entangled) amplitude maps. The momentum component is
``psi_k = sum_r exp(-1j k.r) c_r`` (the sign that pairs with the
``exp(-1j k.s_j)`` phases of the step operator) and the projector is its
outer square, which depends on the separations of the sites only.

Two evaluations: :func:`psi_k_many` sums over the sites at any k-points, and
:func:`psi_on_grid` takes the nodes of a quadrature grid from one FFT per row
of nodes, with exact phases and O(N) memory per row; the quadrature uses the
second, and the tests compare it with the first.

Positions are sparse integer tuples, so far-apart supports cost O(support).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NormalizationError, as_int
from .linalg import Array
from .walk import WalkSpec

if TYPE_CHECKING:
    from .characteristic import QuadratureGrid


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


def require_state_fits(spec: WalkSpec, state: InitialState) -> None:
    """Raise :class:`DimensionMismatch` unless the state lives on the walk's spaces."""
    positions, coeffs = site_table(state)
    if coeffs.shape[1] != spec.coin_dim:
        raise DimensionMismatch("state coin dimension does not match the walk")
    if positions.shape[1] != spec.lattice_dim:
        raise DimensionMismatch("state lattice dimension does not match the walk")


def site_table(state: InitialState) -> tuple[Array, Array]:
    """Flatten any state variant to (positions (m, d) int, coeffs (m, n)).

    The state is ``sum_r |r> (x) coeffs[r]`` with positions sorted, so every
    downstream reduction is deterministic.
    """
    if isinstance(state, LocalState):
        items = [(state.position, state.chi)]
    elif isinstance(state, DistributedState):
        items = [(r, a * state.chi) for r, a in sorted(state.amplitudes.items())]
    else:
        items = sorted(state.amplitudes.items())
    positions = np.array([r for r, _ in items], dtype=np.int64)
    coeffs = np.array([c for _, c in items], dtype=np.complex128)
    return positions, coeffs


def at_origin(state: InitialState) -> InitialState:
    """``state`` translated so that its smallest position on each axis is 0.

    Every translate of a state gives the same result, so :func:`psi_k_many`
    of it, and every quantity built from that, is the same to the last bit
    for all of them. A state at the origin already is returned as it is.

    Raises
    ------
    InvalidArgument
        If two positions are 2**63 or more apart on some axis, so that their
        separation does not fit in a 64-bit integer.
    """
    positions, _ = site_table(state)
    low = [int(x) for x in positions.min(axis=0)]
    span = max(int(x) - lo for x, lo in zip(positions.max(axis=0), low))
    if span >= 2**63:
        raise InvalidArgument(f"the state's positions are {span} apart on an axis, beyond int64")
    if not any(low):
        return state

    def moved(r):
        return tuple(x - lo for x, lo in zip(r, low))

    if isinstance(state, LocalState):
        return replace(state, position=moved(state.position))
    return replace(state, amplitudes={moved(r): a for r, a in state.amplitudes.items()})


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
    psi = np.exp(-1j * (ks @ rel.T)) @ coeffs
    if low.any():  # at the origin the factor is 1
        psi *= np.exp(-1j * (ks @ low))[:, None]
    return psi


def psi_on_grid(state: InitialState, grid: QuadratureGrid, start: int, stop: int) -> Array:
    """Momentum components at the nodes ``[start, stop)`` of ``grid``, (stop - start, n).

    The nodes are taken in :attr:`QuadratureGrid.nodes` order and the values
    are those of :func:`psi_k_many`, computed exactly in the phases. Every
    node coordinate is ``k_j = -pi + 2 pi j / N``, so
    ``exp(-1j k.r) = (-1)^(sum r) exp(-2 pi i (j.r mod N) / N)``. Along a row
    of nodes (the leading coordinates fixed, the last one running) that is a
    DFT: the coefficients, times one phase per site for the leading axes and
    the sign of the parity of ``r``, are folded onto ``r_last mod N``, and one
    FFT gives the whole row. Sites N or more apart fold onto one bin and alias
    exactly as in the direct sum. The working memory is (rows spanned) N n
    complex values.
    """
    positions, coeffs = site_table(state)
    if positions.shape[1] != grid.dim:
        raise DimensionMismatch("grid dimension does not match the state")
    size = grid.points_per_axis
    first, end = start // size, (stop - 1) // size + 1
    rows = np.arange(first, end)
    turns = np.zeros((len(rows), len(positions)), dtype=np.int64)  # j.r mod N, leading axes
    for a in range(grid.dim - 1):
        j = rows // size ** (grid.dim - 2 - a) % size
        turns = (turns + np.multiply.outer(j, positions[:, a] % size)) % size
    odd = np.bitwise_xor.reduce(positions & 1, axis=1).astype(bool)
    signed = np.where(odd[:, None], -coeffs, coeffs)
    folded = np.zeros((len(rows), size, coeffs.shape[1]), dtype=np.complex128)
    weights = np.exp(-2j * np.pi / size * turns)[:, :, None] * signed
    np.add.at(folded, (slice(None), positions[:, -1] % size), weights)
    psi = np.fft.fft(folded, axis=1).reshape(-1, coeffs.shape[1])
    return psi[start - first * size : stop - first * size]
