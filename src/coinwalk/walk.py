"""Walk definitions and the momentum-space step operator.

A walk is a lattice dimension, a shift table (one integer displacement
vector per coin state) and a unitary coin. At wavenumber k the evolution is
the small unitary ``U_k = diag_j(exp(-1j k.s_j)) U_C``; everything downstream
(characteristic matrices, asymptotics) is built from its spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, as_int
from .linalg import Array, is_unitary


@dataclass(frozen=True)
class U2Params:
    """Parameters (theta, alpha, beta) of a general 2x2 unitary coin.

    The canonical range is theta in [0, pi/2]; other values are accepted
    verbatim (the coin formula is total) but the closed-form results
    elsewhere document their own validity ranges.
    """

    theta: float
    alpha: float
    beta: float


def u2_coin(p: U2Params) -> Array:
    """General 2x2 unitary coin, global phase dropped.

    Returns ``[[e^{ia} cos t, e^{ib} sin t], [-e^{-ib} sin t, e^{-ia} cos t]]``.
    """
    ct, st = np.cos(p.theta), np.sin(p.theta)
    return np.array(
        [
            [np.exp(1j * p.alpha) * ct, np.exp(1j * p.beta) * st],
            [-np.exp(-1j * p.beta) * st, np.exp(-1j * p.alpha) * ct],
        ],
        dtype=np.complex128,
    )


def _fold_theta(p: U2Params) -> U2Params:
    """The parameters of the same coin with ``sin(theta) >= 0``.

    ``u2_coin(t, a, b)`` is ``u2_coin(-t, a, b + pi)``, so an angle with
    ``sin(theta) < 0`` is negated and pi is added to beta; other parameters are
    returned as they are. The U(2) closed forms take this before their
    formulas, which assume ``sin(theta) >= 0``.
    """
    if np.sin(p.theta) >= 0:
        return p
    return U2Params(-p.theta, p.alpha, p.beta + np.pi)


@dataclass(frozen=True)
class WalkSpec:
    """Definition of a coined walk.

    Attributes
    ----------
    lattice_dim : int
        Dimension d of the position lattice.
    coin_dim : int
        Dimension n of the coin space.
    shifts : (n, d) int array
        Displacement vector applied to coin state j each step. Explicit data,
        not convention: non-unit entries define walks with longer steps.
    coin : (n, n) complex array
        Unitary coin operator.

    Construction raises :class:`InvalidArgument` unless ``coin`` is an (n, n)
    and ``shifts`` an (n, d) table, for a non-integer shift or a non-numeric
    coin entry and for a coin not unitary within 1e-10.
    """

    lattice_dim: int
    coin_dim: int
    shifts: Array
    coin: Array

    def __post_init__(self):
        n, d = as_int(self.coin_dim, "coin_dim"), as_int(self.lattice_dim, "lattice_dim")
        if n < 1 or d < 1:
            raise InvalidArgument("lattice_dim and coin_dim must be >= 1")
        rows = _row_lengths(self.coin, "coin")
        if len(rows) != n or any(m != n for m in rows):
            raise InvalidArgument(f"coin rows do not form a square {n}x{n} matrix")
        widths = _row_lengths(self.shifts, "shifts")
        if len(widths) != n:
            raise InvalidArgument(
                f"expected {n} shift vectors (one per coin state), got {len(widths)}"
            )
        if any(w != d for w in widths):
            raise InvalidArgument(f"every shift vector must have {d} components")
        shifts = [[as_int(x, "a shift component") for x in row] for row in self.shifts]
        object.__setattr__(self, "shifts", np.array(shifts, dtype=np.int64))
        try:
            coin = np.asarray(self.coin, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise InvalidArgument(f"coin entries must be numbers: {exc}") from exc
        if not is_unitary(coin):
            raise InvalidArgument("coin is not unitary within 1e-10")
        object.__setattr__(self, "coin", coin)


def _row_lengths(table, what: str) -> list[int]:
    """Length of each row of a 2-d table; -1 for a row that is not a flat vector."""
    try:
        return [len(row) if np.ndim(row) == 1 else -1 for row in table]
    except (TypeError, ValueError) as exc:
        raise InvalidArgument(f"{what} must be a table of rows") from exc


def line_walk(p: U2Params) -> WalkSpec:
    """Standard walk on the line: coin state |0> steps +1, |1> steps -1."""
    return WalkSpec(lattice_dim=1, coin_dim=2, shifts=[[1], [-1]], coin=u2_coin(p))


def _shift_phases(shifts: Array, ks: Array) -> Array:
    """The phases ``exp(-1j k.s_j)``, (n, M), of the n shift rows at the M rows of ``ks``.

    ``exp`` runs once per row, except that a row which negates an earlier one
    is that row's conjugate. These are the bits ``exp`` would give: ``k.(-s)``
    is ``-(k.s)`` exactly, cos is even and sin is odd. The one exception is a
    zero: ``shifts @ ks.T`` can give +0.0 for both ``k.s`` and ``k.(-s)``, and
    the sign of a zero argument is that of the phase's zero imaginary part,
    so ``exp`` is taken again where the argument is zero. So the +-1 line and
    the square lattice take half their exponentials.
    """
    phase = np.empty((len(shifts), len(ks)), dtype=np.complex128)
    arg = shifts @ ks.T
    rows = shifts.tolist()
    for j, s in enumerate(rows):
        mirror = [-x for x in s]
        if mirror in rows[:j]:
            np.conjugate(phase[rows.index(mirror)], out=phase[j])
            np.exp(-1j * arg[j], out=phase[j], where=arg[j] == 0)
        else:
            np.exp(-1j * arg[j], out=phase[j])
    return phase


def build_uk(spec: WalkSpec, k) -> Array:
    """Momentum-space step operator ``diag_j(exp(-1j k.s_j)) @ coin``.

    ``k`` is a scalar (1-d walks only), one (d,) point or a (M, d) stack of
    points; the result is (n, n) or a C-ordered (M, n, n), the layout
    :func:`~coinwalk.linalg.eig_unitary_batch` reads. The phases come from
    :func:`_shift_phases`.
    """
    kv = np.atleast_1d(np.asarray(k, dtype=np.float64))
    if kv.shape[-1] != spec.lattice_dim:
        raise InvalidArgument(f"k has shape {kv.shape}, walk lattice_dim is {spec.lattice_dim}")
    phase = _shift_phases(spec.shifts, kv.reshape(-1, spec.lattice_dim))  # (n, M)
    u = np.multiply(phase.T[:, :, None], spec.coin, order="C")
    return u.reshape(*kv.shape[:-1], spec.coin_dim, spec.coin_dim)


def dispersion_gamma(p: U2Params, k: float) -> float:
    """Dispersion angle gamma in [0, pi]: cos(gamma) = cos(theta) cos(k - alpha).

    The eigenphases of the line-walk step operator at k are exactly
    {+gamma, -gamma}.
    """
    c = np.cos(p.theta) * np.cos(k - p.alpha)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))
