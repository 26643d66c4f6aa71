"""Characteristic matrices of a walk.

For each wavenumber k the characteristic matrix is
``C(k) = sum_w P_w (x) P_w`` over eigenspace projectors of the step operator
U_k. Its entries are ``C_(a,c),(b,d) = sum_w P_w[a,b] P_w[c,d]``, so the
contraction ``rho_ad = sum_bc C_(a,c),(b,d) P0_bc = sum_w P_w P0 P_w`` with
any initial projector P0 gives the long-time coin state, for eigenspaces of
any rank. Its k-integrals (uniform for local states, |Q(k)|^2-weighted for
distributed ones) are constant matrices that fully characterize the walk.

Summing over eigenspace projectors (rather than individual eigenvectors)
makes C basis-independent also at degenerate k-points and on flat bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDispersion, InvalidArgument, as_int
from .linalg import DEGENERACY_TOL, Array, eig_unitary, eig_unitary_batch
from .walk import U2Params, WalkSpec, build_uk, dispersion_gamma

#: sin^2(gamma) below this is treated as a degenerate dispersion point
DEGENERATE_SIN2 = 1e-14


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform grid on the periodic Brillouin zone [-pi, pi)^d.

    The duplicate periodic endpoint is excluded, so the rectangle rule here
    is the trapezoidal rule on the torus: spectrally accurate for smooth
    periodic integrands. All nodes carry equal weight 1/N^d and the weights
    sum to one (the 1/(2pi)^d measure is folded in).
    """

    points_per_axis: int
    dim: int = 1

    def __post_init__(self):
        if as_int(self.points_per_axis, "points_per_axis") < 1 or as_int(self.dim, "dim") < 1:
            raise InvalidArgument("points_per_axis and dim must be >= 1")

    @classmethod
    def default(cls, dim: int) -> "QuadratureGrid":
        return cls(points_per_axis=4096 if dim == 1 else 256, dim=dim)

    @property
    def node_count(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def axis(self) -> Array:
        """The N node coordinates ``-pi + 2 pi j / N`` shared by every axis.

        :func:`~coinwalk.states.psi_on_grid` evaluates ``psi_k`` on this form
        (origin ``-pi``, step ``2 pi / N``) by an FFT; a change here changes it.
        """
        return -np.pi + 2 * np.pi * np.arange(self.points_per_axis) / self.points_per_axis

    @property
    def nodes(self) -> Array:
        """All nodes as a (N^d, d) array, lexicographic order: the last axis runs fastest."""
        grids = np.meshgrid(*([self.axis] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def _sum_kron(a: Array, b: Array) -> Array:
    """``sum_j a_j (x) b_j`` over stacks (M, J, n, n), returned as (M, n^2, n^2).

    One batched ``(n^2, J) @ (J, n^2)`` product gives ``X_(a,c),(b,d)``;
    swapping its middle axes gives ``C_(a,b),(c,d)``.
    """
    m, j, n, _ = a.shape
    x = a.reshape(m, j, n * n).swapaxes(1, 2) @ b.reshape(m, j, n * n)
    return x.reshape(m, n, n, n, n).swapaxes(2, 3).reshape(m, n * n, n * n)


def _require_nondegenerate_coin(spec: WalkSpec) -> None:
    """Reject 2x2 coins with a zero off-diagonal entry (theta = 0 up to phases).

    Such a coin is diagonal, so U_k is diagonal and its two bands cross
    wherever U_k is scalar; a grid node on a crossing takes the whole of P0
    there instead of its dephased part. A zero diagonal (theta = pi/2) gives
    flat bands that never cross and is accepted.
    """
    c = spec.coin
    if spec.coin_dim == 2 and min(abs(c[0, 1]), abs(c[1, 0])) < 1e-12:
        raise DegenerateDispersion(
            "coin with a zero off-diagonal entry (theta = 0): its two bands cross"
            " wherever U_k is scalar, so the quadrature is not defined for this walk"
        )


#: bytes of the C(k) stack built per block of grid nodes: 16384 nodes for
#: n = 2, 1024 for n = 4, 202 for n = 6
_BLOCK_BYTES = 4 * 2**20


def _grid_mean(spec: WalkSpec, grid: QuadratureGrid | None, block_sum) -> Array:
    """Mean over the nodes of ``grid`` of a per-node quantity of ``spec``.

    ``grid=None`` takes :meth:`QuadratureGrid.default`. ``block_sum(kb, start)``
    returns the quantity summed over a (B, d) block of nodes, ``kb``, that
    holds the nodes ``[start, start + B)`` of the grid. A block holds
    as many nodes as fit a C(k) stack of ``_BLOCK_BYTES``, so the working
    memory does not grow with the grid; only the (N^d, d) node array does,
    at 8 d bytes per node. Blocks are summed in node order, so results are
    bit-stable across runs.

    Raises
    ------
    DegenerateDispersion
        For a 2x2 coin with a zero off-diagonal entry, whose bands cross.
    InvalidArgument
        If numpy cannot allocate the node array (or a block).
    """
    _require_nondegenerate_coin(spec)
    grid = grid if grid is not None else QuadratureGrid.default(spec.lattice_dim)
    too_large = f"the {grid.points_per_axis}^{grid.dim} quadrature grid does not fit in memory"
    try:
        nodes = grid.nodes
    except (MemoryError, ValueError) as exc:
        raise InvalidArgument(too_large) from exc
    size = max(1, _BLOCK_BYTES // (16 * spec.coin_dim**4))
    try:
        total = sum(block_sum(nodes[i : i + size], i) for i in range(0, len(nodes), size))
    except MemoryError as exc:
        raise InvalidArgument(too_large) from exc
    return total / grid.node_count


def characteristic_at_k(spec: WalkSpec, k) -> Array:
    """Pointwise ``C(k) = sum_w P_w (x) P_w`` (n^2, n^2) from the spectrum of U_k."""
    es = eig_unitary(build_uk(spec, k))
    n = spec.coin_dim
    c = np.zeros((n * n, n * n), dtype=np.complex128)
    for g in es.groups:
        p = es.projector(g)
        c += np.kron(p, p)
    return c


def characteristic_stack(spec: WalkSpec, ks: Array) -> Array:
    """C(k) for every row of a (M, d) k-array, returned as (M, n^2, n^2).

    For two-dimensional coins the eigenproblem is solved in closed form for
    the whole batch at once; other coin dimensions take one batched
    eigensolve. There C is assembled as ``sum_j |v_j><v_j| (x) P_w(j)``: each
    eigenvector's projector paired with the projector of its eigenspace.
    Both routes merge eigenvalues closer than ``DEGENERACY_TOL``.

    The stack takes 16 n^4 bytes per row of ``ks``; the grid averages call
    this one fixed-size block of nodes at a time.
    """
    if spec.coin_dim == 2:  # the closed form is about 5x faster than the batched eigensolve
        p = _projectors_2(spec, ks)
        return _sum_kron(p, p)
    _, vectors, labels = eig_unitary_batch(build_uk(spec, ks))
    v = vectors.swapaxes(1, 2)
    proj = v[:, :, :, None] * v.conj()[:, :, None, :]  # |v_j><v_j|, (M, n, n, n)
    same = (labels[:, :, None] == labels[:, None, :]).astype(np.complex128)
    m, n = labels.shape
    return _sum_kron(proj, (same @ proj.reshape(m, n, n * n)).reshape(proj.shape))


def _projectors_2(spec: WalkSpec, ks: Array) -> Array:
    """The two eigenspace projectors of each 2x2 ``U_k``, (M, 2, 2, 2), in closed form.

    A node whose eigenvalues are closer than ``DEGENERACY_TOL`` has a scalar
    ``U_k``, so one eigenspace: its projectors are ``[I, 0]``.
    """
    u = build_uk(spec, ks)
    # lam1 - lam2 = root; (u00 - u11)^2 + 4 u01 u10 equals tr^2 - 4 det without cancelling
    root = np.sqrt((u[:, 0, 0] - u[:, 1, 1]) ** 2 + 4.0 * u[:, 0, 1] * u[:, 1, 0])
    lam2 = 0.5 * (u[:, 0, 0] + u[:, 1, 1] - root)
    # the chord |lam1 - lam2| and the phase gap differ by O(gap^3)
    degenerate = np.abs(root) <= DEGENERACY_TOL
    denom = np.where(degenerate, 1.0, root)
    eye2 = np.eye(2, dtype=np.complex128)
    p1 = (u - lam2[:, None, None] * eye2) / denom[:, None, None]
    p1[degenerate] = eye2
    return np.stack([p1, eye2 - p1], axis=1)


def c_of_k_u2(p: U2Params, k: float, f_sign: float = 1.0) -> Array:
    """Closed-form C(k) for the line walk with a general 2x2 coin.

    Valid wherever the dispersion is nondegenerate (theta strictly inside
    (0, pi/2), or k != alpha mod pi). Agrees with the numeric
    :func:`characteristic_at_k` route to ~1e-12; the agreement without any
    eigenvector phase fixing is itself a regression check, since the closed
    form is built from gauge-invariant projectors. ``f_sign = -1`` flips the
    sign of the off-diagonal entry F, a negative control for that check.

    Raises
    ------
    DegenerateDispersion
        When ``sin^2(gamma) < 1e-14`` at this (theta, alpha, k).
    """
    gamma = dispersion_gamma(p, k)
    sin2 = np.sin(gamma) ** 2
    if sin2 < DEGENERATE_SIN2:
        raise DegenerateDispersion(
            f"sin^2(gamma) = {sin2:.3e} at k = {k!r}; the closed form is singular here"
        )
    ell = np.sin(p.theta) ** 2 / (2 * sin2)
    g = -ell * np.exp(2j * (k - p.beta))
    f = (
        f_sign
        * 1j
        * np.sin(k - p.alpha)
        * np.sin(p.theta)
        * np.cos(p.theta)
        / (2 * sin2)
        * np.exp(1j * (k - p.beta))
    )
    fc, gc = np.conj(f), np.conj(g)
    return np.array(
        [
            [1 - ell, -fc, -fc, gc],
            [-f, ell, ell, fc],
            [-f, ell, ell, fc],
            [g, f, f, 1 - ell],
        ],
        dtype=np.complex128,
    )


def c_local(spec: WalkSpec, grid: QuadratureGrid | None = None) -> Array:
    """Uniform k-integral of C(k): the constant (n^2, n^2) matrix for local states.

    C(k) is built one fixed-size block of nodes at a time, so the working
    memory is that of one block (about 4 MiB of C) whatever the grid.

    Raises
    ------
    DegenerateDispersion
        For a 2x2 coin with a zero off-diagonal entry, whose bands cross.
    InvalidArgument
        If the (N^d, d) array of grid nodes does not fit in memory.
    """
    return _grid_mean(spec, grid, lambda kb, _: characteristic_stack(spec, kb).sum(axis=0))


def c_local_u2(p: U2Params) -> Array:
    """Closed-form k-integrated characteristic matrix of the U(2) line walk.

    Total formula; the quoted derivation regime is theta in (0, pi/2).
    Depends on alpha and beta only through alpha - beta.
    """
    s = np.sin(p.theta)
    f = s * np.cos(p.theta) / (s + 1) * np.exp(1j * (p.alpha - p.beta))
    g = s * (s - 1) / (s + 1) * np.exp(2j * (p.alpha - p.beta))
    fc, gc = np.conj(f), np.conj(g)
    return 0.5 * np.array(
        [
            [2 - s, fc, fc, gc],
            [f, s, s, -fc],
            [f, s, s, -fc],
            [g, -f, -f, 2 - s],
        ],
        dtype=np.complex128,
    )
