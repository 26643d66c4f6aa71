"""Characteristic matrices of a walk.

For each wavenumber k the characteristic matrix is
``C(k) = sum_w P_w (x) P_w`` over eigenspace projectors of the step operator
U_k. Its entries are ``C_(a,c),(b,d) = sum_w P_w[a,b] P_w[c,d]``, so the
contraction ``rho_ad = sum_bc C_(a,c),(b,d) P0_bc = sum_w P_w P0 P_w`` with
any initial projector P0 gives the long-time coin state, for eigenspaces of
any rank. Its k-integrals (uniform for local states, |Q(k)|^2-weighted for
distributed ones) are constant matrices that fully characterize the walk.

Summing over eigenspace projectors (rather than individual eigenvectors)
makes C basis-independent also at degenerate k-points and on flat bands. For
a 2x2 coin, ``D = P_1 - P_2`` fixes both: ``C = (I (x) I + D (x) D) / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDispersion, DimensionMismatch, InvalidArgument, as_int
from .linalg import DEGENERACY_TOL, Array, eig_unitary, eig_unitary_batch
from .states import to_origin
from .walk import U2Params, WalkSpec, _fold_theta, build_uk, dispersion_gamma

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

        :func:`psi_on_grid` evaluates ``psi_k`` on this form
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


#: bytes of the C(k) stack a block of grid nodes would take, 16 n^4 per node:
#: blocks of 16384 nodes for n = 2 (which builds no C), 1024 for n = 4, 202 for n = 6
_BLOCK_BYTES = 4 * 2**20


def _half_zone(spec: WalkSpec, grid: QuadratureGrid) -> bool:
    """True on a bipartite walk (one coordinate-sum parity for all shifts) and an even grid."""
    parity = spec.shifts.sum(axis=1) % 2
    return grid.points_per_axis % 2 == 0 and bool(np.all(parity == parity[0]))


def _grid_mean(spec: WalkSpec, grid: QuadratureGrid | None, block_sum, table=None) -> Array:
    """Mean over the nodes of ``grid`` of a per-node quantity of ``spec`` (and of a state).

    ``grid=None`` takes :meth:`QuadratureGrid.default`. ``table`` is a state's
    :func:`~coinwalk.states.site_table`; its positions are moved to the origin
    (:func:`~coinwalk.states.to_origin`), so every translate of a state gives
    the same result to the last bit. ``block_sum(kb, psi)`` returns the
    quantity summed over an (M, d) block of nodes ``kb``, where ``psi`` is
    ``None`` without a table and else the (g, M, n) momentum components of
    :func:`psi_on_grid` at the block's nodes (g = 1), and at their partners
    ``k + pi (1, ..., 1)`` as well (g = 2).

    Partners are taken on a bipartite walk, one whose shift vectors all have
    the same coordinate-sum parity p: then ``U_(k + pi (1, ..., 1)) = (-1)^p U_k``,
    so k and its partner share their eigenprojectors, ``C`` and ``D``. The
    +-1 line, the square and cubic lattices and the tetrahedral walk are
    bipartite; lazy, hexagonal and triangular shift tables are not. On an
    even grid the partner of node ``(j_0, j_1, ...)`` is
    ``(j_0 + N/2, j_1 + N/2, ...) mod N``, so only the nodes with
    ``j_0 < N/2`` (the first half of the node array) are walked, and each
    eigensolve serves two nodes (:func:`_half_zone`). With a table the sum
    still covers every node and is divided by :attr:`QuadratureGrid.node_count`;
    without one the integrand is the same at k and its partner, so the mean
    over the walked nodes is the mean over the grid. Odd grids and other
    walks walk every node.

    A block holds as many nodes as fit a C(k) stack of ``_BLOCK_BYTES``, so the
    working memory does not grow with the grid; only the (N^d, d) node array
    does, at 8 d bytes per node. Blocks are summed in node order, so results
    are bit-stable across runs.

    Raises
    ------
    InvalidArgument
        If the state's positions are 2**63 or more apart, or N or more apart
        on some axis (the grid aliases sites N apart), or if numpy cannot
        allocate the node array (or a block).
    DegenerateDispersion
        For a 2x2 coin with a zero off-diagonal entry, whose bands cross;
        checked after the positions and before any node is allocated.
    """
    grid = grid if grid is not None else QuadratureGrid.default(spec.lattice_dim)
    if table is not None:
        table = to_origin(table[0]), table[1]
        if (span := int(table[0].max())) >= grid.points_per_axis:
            raise InvalidArgument(
                f"the state's positions are {span} apart on an axis; a grid of"
                f" N = {grid.points_per_axis} points per axis aliases sites N apart,"
                f" so N must exceed {span}"
            )
    _require_nondegenerate_coin(spec)
    too_large = f"the {grid.points_per_axis}^{grid.dim} quadrature grid does not fit in memory"
    try:
        nodes = grid.nodes
    except (MemoryError, ValueError) as exc:
        raise InvalidArgument(too_large) from exc
    half = _half_zone(spec, grid)
    nodes = nodes[: grid.node_count // 2] if half else nodes
    size = max(1, _BLOCK_BYTES // (16 * spec.coin_dim**4))

    def block(i: int) -> Array:
        kb = nodes[i : i + size]
        psi = None if table is None else psi_on_grid(table, grid, i, i + len(kb), half)
        return block_sum(kb, psi)

    try:
        total = sum(block(i) for i in range(0, len(nodes), size))
    except MemoryError as exc:
        raise InvalidArgument(too_large) from exc
    return total / (len(nodes) if table is None else grid.node_count)


def psi_on_grid(
    table: tuple[Array, Array], grid: QuadratureGrid, start: int, stop: int, partners: bool
) -> Array:
    """Momentum components at the nodes ``[start, stop)`` of ``grid``, (g, stop - start, n).

    The state is given by its :func:`~coinwalk.states.site_table`. The nodes
    are taken in :attr:`QuadratureGrid.nodes` order and the values are those
    of :func:`~coinwalk.states.psi_k_many`, computed exactly in the phases;
    with ``partners`` (g = 2) the second slab holds them at the nodes
    ``k + pi (1, ..., 1)``. Every node coordinate is ``k_j = -pi + 2 pi j / N``
    (:attr:`QuadratureGrid.axis`), so
    ``exp(-1j k.r) = (-1)^(sum r) exp(-2 pi i (j.r mod N) / N)``, and at the
    partners the sign drops out. Along a row of nodes (the leading coordinates
    fixed, the last one running) that is a DFT: the coefficients, times one
    phase per site for the leading axes and the sign, are folded onto
    ``r_last mod N``, and one FFT gives the whole row. Sites N or more apart
    fold onto one bin and alias exactly as in the direct sum. The working
    memory is (rows spanned) N n complex values, one slab at a time.
    """
    positions, coeffs = table
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
    phase = np.exp(-2j * np.pi / size * turns)[:, :, None]
    n = coeffs.shape[1]
    lo, hi = start - first * size, stop - first * size
    psi = np.empty((1 + partners, stop - start, n), dtype=np.complex128)
    for slab, signed in zip(psi, (np.where(odd[:, None], -coeffs, coeffs), coeffs)):
        folded = np.zeros((len(rows), size, n), dtype=np.complex128)
        np.add.at(folded, (slice(None), positions[:, -1] % size), phase * signed)
        slab[:] = np.fft.fft(folded, axis=1).reshape(-1, n)[lo:hi]
    return psi


def characteristic_at_k(spec: WalkSpec, k) -> Array:
    """Pointwise ``C(k) = sum_w P_w (x) P_w`` (n^2, n^2) from the spectrum of U_k.

    One ``kron`` per eigenspace: the independent per-node reference for
    :func:`characteristic_stack`.
    """
    _, vectors, labels = eig_unitary(build_uk(spec, k))
    n = spec.coin_dim
    c = np.zeros((n * n, n * n), dtype=np.complex128)
    for w in np.unique(labels):
        v = vectors[:, labels == w]
        p = v @ v.conj().T
        c += np.kron(p, p)
    return c


def characteristic_stack(spec: WalkSpec, ks: Array) -> Array:
    """C(k) for every row of a (M, d) k-array, returned as (M, n^2, n^2).

    For 2x2 coins ``C = (I (x) I + D (x) D) / 2`` with ``D`` from :func:`_involution_2`;
    other coins take one batched eigensolve and assemble C as ``sum_j |v_j><v_j| (x) P_w(j)``:
    each eigenvector's projector paired with the projector of its eigenspace. Both routes
    merge eigenvalues closer than ``DEGENERACY_TOL``.

    The stack takes 16 n^4 bytes per row of ``ks``; the grid averages call
    this one fixed-size block of nodes at a time.
    """
    if spec.coin_dim == 2:  # the closed form is about 15x faster than the batched eigensolve
        d = _involution_2(spec, ks)[:, None]
        return 0.5 * (np.eye(4) + _sum_kron(d, d))
    _, vectors, labels = eig_unitary_batch(build_uk(spec, ks))
    v = vectors.swapaxes(1, 2)
    proj = v[:, :, :, None] * v.conj()[:, :, None, :]  # |v_j><v_j|, (M, n, n, n)
    same = (labels[:, :, None] == labels[:, None, :]).astype(np.complex128)
    m, n = labels.shape
    return _sum_kron(proj, (same @ proj.reshape(m, n, n * n)).reshape(proj.shape))


def _involution_2(spec: WalkSpec, ks: Array) -> Array:
    """``D = P_1 - P_2 = (2 U_k - tr(U_k) I) / (lam_1 - lam_2)`` of each 2x2 ``U_k``, (M, 2, 2).

    D is Hermitian with ``D^2 = I`` (the Bloch axis of ``U_k``) and ``P_1,2 = (I +- D) / 2``;
    where the eigenvalues are closer than ``DEGENERACY_TOL``, ``U_k`` is scalar and ``D = I``.
    """
    u = build_uk(spec, ks)
    diff = u[:, 0, 0] - u[:, 1, 1]  # 2 U - tr(U) I = [[diff, 2 u01], [2 u10, -diff]]
    # lam1 - lam2 = root; diff^2 + 4 u01 u10 equals tr^2 - 4 det without cancelling
    root = np.sqrt(diff**2 + 4.0 * u[:, 0, 1] * u[:, 1, 0])
    # the chord |lam1 - lam2| and the phase gap differ by O(gap^3)
    degenerate = np.abs(root) <= DEGENERACY_TOL
    d = 2.0 * u
    d[:, 0, 0], d[:, 1, 1] = diff, -diff
    d /= np.where(degenerate, 1.0, root)[:, None, None]
    d[degenerate] = np.eye(2)
    return d


def c_of_k_u2(p: U2Params, k: float) -> Array:
    """Closed-form C(k) for the line walk with a general 2x2 coin.

    Valid wherever the dispersion is nondegenerate (theta strictly inside
    (0, pi/2), or k != alpha mod pi). Agrees with the numeric
    :func:`characteristic_at_k` route to ~1e-12; the agreement without any
    eigenvector phase fixing is itself a regression check, since the closed
    form is built from gauge-invariant projectors.

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
        1j * np.sin(k - p.alpha) * np.sin(p.theta) * np.cos(p.theta)
        / (2 * sin2) * np.exp(1j * (k - p.beta))
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
    memory is that of one block (about 4 MiB of C) whatever the grid; on a
    bipartite walk and an even grid only half the nodes (:func:`_grid_mean`).

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

    Total formula; the quoted derivation regime is theta in (0, pi/2), and it
    holds wherever ``sin(theta) > 0``. Other angles are first folded there
    (:func:`~coinwalk.walk._fold_theta`: theta to -theta and beta to beta + pi,
    the same coin). Depends on alpha and beta only through alpha - beta.
    """
    p = _fold_theta(p)
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
