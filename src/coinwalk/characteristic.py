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
With orthonormal eigenvectors ``v_j``,
``P_w (x) P_w = sum_(i,j in w) z_ij z_ij^dag`` where ``z_ij = v_i (x) v_j`` is
indexed by ``(a, c)``; so C is the Gram product ``Z Z^dag`` of
``Z = [v_j (x) v_j]_j`` plus the pairs ``i != j`` that share an eigenspace.
A sum of C over nodes is then one Gram product too, of the nodes' Z side by
side: :func:`c_local` sums each block of nodes so, with no per-node C.
For a 2x2 coin, ``D = P_1 - P_2`` fixes both projectors, so
``C = (I (x) I + D (x) D) / 2``; the 2x2 integrands of :func:`c_local` and
:func:`~coinwalk.asymptotics.rho_asymptotic` read D and build no C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDispersion, InvalidArgument, as_int
from .linalg import DEGENERACY_TOL, Array, _eig_unitary_stack, _newton_schulz, eig_unitary
from .states import to_origin
from .walk import U2Params, WalkSpec, _fold_theta, _shift_phases, build_uk, dispersion_gamma

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
        return self._first_nodes(self.node_count)

    def _first_nodes(self, count: int) -> Array:
        """The first ``count`` rows of :attr:`nodes`, without the others.

        ``count`` is a multiple of N^(d-1): the rows are the nodes whose first
        coordinate is one of the first ``count / N^(d-1)`` entries of
        :attr:`axis`. In 1-d they are a view of the axis.
        """
        axis = self.axis
        lead = axis[: count // self.points_per_axis ** (self.dim - 1)]
        if self.dim == 1:
            return lead[:, None]
        grids = np.meshgrid(lead, *([axis] * (self.dim - 1)), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


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
#: blocks of 16384 nodes for n = 2 (which builds no C), 1024 for n = 4, 202 for n = 6.
#: Only multi-site n > 2 states build that stack; c_local's block sum takes 16 n^3 per node
_BLOCK_BYTES = 4 * 2**20


def _half_zone(spec: WalkSpec, grid: QuadratureGrid) -> bool:
    """True on a bipartite walk (one coordinate-sum parity for all shifts) and an even grid."""
    parity = spec.shifts.sum(axis=1) % 2
    return grid.points_per_axis % 2 == 0 and bool(np.all(parity == parity[0]))


def _grid_mean(spec: WalkSpec, grid: QuadratureGrid | None, block_sum, table=None) -> Array:
    """Mean over the nodes of ``grid`` of a per-node quantity of ``spec`` (and of a state).

    ``grid=None`` takes :meth:`QuadratureGrid.default`. ``table`` is a state's
    :func:`~coinwalk.states.site_table`; its positions are replaced by their
    uint64 offsets from the smallest on each axis
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
    ``j_0 < N/2`` (the first half of :attr:`QuadratureGrid.nodes`) are walked,
    and each eigensolve serves two nodes (:func:`_half_zone`). With a table the sum
    still covers every node and is divided by :attr:`QuadratureGrid.node_count`;
    without one the integrand is the same at k and its partner, so the mean
    over the walked nodes is the mean over the grid. Odd grids and other
    walks walk every node.

    Only the walked nodes are built, as one array (a view of
    :attr:`QuadratureGrid.axis` in 1-d). A block holds as many nodes as fit a
    C(k) stack of ``_BLOCK_BYTES``, so the working memory does not grow with
    the grid; only the array of walked nodes does, at 8 d bytes per node.
    Blocks are summed in node order, so results are bit-stable across runs.

    Raises
    ------
    InvalidArgument
        If the grid's dimension is not the walk's (checked first), if the
        state's positions are N or more apart on some axis (the grid aliases
        sites N apart), or if numpy cannot allocate the walked nodes (or a block).
    DegenerateDispersion
        For a 2x2 coin with a zero off-diagonal entry, whose bands cross;
        checked after the positions and before any node is allocated.
    """
    grid = grid if grid is not None else QuadratureGrid.default(spec.lattice_dim)
    if grid.dim != spec.lattice_dim:
        raise InvalidArgument("grid dimension does not match the walk")
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
    half = _half_zone(spec, grid)
    try:
        nodes = grid._first_nodes(grid.node_count // 2 if half else grid.node_count)
    except (MemoryError, ValueError) as exc:
        raise InvalidArgument(too_large) from exc
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
    with ``partners`` (g = 2, an even grid) the second slab holds them at the
    partner nodes ``k + pi (1, ..., 1)``. Every node coordinate is
    ``k_j = -pi + 2 pi j / N`` (:attr:`QuadratureGrid.axis`), so
    ``exp(-1j k.r) = (-1)^(sum r) exp(-2 pi i (j.r mod N) / N)``. Along a row
    of nodes (the leading coordinates fixed, the last one running) that is a
    DFT: the coefficients, times one phase per site for the leading axes and
    the sign, are folded onto ``r_last mod N``, and one FFT gives the whole
    row. The partner of node ``(j_0, ..., j_last)`` is
    ``(j_0 + N/2, ..., j_last + N/2) mod N``, so the partner slab is the same
    signed transform on the partner rows, N/2 along each. In 1-d the partner
    row is the node row itself and one FFT serves both slabs. In d > 1 the
    partner rows' leading phases are the node rows' times
    ``(-1)^(sum of the leading r)``, and reading N/2 along a row multiplies by
    ``(-1)^(r_last)``; together they cancel the sign, so the partner slab is
    the node rows' transform of the unsigned coefficients, one more FFT per
    row. Sites N or more apart fold onto one bin and alias exactly as in the
    direct sum. The working memory is (rows spanned) N n complex values, one
    transform at a time.

    ``partners`` needs an even grid, whose nodes hold ``k + pi (1, ..., 1)``
    (:func:`_half_zone`). The positions may be int64, as in the site table, or
    the uint64 offsets of :func:`~coinwalk.states.to_origin`.
    """
    positions, coeffs = table
    size = grid.points_per_axis
    residues = (positions % size).astype(np.int64)  # r mod N on every axis
    first, end = start // size, (stop - 1) // size + 1
    rows = np.arange(first, end)
    turns = np.zeros((len(rows), len(positions)), dtype=np.int64)  # j.r mod N, leading axes
    for a in range(grid.dim - 1):
        j = rows // size ** (grid.dim - 2 - a) % size
        turns = (turns + np.multiply.outer(j, residues[:, a])) % size
    phase = np.exp(-2j * np.pi / size * turns)[:, :, None]
    odd = np.bitwise_xor.reduce(positions & 1, axis=1).astype(bool)
    signed = np.where(odd[:, None], -coeffs, coeffs)
    n = coeffs.shape[1]

    def transform(c: Array) -> Array:
        """The rows' FFTs, (rows, N, n), of ``phase * c`` folded onto ``r_last mod N``."""
        folded = np.zeros((len(rows), size, n), dtype=np.complex128)
        np.add.at(folded, (slice(None), residues[:, -1]), phase * c)
        return np.fft.fft(folded, axis=1)

    lo, hi = start - first * size, stop - first * size
    values = transform(signed)
    psi = np.empty((1 + partners, stop - start, n), dtype=np.complex128)
    psi[0] = values.reshape(-1, n)[lo:hi]
    if partners and grid.dim == 1:  # the partner of node j is node j + N/2 mod N
        np.take(values[0], np.arange(lo, hi) + size // 2, axis=0, out=psi[1], mode="wrap")
    elif partners:  # N/2 along the partner rows, whose phases differ by (-1)^(leading sum)
        psi[1] = transform(coeffs).reshape(-1, n)[lo:hi]
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


def characteristic_stack(spec: WalkSpec, ks: Array, summed: bool = False) -> Array:
    """C(k) for every row of a (M, d) k-array, returned as (M, n^2, n^2), or their sum.

    One batched eigensolve for every coin dimension:
    ``P_w (x) P_w = sum_(i,j in w) z_ij z_ij^dag`` with ``z_ij = v_i (x) v_j``, whose rows
    already run over ``(a, c)``, so C is one batched ``Z Z^dag`` over the pairs i = j,
    ``Z = [v_j (x) v_j]_j`` of shape (M, n^2, n), plus ``Y Y^dag`` over the pairs i != j of
    one eigenspace at the nodes that have any (flat bands, crossings, merged eigenvalues).
    Eigenvalues closer than ``DEGENERACY_TOL`` are merged. The eigenvectors stay in the
    order the solver gives them (``linalg._eig_unitary_stack``): C depends on the
    eigenspaces, not on the order of their columns, and a node whose labels stop below
    ``n - 1`` has fewer than n eigenspaces. The solver takes the Hermitian part of each
    ``U_k``, which would carry the coin's deviation from unitarity (up to 1e-10, as
    WalkSpec admits it) into the eigenvectors at first order, so ``U_k`` is built from the
    coin's Newton-Schulz step (``linalg._newton_schulz``): its polar factor up to the
    square of that deviation, for two n x n products per call.

    With ``summed``, the result is ``sum_k C(k)`` over the rows of ``ks``, (n^2, n^2), and
    no per-node C is formed: the nodes' Z sit side by side as one (n^2, M n) matrix, and
    the sum is its Gram product with one GEMM, plus one more for the Y of the nodes with
    a shared eigenspace. The stack takes 16 n^4 bytes per row of ``ks``, the summed route
    16 n^3; the grid averages call this one fixed-size block of nodes at a time.
    """
    n = spec.coin_dim
    coin = _newton_schulz(spec.coin)
    u = np.multiply(_shift_phases(spec.shifts, ks).T[:, :, None], coin, order="C")  # U_k
    _, v, labels = _eig_unitary_stack(u)
    shared = np.flatnonzero(labels.max(axis=1) < n - 1)  # fewer than n eigenspaces
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    if summed:  # rows (a, c), columns (node, j); v is copied once, to (a, node, j)
        w = np.ascontiguousarray(v.transpose(1, 0, 2))
        z = (w[:, None] * w[None]).reshape(n * n, -1)  # column (k, j): v_j(k) (x) v_j(k)
        c = z @ z.conj().T
        if shared.size:  # columns (node, pair) of the shared nodes, as below
            ws, ls = w[:, shared], labels[shared]
            y = ws[:, None, :, i] * ws[None, :, :, j]
            y *= ls[:, i] == ls[:, j]
            y = y.reshape(n * n, -1)
            c += y @ y.conj().T
        return c
    m = len(labels)
    z = (v[:, :, None, :] * v[:, None, :, :]).reshape(m, n * n, n)  # column j: v_j (x) v_j
    c = z @ z.conj().swapaxes(1, 2)
    if shared.size:  # at those nodes every pair i != j, weighted 1 where they share an eigenspace
        vs, ls = v[shared], labels[shared]
        y = (vs[:, :, None, i] * vs[:, None, :, j]).reshape(len(shared), n * n, -1)
        y *= (ls[:, i] == ls[:, j])[:, None, :]
        c[shared] += y @ y.conj().swapaxes(1, 2)
    return c


def _involution_2(spec: WalkSpec, ks: Array) -> Array:
    """``D = P_1 - P_2 = (2 U_k - tr(U_k) I) / (lam_1 - lam_2)`` of each 2x2 ``U_k``, (2, 2, M).

    D is Hermitian with ``D^2 = I`` (the Bloch axis of ``U_k``) and ``P_1,2 = (I +- D) / 2``;
    where the eigenvalues are closer than ``DEGENERACY_TOL``, ``U_k`` is scalar and ``D = I``.
    The entries ``u_ab = phi_a c_ab`` of ``U_k``, from the rows ``phi_a`` of
    :func:`~coinwalk.walk._shift_phases` and the coin ``c``, are the products
    :func:`~coinwalk.walk.build_uk` forms, so D has its bits. The result holds one
    entry row per matrix entry, ``D[a, b]`` over the M nodes, as its readers index it.
    """
    d = _shift_phases(spec.shifts, ks)[:, None, :] * spec.coin[:, :, None]  # u_ab
    d[0, 0] -= d[1, 1]  # 2 U - tr(U) I = [[diff, 2 u01], [2 u10, -diff]]
    # lam1 - lam2 = root; diff^2 + 4 u01 u10 equals tr^2 - 4 det without cancelling
    root = np.sqrt(d[0, 0] ** 2 + 4.0 * d[0, 1] * d[1, 0])
    # the chord |lam1 - lam2| and the phase gap differ by O(gap^3)
    degenerate = np.abs(root) <= DEGENERACY_TOL
    scale = 1.0 / np.where(degenerate, 1.0, root)
    d[0, 0] *= scale
    np.negative(d[0, 0], out=d[1, 1])
    scale *= 2.0  # (2 u) s and u (2 s) are the same bits: doubling is exact
    d[0, 1] *= scale
    d[1, 0] *= scale
    if degenerate.any():
        d[:, :, degenerate] = np.eye(2)[:, :, None]
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

    C(k) is summed one fixed-size block of nodes at a time, so the working
    memory is that of one block whatever the grid; on a bipartite walk and an
    even grid only half the nodes (:func:`_grid_mean`). For n > 2 a block's sum
    is one Gram product (:func:`characteristic_stack` with ``summed``), whose
    factor takes 16 n^3 bytes per node (1 MiB at n = 4), and no C is formed.
    A 2x2 coin builds no C: a block of M nodes sums to ``(M I + S) / 2`` with
    ``S_(a,c),(b,d) = sum_k D_ab D_cd``, one Gram product ``X^T X`` of the
    (M, 4) entries X of :func:`_involution_2` with its indices reordered.

    Raises
    ------
    DegenerateDispersion
        For a 2x2 coin with a zero off-diagonal entry, whose bands cross.
    InvalidArgument
        If the grid's dimension is not the walk's or its nodes do not fit in memory.
    """

    def block_sum(kb: Array, _) -> Array:
        if spec.coin_dim != 2:  # perfbench/layers.py divides by this call's time: keep its name
            return characteristic_stack(spec, kb, True)
        x = _involution_2(spec, kb).reshape(4, -1)  # X^T, rows (a, b)
        # (X^T X)_(a,b),(c,d) = sum_k D_ab D_cd, reordered to C's (a, c), (b, d)
        s = (x @ x.T).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        return 0.5 * (len(kb) * np.eye(4) + s)

    return _grid_mean(spec, grid, block_sum)


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
