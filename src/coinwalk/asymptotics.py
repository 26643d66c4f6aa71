"""Asymptotic reduced coin state and entanglement observables.

The long-time coin state is the k-average of the dephased initial projector,
``rho_ad = integral dk/(2pi)^d sum_bc C_(a,c),(b,d)(k) P0_bc(k)``, that is
``sum_w P_w P0 P_w`` averaged over k: right for eigenspaces of any rank,
where ``Tr_1[(P0 (x) I) C] = sum_w Tr(P0 P_w) P_w`` is right only for rank 1.
For a state on one site ``P0 = c c^dag`` is constant in k, so the average is
one contraction of the constant ``C_bar = <C(k)>_k`` (:func:`c_local`) with it:
the paper's formula for local states. For other states and a 2x2 coin the
node's term is ``(P0 + D P0 D) / 2`` with ``D = P_1 - P_2``, and no C, so
``rho_ad = [rho_c(0) + <D P0 D>_k] / 2``: by Parseval the k-mean of P0 is the
initial reduced coin state ``rho_c(0) = sum_x c_x c_x^dag``, exactly; other
coins dephase ``P0(k)`` in each node's eigenbasis. This module evaluates it
by Brillouin-zone quadrature for any walk/state and provides the U(2) line
walk's closed forms: the local-state density matrix, the general local
eigenvalue pair and the two worked non-local examples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristic import (
    QuadratureGrid,
    _eigenspaces,
    _grid_mean,
    _involution_2,
    c_local,
    c_local_u2,
    characteristic_stack,  # noqa: F401  (unused: perfbench's tracer patches this name here too)
)
from .errors import InvalidArgument
from .linalg import Array, DensityMatrix, von_neumann_entropy
from .states import (
    BlochCoin,
    InitialState,
    _as_vector,
    _require_unit,
    checked_site_table,
    psi_k_many,  # noqa: F401  (the pointwise route; perfbench's tracer patches this name)
)
from .walk import U2Params, WalkSpec, _fold_theta


@dataclass(frozen=True)
class AsymptoticResult:
    """Asymptotic coin state with its spectrum and entanglement entropy."""

    rho: DensityMatrix
    eigenvalues: Array  # descending
    cpe: float  # von Neumann entropy of rho, in bits
    method: str  # "numeric_quadrature" | "closed_form_local" | "closed_form_reference"


def _result(matrix: Array, method: str) -> AsymptoticResult:
    rho = DensityMatrix(matrix)
    return AsymptoticResult(
        rho=rho,
        eigenvalues=rho.eigenvalues(),
        cpe=von_neumann_entropy(rho),
        method=method,
    )


def rho_asymptotic(
    spec: WalkSpec, state: InitialState, grid: QuadratureGrid | None = None
) -> AsymptoticResult:
    """Asymptotic reduced coin state via Brillouin-zone quadrature.

    At every node the initial projector ``P0(k) = |psi_k><psi_k|`` is
    dephased to ``sum_w P_w P0 P_w``; the nodes are then averaged by
    :func:`~coinwalk.characteristic._grid_mean`, which also sets out the grid,
    the half zone of bipartite walks and the refusals.

    A state with one occupied site ``c`` has ``P0(k) = c c^dag`` at every
    node, so its limit is the paper's one contraction of the constant
    :func:`~coinwalk.characteristic.c_local` with ``c c^dag``: no ``psi_k``
    and no per-node dephasing. A translate of a local state, a one-site
    ``dist`` or ``general`` map and a map whose other amplitudes are zero all
    take this route.

    Otherwise, for a 2x2 coin the node's term is ``(P0 + D P0 D) / 2`` with
    ``D = P_1 - P_2`` (:func:`~coinwalk.characteristic._involution_2`). The
    grid mean of ``P0`` is the initial coin state ``sum_r c_r c_r^dag``
    exactly (Parseval: the grid holds more points per axis than the state
    spans, which ``_grid_mean`` enforces), so it is added once from the site
    table, and a block of M nodes sums only ``y y^dag`` with ``y = D psi`` of
    shape (2, gM) over the g columns of psi that share each ``D``. Other coins
    sum ``V (S o sum_g a a^dag) V^dag`` with ``a = V^dag psi`` over each node's
    eigenvectors V (:func:`~coinwalk.characteristic._eigenspaces`), where
    ``S_ij = 1`` if columns i and j share an eigenspace, else 0: n^3 work per
    node and no C. A state whose coin or lattice dimension differs from the walk's
    raises :class:`InvalidArgument`; the grid's refusals are those of
    ``_grid_mean``.
    """

    def d_p0_d_sum(kb: Array, psi: Array) -> Array:
        d = _involution_2(spec, kb)
        y = np.empty((2, *psi.shape[:2]), dtype=np.complex128)  # (row, g, M)
        for a in range(2):
            y[a] = d[a, 0] * psi[..., 0] + d[a, 1] * psi[..., 1]
        y = y.reshape(2, -1)
        return y @ y.conj().T

    def dephased_sum(kb: Array, psi: Array) -> Array:
        v, labels = _eigenspaces(spec, kb)
        a = v.conj().swapaxes(1, 2) @ psi.transpose(1, 2, 0)  # (M, n, g): V^dag psi
        b = a @ a.conj().swapaxes(1, 2)  # sum_g a a^dag, in the eigenbasis
        b *= labels[:, :, None] == labels[:, None, :]  # S: the pairs of one eigenspace
        return (v @ b @ v.conj().swapaxes(1, 2)).sum(axis=0)

    table = checked_site_table(spec, state)
    coeffs = table[1]
    if len(coeffs) == 1:  # P0(k) = c c^dag at every node
        rho = _dephase(c_local(spec, grid), np.outer(coeffs[0], coeffs[0].conj()))
    elif spec.coin_dim == 2:  # the grid mean of P0, by Parseval: sum_r c_r c_r^dag
        rho = 0.5 * (coeffs.T @ coeffs.conj() + _grid_mean(spec, grid, d_p0_d_sum, table))
    else:
        rho = _grid_mean(spec, grid, dephased_sum, table)
    return _result(rho, "numeric_quadrature")


def _dephase(c: Array, p0: Array) -> Array:
    """``rho_ad = sum_bc C_(a,c),(b,d) P0_bc`` for C (n^2, n^2) and P0 (n, n).

    Viewed as (n, n^2, n), C holds for each row a an (n^2, n) matrix over
    the index pairs (c, b); row a of rho is ``vec(P0^T)`` times that matrix.
    """
    n = len(p0)
    return (p0.T.reshape(1, 1, n * n) @ c.reshape(n, n * n, n)).reshape(n, n)


def rho_from_characteristic(chi: Array, c: Array, method: str) -> AsymptoticResult:
    """Contract a constant (n^2, n^2) characteristic matrix with the coin projector of ``chi``."""
    chi = _as_vector(chi)
    _require_unit(chi, "coin state is")
    if np.shape(c) != (chi.size**2, chi.size**2):
        raise InvalidArgument(f"c has shape {np.shape(c)}, expected {(chi.size**2,) * 2}")
    p0 = np.outer(chi, chi.conj())
    return _result(_dephase(c, p0), method)


def rho_local_closed(p: U2Params, chi) -> AsymptoticResult:
    """Exact asymptotic coin state of a local initial state on the U(2) line.

    For ``chi = |0>`` this is ``(1/2) [[2 - sin t, f*], [f, sin t]]`` with
    ``f = sin t cos t / (sin t + 1) exp(1j (alpha - beta))``.
    """
    return rho_from_characteristic(chi, c_local_u2(p), "closed_form_local")


def eigenvalues_local_general(p: U2Params, b: BlochCoin) -> tuple[float, float]:
    """Closed-form eigenvalue pair for a general local coin state.

    ``1/2 +- sqrt(1 + cos 2t cos 2xi + sin 2t cos(a - b - eta) sin 2xi)
    / (2 sqrt(2) (sin t + 1))``; reduces at xi = 0 to
    ``1/2 +- |cos t| / (2 sin t + 2)``. An angle with ``sin t < 0`` is first
    folded to ``sin t > 0`` as in :func:`~coinwalk.characteristic.c_local_u2`.
    """
    p = _fold_theta(p)
    radical = (
        1.0
        + np.cos(2 * p.theta) * np.cos(2 * b.xi)
        + np.sin(2 * p.theta) * np.cos(p.alpha - p.beta - b.eta) * np.sin(2 * b.xi)
    )
    delta = np.sqrt(max(radical, 0.0)) / (2 * np.sqrt(2.0) * (np.sin(p.theta) + 1))
    return (0.5 + float(delta), 0.5 - float(delta))


def eigenvalues_distributed_example(p: U2Params) -> tuple[float, float]:
    """Eigenvalue pair for chi=|0> spread equally over x = -1 and x = +1.

    ``1/2 +- |cos t| sqrt(4 sin^2 t sin^2 a + 4 sin t sin^2 a + 1)
    / (2 (sin t + 1)^2)``. Collapses to ``1/2 +- |cos t|/(2 (sin t + 1)^2)``
    at alpha = 0. Derivation regime: theta in (0, pi/2); an angle with
    ``sin t < 0`` is first folded as in :func:`eigenvalues_local_general`.
    """
    p = _fold_theta(p)
    s, sa = np.sin(p.theta), np.sin(p.alpha)
    radical = 4 * s**2 * sa**2 + 4 * s * sa**2 + 1
    delta = abs(np.cos(p.theta)) * np.sqrt(radical) / (2 * (s + 1) ** 2)
    return (0.5 + float(delta), 0.5 - float(delta))


def eigenvalues_entangled_example(theta: float) -> tuple[float, float]:
    """Eigenvalue pair for the maximally coin-position-entangled example.

    State ``(|-1>|0> + |+1>|1>)/sqrt(2)``:
    ``1/2 +- sin t (1 - sin t) / (2 (1 + sin t)^2)``, independent of the coin
    phases. So folding ``sin t < 0`` (:func:`eigenvalues_local_general`) takes
    ``|sin t|``.
    """
    s = abs(np.sin(theta))
    delta = s * (1 - s) / (2 * (1 + s) ** 2)
    return (0.5 + float(delta), 0.5 - float(delta))


def rho_distributed_example_closed(p: U2Params) -> AsymptoticResult:
    """Reference density matrix for the chi=|0>, x = +-1 distributed example.

    An angle with ``sin t < 0`` is first folded as in :func:`eigenvalues_local_general`.
    """
    p = _fold_theta(p)
    s, c = np.sin(p.theta), np.cos(p.theta)
    sa, ca = np.sin(p.alpha), np.cos(p.alpha)
    bterm = s * sa**2 + ca**2
    aterm = (
        c
        * (sa**2 + (0.5 - 1j * sa * np.exp(-1j * p.alpha)) / (s + 1))
        * np.exp(1j * (p.beta - p.alpha))
    )
    pref = s / (s + 1)
    matrix = pref * np.array(
        [[(s + 1) / s - bterm, aterm], [np.conj(aterm), bterm]], dtype=np.complex128
    )
    return _result(matrix, "closed_form_reference")


def entropy_of_pair(lam1: float, lam2: float) -> float:
    """Binary von Neumann entropy of a two-eigenvalue spectrum, in bits.

    Floored at 0, as :func:`~coinwalk.linalg.von_neumann_entropy` is: an
    eigenvalue rounding to slightly above 1 would otherwise make it negative.
    """
    e = 0.0
    for lam in (lam1, lam2):
        if lam > 0:
            e -= lam * np.log2(lam)
    return max(0.0, float(e))

