"""Asymptotic reduced coin state and entanglement observables.

The long-time coin state is the k-average of the dephased initial projector,
``rho_ad = integral dk/(2pi)^d sum_bc C_(a,c),(b,d)(k) P0_bc(k)``, that is
``sum_w P_w P0 P_w`` averaged over k: right for eigenspaces of any rank,
where ``Tr_1[(P0 (x) I) C] = sum_w Tr(P0 P_w) P_w`` is right only for rank 1.
This module evaluates it by Brillouin-zone quadrature for any walk/state and
provides the known closed forms for the U(2) line walk: the local-state
density matrix, the general local eigenvalue pair, and the reference
eigenvalues for the two worked non-local examples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristic import (
    QuadratureGrid,
    _grid_mean,
    _projectors_2,
    c_local_u2,
    characteristic_stack,
)
from .errors import DimensionMismatch
from .linalg import Array, DensityMatrix, von_neumann_entropy
from .states import (
    BlochCoin,
    InitialState,
    _as_vector,
    at_origin,
    psi_k_many,  # noqa: F401  (the pointwise route; perfbench's tracer patches this name)
    psi_on_grid,
    require_state_fits,
)
from .walk import U2Params, WalkSpec


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
    dephased to ``sum_w P_w P0 P_w``; the nodes are then averaged. For a 2x2
    coin that is ``sum_w q_w q_w^dag`` with ``q_w = P_w psi_k`` and the
    closed-form projectors, summed over a block of nodes by one matrix
    product; other coins contract ``C(k)`` from :func:`characteristic_stack`
    with ``P0(k)``. ``psi_k`` comes from one FFT per row of grid nodes
    (:func:`psi_on_grid`), exact in its phases. The nodes are taken one
    fixed-size block at a time, so the working memory is that of one block
    (about 4 MiB of C for n > 2) whatever the grid. The quadrature sum runs
    in a fixed node order, so results are bit-stable across runs.
    ``grid=None`` takes :meth:`QuadratureGrid.default`. The state is first
    translated to the origin (:func:`at_origin`), so every translate of it
    gives the same result to the last bit. A 2x2 coin with a zero
    off-diagonal entry, whose bands cross, raises
    :class:`DegenerateDispersion`; a grid whose (N^d, d) node array numpy
    cannot allocate, or a state whose positions are 2**63 or more apart,
    raises :class:`InvalidArgument`.
    """
    require_state_fits(spec, state)
    state = at_origin(state)
    grid = grid if grid is not None else QuadratureGrid.default(spec.lattice_dim)

    def block_sum(kb: Array, start: int) -> Array:
        psi = psi_on_grid(state, grid, start, start + len(kb))
        if spec.coin_dim == 2:
            q = (_projectors_2(spec, kb) @ psi[:, None, :, None]).reshape(-1, 2)
            return q.T @ q.conj()
        # n > 2 still builds C: perfbench/layers.py divides by this call's time
        p0 = psi[:, :, None] * psi.conj()[:, None, :]
        return _dephase(characteristic_stack(spec, kb), p0).sum(axis=0)

    return _result(_grid_mean(spec, grid, block_sum), "numeric_quadrature")


def _dephase(c: Array, p0: Array) -> Array:
    """``rho_ad = sum_bc C_(a,c),(b,d) P0_bc`` over stacks (M, n^2, n^2) and (M, n, n).

    Viewed as (M, n, n^2, n), C holds for each row a an (n^2, n) matrix over
    the index pairs (c, b); row a of rho is ``vec(P0^T)`` times that matrix.
    """
    m, n, _ = p0.shape
    v = p0.swapaxes(1, 2).reshape(m, 1, 1, n * n)
    return (v @ c.reshape(m, n, n * n, n)).reshape(m, n, n)


def rho_from_characteristic(chi: Array, c: Array, method: str) -> AsymptoticResult:
    """Contract a constant (n^2, n^2) characteristic matrix with the coin projector of ``chi``."""
    chi = _as_vector(chi)
    if np.shape(c) != (chi.size**2, chi.size**2):
        raise DimensionMismatch(f"c has shape {np.shape(c)}, expected {(chi.size**2,) * 2}")
    p0 = np.outer(chi, chi.conj())
    return _result(_dephase(c, p0[None])[0], method)


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
    ``1/2 +- |cos t| / (2 sin t + 2)``.
    """
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
    at alpha = 0. Derivation regime: theta in (0, pi/2).
    """
    s, sa = np.sin(p.theta), np.sin(p.alpha)
    radical = 4 * s**2 * sa**2 + 4 * s * sa**2 + 1
    delta = abs(np.cos(p.theta)) * np.sqrt(radical) / (2 * (s + 1) ** 2)
    return (0.5 + float(delta), 0.5 - float(delta))


def eigenvalues_entangled_example(theta: float) -> tuple[float, float]:
    """Eigenvalue pair for the maximally coin-position-entangled example.

    State ``(|-1>|0> + |+1>|1>)/sqrt(2)``:
    ``1/2 +- sin t (1 - sin t) / (2 (1 + sin t)^2)``, independent of the coin
    phases.
    """
    s = np.sin(theta)
    delta = s * (1 - s) / (2 * (1 + s) ** 2)
    return (0.5 + float(delta), 0.5 - float(delta))


def rho_distributed_example_closed(p: U2Params) -> AsymptoticResult:
    """Reference density matrix for the chi=|0>, x = +-1 distributed example."""
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
    """Binary von Neumann entropy of a two-eigenvalue spectrum, in bits."""
    e = 0.0
    for lam in (lam1, lam2):
        if lam > 0:
            e -= lam * np.log2(lam)
    return float(e)

