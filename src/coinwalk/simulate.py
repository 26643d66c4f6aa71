"""Brute-force position-space time evolution.

Independent oracle for the quadrature pipeline: evolve the walker step by
step, reduce to the coin, and average over time. The instantaneous coin
state oscillates forever; its running (Cesaro) average is what converges to
the asymptotic quadrature result.

Every lattice dimension runs on one dense stepper over the box the walker
can have reached (:func:`rho_series`). The per-site map stepper
(:func:`step`, :func:`rho_c_at_t`) is kept as its independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, as_int
from .linalg import Array, DensityMatrix
from .states import InitialState, checked_site_table, site_table
from .walk import WalkSpec


@dataclass(frozen=True)
class LatticeState:
    """Walker amplitudes after t steps, as a sparse map site -> coin vector."""

    t: int
    amplitudes: dict[tuple[int, ...], Array]


def initial_lattice_state(state: InitialState) -> LatticeState:
    positions, coeffs = site_table(state)
    return LatticeState(
        t=0, amplitudes={tuple(int(x) for x in r): c.copy() for r, c in zip(positions, coeffs)}
    )


def step(spec: WalkSpec, s: LatticeState) -> LatticeState:
    """One walk step: coin at every site, then the coin-conditioned shifts."""
    out: dict[tuple[int, ...], Array] = {}
    shifts = [tuple(int(x) for x in row) for row in spec.shifts]
    for r, c in sorted(s.amplitudes.items()):
        v = spec.coin @ c
        for j, sj in enumerate(shifts):
            if v[j] == 0:
                continue
            target = tuple(a + b for a, b in zip(r, sj))
            acc = out.get(target)
            if acc is None:
                acc = np.zeros(spec.coin_dim, dtype=np.complex128)
                out[target] = acc
            acc[j] += v[j]
    return LatticeState(t=s.t + 1, amplitudes=out)


def rho_c_at_t(s: LatticeState) -> DensityMatrix:
    """Reduced coin state ``sum_r c_r c_r^dag`` at the current step."""
    return DensityMatrix(sum(np.outer(c, c.conj()) for _, c in sorted(s.amplitudes.items())))


def rho_series(spec: WalkSpec, state: InitialState, t_max: int) -> Array:
    """Instantaneous reduced coin states rho_c(t) for t = 0..t_max, stacked.

    One dense stepper serves every lattice dimension. The walker at step t
    is a contiguous coin-major array ``(n, *box_t)`` over the box it can have
    reached: the bounding box of the initial support, widened on each axis
    by ``reach = max_j s_j - min_j s_j`` per step. A step applies the coin to
    that box with one matrix product, then writes coin component j into the
    step-t box at offset ``s_j - min_j s_j`` by slice assignment; nothing
    wraps. ``rho_c(t) = W W^dag`` is taken over the reached box only.

    Memory is allocated once, up front: two buffers of
    ``n * prod_axis(span + reach * t_max)`` complex amplitudes, that is
    ``2 n prod_axis(span + reach t_max) 16`` bytes. One holds the walker, the
    other the coin-mixed amplitudes and then their conjugate. Far-apart
    supports therefore cost their whole bounding box. A box, or a series of
    ``t_max + 1`` coin states, too large to allocate raises
    :class:`InvalidArgument`.
    """
    positions, coeffs = checked_site_table(spec, state)
    if as_int(t_max, "t_max") < 0:
        raise InvalidArgument(f"need t_max >= 0, got {t_max}")
    n = spec.coin_dim
    low = spec.shifts.min(axis=0)
    origin = positions.min(axis=0)
    # Python ints: spans and reaches of int64 positions and shifts can exceed int64
    reach = [int(hi) - int(lo) for hi, lo in zip(spec.shifts.max(axis=0), low)]
    shape = tuple(int(hi) - int(lo) + 1 for hi, lo in zip(positions.max(axis=0), origin))
    size = n * math.prod(s + r * t_max for s, r in zip(shape, reach))
    try:
        walker, scratch = np.zeros((2, size), dtype=np.complex128)
        rhos = np.empty((t_max + 1, n, n), dtype=np.complex128)
    except (MemoryError, ValueError) as exc:
        raise InvalidArgument(
            f"the light cone of {size} amplitudes and the series of {t_max + 1} coin states"
            f" up to t_max={t_max} do not fit in memory"
        ) from exc
    offsets = [[int(o) for o in row] for row in spec.shifts - low]

    psi = walker[: n * math.prod(shape)].reshape(n, *shape)
    psi[(slice(None), *(positions - origin).T)] = coeffs.T
    _coin_state(psi, scratch, rhos[0])
    for t in range(1, t_max + 1):
        flat = psi.reshape(n, -1)
        mixed = scratch[: flat.size].reshape(flat.shape)
        np.matmul(spec.coin, flat, out=mixed)
        mixed = mixed.reshape(n, *shape)
        new_shape = tuple(s + r for s, r in zip(shape, reach))
        psi = walker[: n * math.prod(new_shape)].reshape(n, *new_shape)
        psi[...] = 0
        for j, off in enumerate(offsets):
            psi[(j, *(slice(o, o + s) for o, s in zip(off, shape)))] = mixed[j]
        shape = new_shape
        _coin_state(psi, scratch, rhos[t])
    return rhos


def _coin_state(psi: Array, scratch: Array, out: Array) -> None:
    # out = W W^dag for the (n, *box) walker W, conjugating into scratch
    flat = psi.reshape(psi.shape[0], -1)
    conj = scratch[: flat.size].reshape(flat.shape)
    np.conjugate(flat, out=conj)
    np.matmul(flat, conj.T, out=out)


def cesaro_rho(spec: WalkSpec, state: InitialState, t_max: int) -> DensityMatrix:
    """Time-averaged reduced coin state over t = t_max // 20 + 1 .. t_max (5% transient dropped).

    ``t_max < 1`` raises :class:`InvalidArgument`.
    """
    t_max = as_int(t_max, "t_max")
    if t_max < 1:
        raise InvalidArgument(f"need t_max >= 1, got {t_max}")
    return DensityMatrix(rho_series(spec, state, t_max)[t_max // 20 + 1 :].mean(axis=0))
