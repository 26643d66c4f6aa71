"""Brute-force position-space time evolution.

Independent oracle for the quadrature pipeline: evolve the walker step by
step, reduce to the coin, and average over time. The instantaneous coin
state oscillates forever; its running (Cesaro) average is what converges to
the asymptotic quadrature result.

Every lattice dimension runs on one dense stepper over the box the walker
can have reached (:func:`rho_series`), counted on the sublattice its shifts
can reach: on the +-1 line a walker started on one parity meets every other
site only, so the box keeps one site in two. The stepper keeps its last
few walkers in a ring of fixed size and takes their coin states a block of
steps at a time. The per-site map stepper (:func:`step`, :func:`rho_c_at_t`)
is kept as its independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

import numpy as np

from .errors import InvalidArgument, as_int
from .linalg import Array, DensityMatrix
from .states import InitialState, checked_site_table, site_table, to_origin
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


# rho_series keeps at most this many recent walkers, in at most this many
# bytes, and reduces them to coin states a block at a time
_RING_SLOTS = 8
_RING_BYTES = 256 * 2**10


def rho_series(spec: WalkSpec, state: InitialState, t_max: int) -> Array:
    """Instantaneous reduced coin states rho_c(t) for t = 0..t_max, stacked.

    One dense stepper serves every lattice dimension. The walker at step t
    is a coin-major array ``(n, *box_t)`` over the box it can have reached,
    counted on the sublattice its shifts reach (:func:`_sublattice`): on
    axis a only sites ``g_a = gcd_j (s_j - s_0)_a`` apart. The box starts as
    the bounding box of the initial support and widens on each axis by
    ``reach / g`` per step, where ``reach = max_j s_j - min_j s_j``. A step
    applies the coin to that box with one matrix product, then writes coin
    component j into the step-t box at its shift's offset by slice
    assignment; nothing wraps. ``rho_c(t) = W W^dag`` is taken over the
    reached box only, for a block of up to 8 steps at once with one batched
    matrix product, and each block is symmetrised as ``(R + R^dag) / 2``, so
    every diagonal is exactly real.

    Memory is allocated once, up front. A slab holds the walker at t_max,
    ``n * c * prod_axis(span / g + reach * t_max / g)`` complex amplitudes,
    where ``span / g = (x_max - x_min) // g + 1`` and ``c`` is the number of
    residue classes mod ``g`` the initial sites occupy (1 for a local state).
    The last k walkers sit in a ring of k slabs, where k is the number of
    slabs, up to 8, that fit in 256 KiB, and 1 for a slab larger than that;
    one scratch of the ring's size holds the coin-mixed amplitudes and then a
    block's conjugates. So the stepper needs at most twice 256 KiB, or twice
    one slab, besides the ``t_max + 1`` coin states it returns. The box of the
    +-1 line is half the plain one, that of the tetrahedral walk an eighth;
    the square, cubic, hexagonal, triangular and lazy walks have every
    ``g_a = 1`` and keep the plain box. A checkerboard sublattice that is not
    a product of axis steps (``+-e_1, +-e_2`` meet one site in two) is not
    compressed, and far-apart supports still cost their whole bounding box. A
    box, or a series of ``t_max + 1`` coin states, too large to allocate
    raises :class:`InvalidArgument`.
    """
    positions, coeffs = checked_site_table(spec, state)
    if as_int(t_max, "t_max") < 0:
        raise InvalidArgument(f"need t_max >= 0, got {t_max}")
    n = spec.coin_dim
    index, shape, offsets = _sublattice(spec.shifts, positions)
    reach = [max(col) for col in zip(*offsets)]
    slab = math.prod(s + r * t_max for s, r in zip(shape, reach))
    k = min(_RING_SLOTS, t_max + 1, max(1, _RING_BYTES // (16 * n * slab)))
    try:
        ring = np.zeros(k * n * slab, dtype=np.complex128)
        scratch = np.empty_like(ring)
        rhos = np.empty((t_max + 1, n, n), dtype=np.complex128)
    except (MemoryError, ValueError) as exc:
        raise InvalidArgument(
            f"the light cone of {n * slab} amplitudes and the series of {t_max + 1} coin states"
            f" up to t_max={t_max} do not fit in memory"
        ) from exc
    # the old box sits at offset o of the new one on every step, so the
    # targets of the shifts are the same slices throughout
    targets = [
        (j, *(slice(o, o - r or None) for o, r in zip(off, reach))) for j, off in enumerate(offsets)
    ]

    grow = (0, *reach)
    box = (n, *shape)
    size = math.prod(shape)
    for first in range(0, t_max + 1, k):
        end = min(first + k, t_max + 1)
        # every walker of the block takes the row length of its last box, so
        # the block is one contiguous (end - first, n, width) array
        width = math.prod(s + r * (end - 1) for s, r in zip(shape, reach))
        block = ring[: k * n * width].reshape(k, n, width)[: end - first]
        for t, slot in enumerate(block, first):
            if t:
                mixed = scratch[: n * size].reshape(n, size)
                np.matmul(spec.coin, walker, out=mixed)
                mixed = mixed.reshape(box)
                box = tuple(map(add, box, grow))
                size = math.prod(box[1:])
                # zeroed after the product: the slot may hold the last walker
                slot.fill(0)
                walker = slot[:, :size]
                psi = walker.reshape(box)
                for target, component in zip(targets, mixed):
                    psi[target] = component
            else:
                walker = slot[:, :size]
                walker.reshape(box)[(slice(None), *index)] = coeffs.T
        # rho(t) = W W^dag for the whole block at once: each row is zero beyond
        # its walker's box, as every slot is zeroed whole before it is written
        # (the first by np.zeros)
        conj = scratch[: block.size].reshape(block.shape)
        np.conjugate(block, out=conj)
        out = rhos[first:end]
        np.matmul(block, conj.transpose(0, 2, 1), out=out)
        out += out.conj().transpose(0, 2, 1)
        out *= 0.5
    return rhos


def _sublattice(shifts: Array, positions: Array) -> tuple[tuple, tuple[int, ...], list[list[int]]]:
    """The site table as a box on the sublattice the shifts reach: (index, shape, offsets).

    ``index`` places each site in the box of shape ``shape``, and
    ``offsets[j]`` is where shift j moves the box's origin, >= 0 on every axis.

    Every step moves a site by ``s_0`` plus an integer combination of the
    differences ``s_j - s_0``, so on axis a the walker meets only sites
    ``g_a = gcd_j (s_j - s_0)_a`` apart (``g_a = 1`` where that gcd is 0).
    Dropping the common ``s_0`` translates the walker, which leaves ``W W^dag``
    unchanged, so a site ``x`` sits at ``(x - x_min) // g`` and each shift
    becomes ``(s_j - s_0) // g``, offset to start at 0 on every axis. Where
    the sites' residues ``(x - x_min) mod g`` differ, a leading axis numbers
    the residue classes they occupy; no shift moves along it. With every
    ``g_a = 1`` this is the plain box of ``x - x_min`` and ``s_j - min_j s_j``.
    """
    # Python ints: differences of int64 shifts can exceed int64
    rows = shifts.tolist()
    steps = [[x - x0 for x, x0 in zip(row, rows[0])] for row in rows]
    g = [math.gcd(*col) or 1 for col in zip(*steps)]
    steps = [[x // ga for x, ga in zip(row, g)] for row in steps]
    low = [min(col) for col in zip(*steps)]
    offsets = [[x - lo for x, lo in zip(row, low)] for row in steps]
    rel, residue = np.divmod(to_origin(positions), np.array(g, dtype=np.uint64))
    shape = tuple(x + 1 for x in rel.max(axis=0).tolist())
    # a box that fits in memory has indices below 2**63
    index = tuple(rel.view(np.int64).T)
    if residue.any():
        classes, label = np.unique(residue, axis=0, return_inverse=True)
        index = (label.reshape(-1), *index)
        shape = (len(classes), *shape)
        offsets = [[0, *row] for row in offsets]
    return index, shape, offsets


def cesaro_rho(spec: WalkSpec, state: InitialState, t_max: int) -> DensityMatrix:
    """Time-averaged reduced coin state over t = t_max // 20 + 1 .. t_max (5% transient dropped).

    ``t_max < 1`` raises :class:`InvalidArgument`.
    """
    t_max = as_int(t_max, "t_max")
    if t_max < 1:
        raise InvalidArgument(f"need t_max >= 1, got {t_max}")
    return DensityMatrix(rho_series(spec, state, t_max)[t_max // 20 + 1 :].mean(axis=0))
