"""Brute-force position-space time evolution.

Independent oracle for the quadrature pipeline: evolve the walker step by
step, reduce to the coin, and average over time. The instantaneous coin
state oscillates forever; its running (Cesaro) average is what converges to
the asymptotic quadrature result.

Every lattice dimension runs on one dense stepper over the box the walker
can have reached (:func:`rho_series`), counted in coordinates of a basis of
the lattice that the shift differences span: on the +-1 line a walker
started on one parity meets every other site only, so the box keeps one site
in two; the square and triangular lattices step on ``(t + 1)^2`` sites, and
every walk whose shift differences are collinear on one axis. On a one-axis
box each coin row is written straight into its place in the next box. The
stepper keeps its last few walkers in a ring of fixed size and takes their
coin states a block of steps at a time. The per-site map stepper
(:func:`step`, :func:`rho_c_at_t`) is kept as its independent reference.
"""

from __future__ import annotations

import itertools
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
    counted in the coordinates of a basis of the lattice
    ``L = span_Z{s_j - s_0}`` (:func:`_sublattice`): from a site x the walker
    meets only the sites ``x + t s_0 + L``. The box starts as the bounding box
    of the initial sites' coordinates and widens on axis a by
    ``reach_a = max_j c_ja - min_j c_ja`` per step, where ``c_j`` are the
    coordinates of ``s_j - s_0``; :func:`_lattice` takes a basis whose
    ``prod_a reach_a`` is the smallest where L has rank 2 or less. So the
    square lattice's ``+-e_1, +-e_2`` and the triangular lattice step on
    ``(t + 1)^2`` sites, not ``(2t + 1)^2``, and a walk whose L has rank 1
    (every 1-d walk, every 2-state walk in any dimension, and any collinear
    shift table) on one axis of ``span + reach * t`` sites.

    Where the box has one axis and the ring below holds two walkers or more,
    the step writes each coin component j straight into its place in the
    next box: ``coin[j] @ W`` fills one contiguous run of row j, so a step is n
    matrix products with nothing copied. The first step of a block whose
    first slot overlaps the last walker (each block's when two slots fit) and
    every step on any other box take the coin with one matrix product into a
    scratch and then write component j into the step-t box at its shift's
    offset by slice assignment. Nothing wraps. ``rho_c(t) = W W^dag`` is taken
    over the reached box only, for a block of up to 8 steps at once with one
    batched matrix product, and each block is symmetrised as
    ``(R + R^dag) / 2``, so every diagonal is exactly real.

    Memory is allocated once, up front. A slab holds the walker at t_max,
    ``n * c * prod_a(span_a + reach_a * t_max)`` complex amplitudes, where
    ``c`` is the number of cosets of L the initial sites occupy (1 for a local
    state) and ``span_a`` the most coordinates that the sites of one coset
    span on axis a. The last k walkers sit in a ring of k slabs, where k is
    the number of slabs, up to 8, that fit in 256 KiB, and 1 for a slab
    larger than that; one scratch of the ring's size holds the coin-mixed
    amplitudes and then a block's conjugates. So the stepper needs at most
    twice 256 KiB, or twice one slab, besides the ``t_max + 1`` coin states
    it returns. Far-apart sites of one coset still cost their whole bounding
    box. A box, or a series of ``t_max + 1`` coin states, too large to
    allocate raises :class:`InvalidArgument`.
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
    # on a one-axis box, coin row j fills row j of the next box from column o
    rows = [(spec.coin[j : j + 1], j, off[0]) for j, off in enumerate(offsets)]
    in_place = len(shape) == 1 and k > 1

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
            if not t:
                walker = slot[:, :size]
                walker.reshape(box)[(slice(None), *index)] = coeffs.T
            # with two slots or more the last walker is in another slot, but
            # the first slot of a wider block may overlap the last block's last
            elif in_place and (t > first or not np.may_share_memory(walker, slot)):
                slot.fill(0)
                for row, j, o in rows:
                    np.matmul(row, walker, out=slot[j : j + 1, o : o + size])
                box = tuple(map(add, box, grow))
                size = box[1]
                walker = slot[:, :size]
            else:
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
    """The site table as a box in coordinates of the lattice the shifts span: (index, shape, offsets).

    ``index`` places each site in the box of shape ``shape``, and
    ``offsets[j]`` is where shift j moves the box's origin, >= 0 on every axis.

    Every step moves a site by ``s_0`` plus a vector of ``L = span_Z{s_j - s_0}``.
    Dropping the common ``s_0`` translates the walker, which leaves ``W W^dag``
    unchanged, so each shift becomes the coordinates of ``s_j - s_0`` in the
    basis B of :func:`_lattice`, offset to start at 0 on every axis. A site x
    (taken from the smallest position on each axis) sits at
    ``lam = floor(x[P] B[:, P]^-1)``, for columns P on which B is nonsingular,
    and ``x - lam B`` is the same for two sites exactly where they differ by a
    vector of L: it names the site's coset. Where the sites occupy several
    cosets, or L = {0} leaves the box no other axis, a leading axis numbers
    the cosets; no shift moves along it.
    """
    basis, coords, pivots = _lattice(shifts)
    low = [min(col) for col in zip(*coords)]
    offsets = [[x - lo for x, lo in zip(row, low)] for row in coords]
    # Python ints: the positions' offsets take all of uint64
    inverse, scale = _inverse([[row[p] for p in pivots] for row in basis])
    columns = list(zip(*inverse))
    sites, cosets = [], []
    for x in to_origin(positions).tolist():
        lam = [sum(x[p] * y for p, y in zip(pivots, col)) // scale for col in columns]
        sites.append(lam)
        rest = [xi - sum(c * row[i] for c, row in zip(lam, basis)) for i, xi in enumerate(x)]
        cosets.append(tuple(rest))
    # no shift moves a site to another coset: each coset's sites start at 0 on every axis
    start = {}
    for lam, key in zip(sites, cosets):
        start[key] = list(map(min, start.get(key, lam), lam))
    rel = [[x - x0 for x, x0 in zip(lam, start[key])] for lam, key in zip(sites, cosets)]
    index = tuple(map(list, zip(*rel)))
    shape = tuple(max(col) + 1 for col in index)
    labels = {key: label for label, key in enumerate(sorted(set(cosets)))}
    if len(labels) > 1 or not shape:
        index = ([labels[key] for key in cosets], *index)
        shape = (len(labels), *shape)
        offsets = [[0, *row] for row in offsets]
    return index, shape, offsets


def _lattice(shifts: Array) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """A basis of ``L = span_Z{s_j - s_0}`` whose box grows little: (basis, coords, pivots).

    ``basis`` holds rank(L) rows of d Python ints, ``coords[j]`` the integers
    with ``s_j - s_0 = sum_a coords[j][a] basis[a]``, and ``basis`` is
    nonsingular on the columns ``pivots``. Axis a of the stepper's box grows by
    ``reach_a = max_j coords[j][a] - min_j coords[j][a]`` per step. Row
    reduction with Euclid's algorithm gives an echelon basis of L. Adding to
    one axis's coordinates the best integer multiple of another's then shrinks
    its reach, until no such step does. For rank(L) <= 2 the result has the
    smallest ``prod_a reach_a`` of all bases of L, as the basis then attains
    both successive minima of the reach (the Gauss reduction for any norm:
    Kaib & Schnorr, J. Algorithms 21, 565 (1996)). At rank 3 it does so on the
    cubic and tetrahedral lattices, but not on every shift table. Each row's
    first nonzero entry is made positive, so a diagonal L keeps the
    orientation of the axes.
    """
    # Python ints: differences of int64 shifts can exceed int64
    rows = shifts.tolist()
    diffs = [[x - x0 for x, x0 in zip(row, rows[0])] for row in rows]
    basis, pivots, rest = [], [], [row for row in diffs if any(row)]
    for c in range(shifts.shape[1]):
        while len(live := [row for row in rest if row[c]]) > 1:
            p = min(live, key=lambda row: abs(row[c]))
            rest = [
                row if row is p or not row[c] else [x - row[c] // p[c] * y for x, y in zip(row, p)]
                for row in rest
            ]
        if live:
            basis.append(live[0])
            pivots.append(c)
            rest = [row for row in rest if row is not live[0] and any(row)]
    inverse, scale = _inverse([[row[p] for p in pivots] for row in basis])
    # the coordinates of every s_j - s_0 on each axis, exact: L holds them
    axes = [
        [sum(v[p] * y for p, y in zip(pivots, col)) // scale for v in diffs] for col in zip(*inverse)
    ]
    improved = True
    while improved:
        improved = False
        for a, b in itertools.permutations(range(len(axes)), 2):
            m = _best_multiple(axes[a], axes[b])
            if m:
                axes[a] = [x + m * y for x, y in zip(axes[a], axes[b])]
                basis[b] = [x - m * y for x, y in zip(basis[b], basis[a])]
                improved = True
    for a, row in enumerate(basis):
        if next(x for x in row if x) < 0:
            basis[a], axes[a] = [-x for x in row], [-x for x in axes[a]]
    return basis, [list(c) for c in zip(*axes)] or [[] for _ in diffs], pivots


def _best_multiple(a: list[int], b: list[int]) -> int:
    """The integer m with the smallest spread of ``a + m b``; 0 unless that is below a's own."""
    # the spread is convex and piecewise linear in m, with kinks where two entries cross
    kinks = {0}
    for (ai, bi), (aj, bj) in itertools.combinations(zip(a, b), 2):
        if bi != bj:
            q, r = divmod(aj - ai, bi - bj)
            kinks.update((q, q + (r != 0)))

    def spread(m: int) -> int:
        values = [x + m * y for x, y in zip(a, b)]
        return max(values) - min(values)

    return min(sorted(kinks, key=lambda m: (abs(m), m)), key=spread)


def _inverse(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """``(a, q)`` with ``m^-1 = a / q`` and q > 0, for a nonsingular square matrix of ints.

    Gauss-Jordan elimination in integers: a row is scaled by the pivot rather
    than divided by it, then divided by the gcd of its entries.
    """
    r = len(m)
    rows = [[*row, *(int(i == j) for j in range(r))] for i, row in enumerate(m)]
    for c in range(r):
        p = next(i for i in range(c, r) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        for i in range(r):
            if i != c and rows[i][c]:
                row = [rows[c][c] * x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row]
    # row i now holds d_i e_i, then d_i times row i of m^-1
    q = math.lcm(*(row[i] for i, row in enumerate(rows)))
    return [[x * (q // row[i]) for x in row[r:]] for i, row in enumerate(rows)], q


def cesaro_rho(spec: WalkSpec, state: InitialState, t_max: int) -> DensityMatrix:
    """Time-averaged reduced coin state over t = t_max // 20 + 1 .. t_max (5% transient dropped).

    ``t_max < 1`` raises :class:`InvalidArgument`.
    """
    t_max = as_int(t_max, "t_max")
    if t_max < 1:
        raise InvalidArgument(f"need t_max >= 1, got {t_max}")
    return DensityMatrix(rho_series(spec, state, t_max)[t_max // 20 + 1 :].mean(axis=0))
