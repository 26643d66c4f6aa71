"""Brute-force position-space time evolution.

Independent oracle for the quadrature pipeline: evolve the walker step by
step, reduce to the coin, and average over time. The instantaneous coin
state oscillates forever; its running (Cesaro) average is what converges to
the asymptotic quadrature result.

One-dimensional walks run on a dense array sized to the light cone; other
dimensions use the sparse map representation directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .linalg import Array, DensityMatrix
from .states import InitialState, site_table
from .walk import WalkSpec


@dataclass(frozen=True)
class LatticeState:
    """Walker amplitudes after t steps, as a sparse map site -> coin vector."""

    t: int
    amplitudes: dict[tuple[int, ...], Array]

    def norm(self) -> float:
        return float(
            np.sqrt(sum(np.linalg.norm(c) ** 2 for c in self.amplitudes.values()))
        )


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
    items = sorted(s.amplitudes.items())
    rho = sum(np.outer(c, c.conj()) for _, c in items)
    return DensityMatrix((rho + rho.conj().T) / 2)


def _dense_rho_series_1d(spec: WalkSpec, state: InitialState, t_max: int) -> Array:
    # dense evolution on an array sized to the light cone; returns the
    # (t_max+1, n, n) stack of instantaneous coin states
    positions, coeffs = site_table(state)
    pos = positions[:, 0]
    reach = int(np.max(np.abs(spec.shifts))) * t_max
    lo = int(pos.min()) - reach
    hi = int(pos.max()) + reach
    size = hi - lo + 1
    amp = np.zeros((size, spec.coin_dim), dtype=np.complex128)
    amp[pos - lo] = coeffs
    shifts = [int(x) for x in spec.shifts[:, 0]]

    rhos = np.empty((t_max + 1, spec.coin_dim, spec.coin_dim), dtype=np.complex128)
    rhos[0] = amp.T @ amp.conj()
    for t in range(1, t_max + 1):
        amp = amp @ spec.coin.T
        for j, sj in enumerate(shifts):
            if sj:
                amp[:, j] = np.roll(amp[:, j], sj)
        rhos[t] = amp.T @ amp.conj()
    return rhos


def rho_series(spec: WalkSpec, state: InitialState, t_max: int) -> Array:
    """Instantaneous reduced coin states rho_c(t) for t = 0..t_max, stacked."""
    if spec.lattice_dim == 1:
        return _dense_rho_series_1d(spec, state, t_max)
    s = initial_lattice_state(state)
    out = [rho_c_at_t(s).matrix]
    for _ in range(t_max):
        s = step(spec, s)
        out.append(rho_c_at_t(s).matrix)
    return np.stack(out)


def cesaro_rho(
    spec: WalkSpec, state: InitialState, t_max: int, burn_in: int | None = None
) -> DensityMatrix:
    """Time-averaged reduced coin state over t = burn_in+1 .. t_max.

    ``burn_in`` defaults to 5% of ``t_max`` (transient discard).
    """
    if burn_in is None:
        burn_in = t_max // 20
    if not (t_max > burn_in >= 0):
        raise InvalidArgument(f"need t_max > burn_in >= 0, got t_max={t_max}, burn_in={burn_in}")
    rhos = rho_series(spec, state, t_max)
    avg = rhos[burn_in + 1 :].mean(axis=0)
    return DensityMatrix((avg + avg.conj().T) / 2)
