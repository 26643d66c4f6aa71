"""Per-layer timing for traced runs.

While installed, the tracer swaps names in the coinwalk module that makes the
call (``coinwalk.characteristic.eig_unitary``,
``coinwalk.asymptotics.characteristic_stack`` and so on) for wrappers that
count calls and time them. A wrapper's self time is its duration minus the
time of the traced calls it makes, so the self times under one op add up to
the op's total. No file of the package changes, and the names are restored
when the tracer is removed.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from coinwalk import asymptotics, characteristic, simulate


def _sites(state) -> int:
    return 1 if not hasattr(state, "amplitudes") else len(state.amplitudes)


def _count_stack(c, spec, ks, *_):
    m, n = ks.shape[0], spec.coin_dim
    c["characteristic.nodes"] += m
    c["characteristic.stack_bytes"] = max(c["characteristic.stack_bytes"], m * n**4 * 16)


def _count_psi(c, state, ks, *_):
    c["states.phase_evals"] += ks.shape[0] * _sites(state)


def _count_series(c, spec, state, t_max, *_):
    if spec.lattice_dim == 1:
        # the dense stepper updates its whole light-cone array every step
        xs = [r[0] for r in state.amplitudes] if hasattr(state, "amplitudes") else [state.position[0]]
        reach = int(abs(spec.shifts).max()) * t_max
        c["simulate.site_steps"] += (max(xs) - min(xs) + 2 * reach + 1) * t_max


def _count_step(c, spec, s, *_):
    c["simulate.site_steps"] += len(s.amplitudes)


def _count_rho(c, spec, state, grid=None, *_):
    m = grid.node_count if grid is not None else characteristic.QuadratureGrid.default(spec.lattice_dim).node_count
    # P0 (x) I, I (x) P0 and their two products with the C stack
    c["asymptotics.contract_bytes"] = max(c["asymptotics.contract_bytes"], 4 * m * spec.coin_dim**4 * 16)


def _count_groups(c, es):
    c["linalg.eig_unitary.merged_groups"] += sum(len(g) > 1 for g in es.groups)


# (module, name in that module, layer name, counter before the call, counter after)
PATCHES = (
    (asymptotics, "characteristic_stack", "characteristic.characteristic_stack", _count_stack, None),
    (asymptotics, "psi_k_many", "states.psi_k_many", _count_psi, None),
    (asymptotics, "DensityMatrix", "linalg.DensityMatrix", None, None),
    (asymptotics, "von_neumann_entropy", "linalg.von_neumann_entropy", None, None),
    (characteristic, "characteristic_stack", "characteristic.characteristic_stack", _count_stack, None),
    (characteristic, "characteristic_at_k", "characteristic.characteristic_at_k", None, None),
    (characteristic, "eig_unitary", "linalg.eig_unitary", None, _count_groups),
    (characteristic, "build_uk", "walk.build_uk", None, None),
    (simulate, "rho_series", "simulate.rho_series", _count_series, None),
    (simulate, "step", "simulate.step", _count_step, None),
    (simulate, "rho_c_at_t", "simulate.rho_c_at_t", None, None),
    (simulate, "DensityMatrix", "linalg.DensityMatrix", None, None),
)
ROOT_COUNTERS = {"asymptotics.rho_asymptotic": _count_rho}


class OpTrace:
    """Calls, total and self time per layer, and counters, for one op."""

    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)


class Tracer:
    def __init__(self):
        self.ops: list[OpTrace] = []
        self._current: OpTrace | None = None
        self._children: list[float] = []

    def _wrap(self, layer: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            op = self._current
            if op is None:  # outside an op, e.g. while a result is checked
                return fn(*args, **kwargs)
            if before is not None:
                before(op.counters, *args, **kwargs)
            self._children.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._children.pop()
                if self._children:
                    self._children[-1] += dt
                s = op.stats[layer]
                s[0] += 1
                s[1] += dt
                s[2] += dt - child
            if after is not None:
                after(op.counters, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = [(mod, name, getattr(mod, name)) for mod, name, *_ in PATCHES]
        try:
            for (mod, name, layer, before, after), (_, _, orig) in zip(PATCHES, saved):
                setattr(mod, name, self._wrap(layer, orig, before, after))
            yield self
        finally:
            for mod, name, orig in saved:
                setattr(mod, name, orig)

    def call(self, root: str, fn, args):
        """Run one op under a root span named after the layer the benchmark calls."""
        self._current = OpTrace()
        self.ops.append(self._current)
        try:
            return self._wrap(root, fn, ROOT_COUNTERS.get(root))(*args)
        finally:
            self._current = None
