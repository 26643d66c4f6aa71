"""Per-layer metrics of a traced run, and the fixed probes every traced run adds.

Layer metrics are averaged over the traced ops of the workload: ``calls`` and
``self_s`` are per op, so runs with different op counts compare directly. A
layer the workload never calls reads 0; the ``grammar`` and ``cli`` layers are
only called by the cli workload. ``cli.import_s``, the start-up that every
workload's set-up pays, and the probes are measured in every traced run. The
probes repeat the baselines recorded in ROADMAP.md ("Recent") on fixed inputs,
so each traced run also says whether those figures still hold here.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import numpy as np

import coinwalk as cw
from coinwalk import asymptotics, grammar

import tracing
import workloads

TIMED = (
    "linalg.eig_unitary",
    "linalg.DensityMatrix",
    "linalg.von_neumann_entropy",
    "walk.build_uk",
    "characteristic.characteristic_at_k",
    "characteristic.characteristic_stack",
    "states.psi_k_many",
    "asymptotics.rho_asymptotic",
    "simulate.cesaro_rho",
    "simulate.rho_series",
    "simulate.step",
    "simulate.rho_c_at_t",
)
WITH_CALLS = {
    "linalg.eig_unitary", "walk.build_uk", "characteristic.characteristic_at_k",
    "characteristic.characteristic_stack", "states.psi_k_many", "asymptotics.rho_asymptotic",
    "simulate.cesaro_rho", "simulate.rho_series", "simulate.step", "simulate.rho_c_at_t",
}
PER_OP_COUNTERS = (
    "linalg.eig_unitary.merged_groups", "characteristic.nodes", "states.phase_evals",
    "simulate.site_steps",
)
MAX_COUNTERS = ("characteristic.stack_bytes", "asymptotics.contract_bytes")
GRAMMAR_METRICS = ("grammar.parse_state.self_s", "grammar.parse_walk_config.self_s")
GRAMMAR_REPEATS = 200
IMPORT_REPEATS = 3
PROBE_1D_REPEATS = 9
PROBE_2D_REPEATS = 3
PROBE_2D_GRID = 32
# ROADMAP.md "Recent", measured on 2 cores with default BLAS threads
ROADMAP_1D_OP_S = 9.5e-3
ROADMAP_LOOP_SHARE = 1.14 / 1.19  # per-node Schur loop of a 2-d n=4 op at 64^2


def _sum(ops, layer: str, field: int) -> float:
    return sum(op.stats[layer][field] for op in ops if layer in op.stats)


def layer_table(ops: list[tracing.OpTrace]) -> dict:
    n = len(ops)
    out = {}
    for layer in TIMED:
        if layer in WITH_CALLS:
            out[f"{layer}.calls"] = (_sum(ops, layer, 0) / n, "1/op")
        if layer == "asymptotics.rho_asymptotic":
            out[f"{layer}.total_s"] = (_sum(ops, layer, 1) / n, "s/op")
        out[f"{layer}.self_s"] = (_sum(ops, layer, 2) / n, "s/op")
    for name in PER_OP_COUNTERS:
        out[name] = (sum(op.counters[name] for op in ops) / n, "1/op")
    for name in MAX_COUNTERS:
        out[name] = (max(op.counters[name] for op in ops), "B")
    cesaro_s = _sum(ops, "simulate.cesaro_rho", 1)
    steps = sum(op.counters["simulate.site_steps"] for op in ops)
    out["simulate.site_steps_per_s"] = (steps / cesaro_s if cesaro_s else 0.0, "1/s")
    return out


def grammar_times(literals: list[str], walk_text: str) -> dict:
    def per_call(fn, inputs) -> float:
        samples = []
        for _ in range(GRAMMAR_REPEATS):
            t0 = perf_counter()
            for x in inputs:
                fn(x)
            samples.append((perf_counter() - t0) / len(inputs))
        return statistics.median(samples)

    return dict(zip(GRAMMAR_METRICS, (
        (per_call(grammar.parse_state, literals), "s/call"),
        (per_call(grammar.parse_walk_config, [walk_text]), "s/call"),
    )))


def import_seconds(root) -> float:
    """Median wall time of a fresh process that imports ``coinwalk.cli``."""
    argv = [sys.executable, "-c", "import coinwalk.cli"]
    return statistics.median(workloads.timed_process(argv, root) for _ in range(IMPORT_REPEATS))


def cli_latencies(records) -> dict:
    """Median latency of each CLI command over the cli workload's ops."""
    return {
        f"cli.{name}.p50_s": (statistics.median(r.latency for r in records if r.op.layer == f"cli.{name}"), "s")
        for name in workloads.CLI_COMMANDS
    }


def roadmap_probes(seed: int) -> dict:
    """The 1-d n=2 op time and the per-node loop's share of a 2-d n=4 op."""
    p = cw.U2Params(np.pi / 4, np.pi / 2, np.pi / 2)
    spec1, state1 = cw.line_walk(p), cw.LocalState(0, [1, 0])
    times = []
    for _ in range(PROBE_1D_REPEATS):
        t0 = perf_counter()
        asymptotics.rho_asymptotic(spec1, state1)
        times.append(perf_counter() - t0)

    rng = np.random.default_rng(seed)
    spec2 = cw.WalkSpec(2, 4, workloads.E2, workloads.haar_unitary(rng, 4))
    state2 = cw.LocalState((0, 0), workloads.unit_vector(rng, 4))
    grid = cw.QuadratureGrid(PROBE_2D_GRID, 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        for _ in range(PROBE_2D_REPEATS):
            tracer.call("asymptotics.rho_asymptotic", asymptotics.rho_asymptotic, (spec2, state2, grid))
    loop = [op.stats["characteristic.characteristic_stack"][1] for op in tracer.ops]
    total = [op.stats["asymptotics.rho_asymptotic"][1] for op in tracer.ops]
    eig = [op.stats["linalg.eig_unitary"][2] for op in tracer.ops]
    return {
        "probe.op_1d_n2_s": (statistics.median(times), "s"),
        "probe.loop_share_2d_n4": (statistics.median(a / b for a, b in zip(loop, total)), "frac"),
        "probe.eig_share_of_loop": (statistics.median(a / b for a, b in zip(eig, loop)), "frac"),
    }


def probe_notes(m: dict) -> list[str]:
    op_s = m["probe.op_1d_n2_s"][0]
    loop = m["probe.loop_share_2d_n4"][0]
    eig = m["probe.eig_share_of_loop"][0]
    return [
        f"probe 1-d n=2 op at N=4096: {op_s * 1e3:.2f} ms (ROADMAP: {ROADMAP_1D_OP_S * 1e3:.1f} ms, "
        f"ratio {op_s / ROADMAP_1D_OP_S:.2f})",
        f"probe 2-d n=4 op at {PROBE_2D_GRID}^2: per-node loop is {loop:.1%} of the op "
        f"(ROADMAP: {ROADMAP_LOOP_SHARE:.1%} at 64^2)",
        f"probe 2-d n=4 op at {PROBE_2D_GRID}^2: eig_unitary self time is {eig:.1%} of the loop; "
        f"the other {1 - eig:.1%} is build_uk, the per-node Kronecker products and Python overhead, "
        "so a batched eigensolver alone removes at most that share",
    ]


def metrics(args, wl, records, tracer, ctx) -> dict:
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    ops = tracer.ops
    out = {"fail_frac": (sum(not r.ok for r in records) / len(records), "frac")}
    rate_t = len(traced) / sum(r.latency for r in traced)
    rate_u = len(untraced) / sum(r.latency for r in untraced)
    out["trace.overhead_frac"] = (1 - rate_t / rate_u, "frac")
    layer_self = sum(s[2] for op in ops for s in op.stats.values())
    out["trace.accounted_frac"] = (layer_self / sum(r.latency for r in traced), "frac")
    out.update(layer_table(ops))
    errs = [r.err for r in records if r.ok and r.op.layer == "asymptotics.rho_asymptotic"]
    out["asymptotics.max_err"] = (max(errs, default=0.0), "abs")

    if isinstance(wl, workloads.Cli):
        inputs = wl.inputs
        literals = [inputs[k][1] for k in ("rho", "closed", "simulate")] + [inputs["rho_2d_state"]]
        out.update(grammar_times(literals, inputs["walk_text"]))
        out.update(cli_latencies(records))
    else:
        out.update({name: (0.0, "s/call") for name in GRAMMAR_METRICS})
        out.update({f"cli.{name}.p50_s": (0.0, "s") for name in workloads.CLI_COMMANDS})
    out["cli.import_s"] = (import_seconds(ctx["root"]), "s")
    out.update(roadmap_probes(args.seed))
    for note in probe_notes(out):
        print("# " + note + " [raw times]")
    for layer in TIMED:
        calls, total, self_s = (_sum(ops, layer, i) for i in range(3))
        if calls:
            print(f"# layer {layer:<38} calls/op {calls / len(ops):>10.1f}  "
                  f"self s/op {self_s / len(ops):.3e}  total s/op {total / len(ops):.3e} [raw]")
    return out
