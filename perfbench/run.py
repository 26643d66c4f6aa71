"""coinwalk benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

The run is a closed loop with one client: the next op starts when the last
one has returned and been checked. BLAS pools are pinned to one thread before
numpy is imported. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced cycles and prints the per-layer metrics. Most
end-to-end times are scaled to a reference machine speed (see ``probe_for``
and ``calibration.py``). Lines starting with ``#`` describe the run
(environment, speed probes, failing ops, metrics with units, and on the
``# measured`` line every metric before scaling); the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark's own modules that import coinwalk (``workloads``, ``tracing``,
``layers``) are imported inside functions, after ``import_package`` has put
this checkout's ``src`` first on the path.
"""

from __future__ import annotations

import os

PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "COINWALK_THREADS": "1",
}
os.environ.update(PINS)  # before numpy is imported, here and in every child

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from calibration import Speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("line-sweep", "lattice", "oracle", "cli")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="coinwalk benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import coinwalk from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "coinwalk" / "__init__.py").is_file():
        fail(f"no coinwalk package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import coinwalk

    if not Path(coinwalk.__file__).resolve().is_relative_to(src):
        fail(f"coinwalk imported from {coinwalk.__file__}, not from {src}")
    return coinwalk


# ------------------------------------------------------------------- set-up


def setup(workload: str, seed: int, work: Path):
    """Import, input generation and one warm-up op; returns (workload, first cycle)."""
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[workload](np.random.default_rng(seed), {"root": ROOT, "work": work})
    first = wl.cycle()
    op = first[0]
    op.fn(*op.args)
    return wl, first


def setup_seconds(args, speed) -> float:
    """Median wall time of fresh processes that only set the workload up."""
    from workloads import timed_process

    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        speed.sample_process()
        times.append(timed_process(argv, ROOT))
    return statistics.median(times)


# ------------------------------------------------------------------ measure


def measure(wl, first, seconds: float, tracer, speed) -> list:
    """Whole cycles until ``seconds`` have passed; with a tracer, odd cycles are traced.

    The calibration kernel runs between ops every ``calibration.INTERVAL_S``.
    """
    from workloads import run_op

    def run_cycle(ops, cycle, op_tracer):
        for i, op in enumerate(ops):
            speed.maybe_sample()
            records.append(run_op(op, cycle, i, op_tracer))

    records = []
    ops, cycle = first, 0
    start = perf_counter()
    while True:
        if tracer is not None and cycle % 2 == 1:
            with tracer.installed():
                run_cycle(ops, cycle, tracer)
        else:
            run_cycle(ops, cycle, None)
        cycle += 1
        if perf_counter() - start >= seconds and (tracer is None or cycle % 2 == 0):
            return records
        ops = wl.cycle()


# ------------------------------------------------------------------ metrics


def end_to_end(wl, records: list, setup_s: float) -> dict:
    import numpy as np

    lat = np.array([r.latency for r in records])
    p50, p90 = np.percentile(lat, [50, 90])
    if hasattr(wl, "max_rss_kb"):  # the CLI's work happens in its own processes
        rss_kb = wl.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / lat.sum(), "1/s"),
        "op_p50_s": (float(p50), "s"),
        "op_p90_s": (float(p90), "s"),
        "ok_frac": (sum(r.ok for r in records) / len(records), "frac"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


# ------------------------------------------------------------------- report


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "pins": PINS,
    }


def probe_for(args, name: str) -> str | None:
    """The speed probe whose scale an end-to-end time metric is multiplied by, if any.

    ``setup_s`` times fresh processes started right after each process probe;
    the op metrics, the cli workload's too, follow the kernel probe, which
    runs between ops. Per-layer metrics are reported as measured.
    """
    if args.trace or name in ("ok_frac", "peak_rss_mb"):
        return None
    return "process" if name == "setup_s" else "kernel"


def at_reference_speed(value: float, unit: str, scale: float) -> float:
    return value / scale if unit == "1/s" else value * scale


def report(args, records: list, raw: dict, speed) -> None:
    probes = {name: probe_for(args, name) for name in raw}
    metrics = {
        name: (at_reference_speed(v, unit, speed.scale(probes[name])) if probes[name] else v, unit)
        for name, (v, unit) in raw.items()
    }
    failed = [r for r in records if not r.ok]
    unexpected = [r for r in failed if not r.op.known_defect]
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# run workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={len(records)} cycles={records[-1].cycle + 1}")
    print("# speed " + json.dumps(speed.summary()))
    print(f"# fail_frac {len(failed) / len(records):.4f} ({len(failed)} of {len(records)} ops)")
    groups: dict = {}
    for r in failed:
        groups.setdefault((r.op.label, r.op.known_defect, r.why[:200]), []).append(f"{r.cycle}.{r.index}")
    for (label, known, why), where in groups.items():
        tag = "known defect (flat band)" if known else "UNEXPECTED"
        print(f"# fail [{label}] x{len(where)} at cycle.op {','.join(where)} {tag}: {why}")
    for name, (value, unit) in metrics.items():
        how = f"measured {raw[name][0]:.6g} x {probes[name]} scale" if probes[name] else "as measured"
        print(f"# metric {name} = {value:.6g} {unit} ({how})")
    print("# measured " + json.dumps({name: v for name, (v, _) in raw.items()}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.setup_only:
            setup(args.workload, args.seed, work)
            return 0
        speed = Speed()
        setup_s = setup_seconds(args, speed) if args.trace == 0 else None
        wl, first = setup(args.workload, args.seed, work)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        records = measure(wl, first, args.seconds, tracer, speed)
        if args.trace:
            import layers

            metrics = layers.metrics(args, wl, records, tracer, {"root": ROOT, "work": work})
        else:
            metrics = end_to_end(wl, records, setup_s)
        report(args, records, metrics, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
