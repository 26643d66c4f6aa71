"""Steadiness mode: run each workload under several seeds and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--out FILE]

Each run is one ``run.py --trace 0`` process with its own seed and
``run_seconds`` from ``BENCHMARK.json``. For every metric the summary gives
the median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the spread ``(q3 - q1) / median``, both of the reported value and
of the value as measured before speed scaling, so the effect of the scaling
can be read off. The spread of each reported value is compared with a third
of the metric's bound in ``BENCHMARK.json``; these are the data the bounds
are set from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Only the median of setup_s is bounded between two sets of runs, not its
# spread within one: it times fresh processes, whose start-up varies with the
# machine's load and file cache. Its spread is printed but not gated here.
UNGATED = {"setup_s"}


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict, dict]:
    """The result line and the ``# env``, ``# measured`` and ``# speed`` records of one run."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()

    def record(tag: str) -> dict:
        return next(json.loads(line[len(tag):]) for line in lines if line.startswith(tag))

    return json.loads(lines[-1]), record("# env "), record("# measured "), record("# speed ")


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to form quartiles")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, args.first_seed + i, bench["run_seconds"])
                for i in range(args.runs)]
        results = [r for r, *_ in runs]
        names = results[0]["metrics"].keys()
        summary[workload] = {
            "env": runs[0][1],
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "correct": [r["correct"] for r in results],
            "metrics": {n: summarise([r["metrics"][n]["value"] for r in results]) for n in names},
            "measured": {n: summarise([m[n] for _, _, m, _ in runs]) for n in names},
            "speed": {k: summarise([sp[k] for *_, sp in runs]) for k in ("kernel_scale", "process_scale")},
        }
        for name, s in summary[workload]["metrics"].items():
            bound = bounds[name]
            ok = s["spread"] < bound / 3
            verdict = f"  bound/3 {bound / 3:.4f} {'ok' if ok else 'TOO WIDE'}"
            if name in UNGATED:
                verdict += " (not gated)"
            else:
                steady &= ok
            measured = summary[workload]["measured"][name]["spread"]
            print(f"{workload:<11} {name:<44} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f} (measured {measured:.4f}){verdict}",
                  flush=True)
        if not all(summary[workload]["correct"]):
            steady = False
            print(f"{workload}: a run reported correct=false", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
