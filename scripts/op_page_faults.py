#!/usr/bin/env python3
"""Minor page faults per line-sweep op, and per check of its result.

Runs the ops of ``perfbench``'s line-sweep workload (seed 7) in a loop, the
way ``perfbench/run.py`` does, timed op then untimed check, and reads
``resource.getrusage(RUSAGE_SELF).ru_minflt`` around each. A fault is a page
the process touches for the first time since the OS handed it over, so the
count shows how often an op's temporaries come back from the OS instead of
being reused from the heap. Run it from the root of a checkout::

    python3 scripts/op_page_faults.py

It imports ``coinwalk`` from this checkout's ``src`` and the workload from
its ``perfbench``. The first of 41 cycles warms up and is not counted.
"""

import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[pin] = "1"  # as perfbench pins them, before numpy is imported
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

SEED, CYCLES = 7, 40


def faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> None:
    source = workloads.LineSweep(np.random.default_rng(SEED), {})
    op_faults, check_faults = [], []
    for cycle in range(CYCLES + 1):
        for op in source.cycle():
            before = faults()
            out = op.fn(*op.args)
            between = faults()
            op.check(out)
            if cycle:
                op_faults.append(between - before)
                check_faults.append(faults() - between)
    print(
        f"line-sweep seed={SEED} ops={len(op_faults)}: minor faults per op"
        f" mean {np.mean(op_faults):.1f} median {np.median(op_faults):.0f};"
        f" per check mean {np.mean(check_faults):.1f}"
    )


if __name__ == "__main__":
    main()
