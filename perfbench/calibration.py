"""Machine-speed probes that put every run's times on one reference speed.

The machines this benchmark runs on are shared: over tens of seconds the
same ops run up to 1.5x slower or faster as neighbours come and go, and
much of that drift is common to all code in the process. Two fixed probes
measure it while the run goes on, and an end-to-end time metric is
multiplied by a probe's reference time over the run's median probe time
(``run.probe_for`` says which probe, if any):

- ``kernel``, numpy calls on tiny arrays (4x4 complex matmuls and
  ``np.roll`` on a light cone sized array), what in-process ops spend most
  of their time on. It runs between ops every ``INTERVAL_S`` and scales the
  op metrics. In the recorded runs it also followed the CLI's processes
  more closely than the process probe did.
- ``process``, a fresh interpreter that imports numpy and scipy.linalg, the
  start-up that makes up most of the set-up. It runs before each set-up
  process and scales ``setup_s``, which the kernel, sampled mostly while
  ops run, does not follow.

Neither probe runs coinwalk code, so no change to the package moves them.
Every run also prints its metrics as measured, and ``baseline.json`` holds
the quartile spreads of both, so whether the scaling narrows them can be
checked on the recorded runs.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

#: kernel time at the reference speed; its median was 4-7 ms on a shared
#: 2.1 GHz x86-64 VM core with one BLAS thread
CAL_REF_S = 0.005
INTERVAL_S = 0.25
#: process probe time at the reference speed; 0.28-0.42 s on that VM
PROCESS_REF_S = 0.35
PROCESS_ARGV = [sys.executable, "-c", "import numpy, scipy.linalg"]

_A = np.exp(1j * np.arange(16).reshape(4, 4))
_R = np.exp(1j * np.arange(6000).reshape(3000, 2))


def kernel() -> float:
    """Wall time of one pass of the fixed calibration work."""
    t0 = perf_counter()
    for _ in range(1000):
        _A @ _A
    r = _R
    for _ in range(200):
        r = np.roll(r, 1, axis=0)
    return perf_counter() - t0


def process() -> float:
    """Wall time of one fresh interpreter that imports numpy and scipy.linalg."""
    t0 = perf_counter()
    subprocess.run(PROCESS_ARGV, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


class Speed:
    """Probe samples of one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.process_samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(kernel())
        self._last = perf_counter()

    def sample_process(self) -> None:
        self.process_samples.append(process())

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, probe: str) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        if probe == "process":
            return PROCESS_REF_S / statistics.median(self.process_samples)
        return CAL_REF_S / statistics.median(self.samples)

    def summary(self) -> dict:
        out = {"kernel_scale": self.scale("kernel"), "kernel_median_s": statistics.median(self.samples),
               "kernel_samples": len(self.samples)}
        if self.process_samples:
            out.update(process_scale=self.scale("process"),
                       process_median_s=statistics.median(self.process_samples),
                       process_samples=len(self.process_samples))
        return out
