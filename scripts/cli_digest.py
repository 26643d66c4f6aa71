#!/usr/bin/env python3
"""SHA-256 digests of the output of a fixed list of CLI commands.

Runs each command of ``COMMANDS`` as ``python -m coinwalk.cli ...`` in a
fresh interpreter that imports ``coinwalk`` from this checkout's ``src``, in
a temporary directory that holds the walk files the commands read, and
prints one line per command::

    <sha256 of stdout>  <exit code>  <command>

Run it from any directory::

    python3 scripts/cli_digest.py

Two checkouts whose listings are equal print the same bytes for every
command, so a change that claims to keep the CLI's output is checked by
running the same copy of this script in both and comparing the listings.
The script exits 1 if some command exits with another code than the one it
is listed with (0, or 1 for the negative control of ``verify``), else 0.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

WALK_FILES = {
    "grover.walk": (
        "dim 2\n"
        "coin -0.5, 0.5, 0.5, 0.5\ncoin 0.5, -0.5, 0.5, 0.5\n"
        "coin 0.5, 0.5, -0.5, 0.5\ncoin 0.5, 0.5, 0.5, -0.5\n"
        "shift 1 0\nshift -1 0\nshift 0 1\nshift 0 -1\n"
    ),
    # two coin states share the shift +1: a 2-d eigenspace at every k
    "repro.walk": "dim 1\ncoin 1, 0, 0\ncoin 0, 1, 0\ncoin 0, 0, 1\nshift 1\nshift 1\nshift -1\n",
    # the triangular lattice: the simulator steps on a (t + 1)^2 box in a basis of
    # the lattice its shift differences span, not on the plain (2t + 1)^2 box
    "triangular.walk": (
        "dim 2\n"
        "coin -0.3333333333333333, 0.6666666666666666, 0.6666666666666666\n"
        "coin 0.6666666666666666, -0.3333333333333333, 0.6666666666666666\n"
        "coin 0.6666666666666666, 0.6666666666666666, -0.3333333333333333\n"
        "shift 1 0\nshift 0 1\nshift -1 -1\n"
    ),
    # a 2-state walk in 2-d: its shift differences span a line, so the simulator
    # steps on one axis of t + 1 sites
    "diagonal.walk": (
        "dim 2\n"
        "coin 0.7071067811865476, 0.7071067811865476\n"
        "coin 0.7071067811865476, -0.7071067811865476\n"
        "shift 1 0\nshift 0 1\n"
    ),
}

LINE = ["--theta", "pi/4", "--alpha", "pi/2", "--beta", "pi/2"]
STATES = [
    "local v=0 chi=(0.6,0.8i)",
    "dist {-1:0.6, 2:0.8} chi=(1,0)",
    "general {0:(0.6,0), 1:(0,0.8i)}",
]
GROVER_GENERAL = "general {0;0:(0.6,0,0,0), 1;0:(0,0.48,0,0), 0;-1:(0,0,0.64i,0)}"
TRIANGULAR_DIST = "dist {0;0:0.6, 1;0:0.8i} chi=(0.6,0,0.8i)"
DIAGONAL_GENERAL = "general {0;0:(0.6,0), 1;0:(0,0.8i)}"

#: (expected exit code, argv)
COMMANDS = [
    *((0, ["rho", *LINE, "--state", s, "--format", f]) for s in STATES for f in ("json", "csv")),
    (0, ["rho", *LINE, "--state", STATES[0], "--closed-form"]),
    (0, ["rho", *LINE, "--state", STATES[0], "--grid-n", "64"]),
    (0, ["rho", "--walk-file", "grover.walk", "--state", "local v=0,0 chi=(0.5,0.5,0.5,0.5i)"]),
    (0, ["rho", "--walk-file", "grover.walk", "--state", GROVER_GENERAL, "--grid-n", "32"]),
    (0, ["rho", "--walk-file", "repro.walk", "--state", "local v=0 chi=(0.6,0.8i,0)"]),
    (0, ["fig", "cpe-compare"]),
    (0, ["fig", "cpe-3d"]),
    (0, ["fig", "cpe-entangled"]),
    (0, ["simulate", *LINE, "--state", STATES[0], "--t-max", "200", "--stride", "7"]),
    (0, ["simulate", "--walk-file", "grover.walk", "--state", GROVER_GENERAL, "--t-max", "40"]),
    # both take two sites on two cosets of the lattice the shift differences span
    (0, ["simulate", "--walk-file", "triangular.walk", "--state", TRIANGULAR_DIST, "--t-max", "200"]),
    (0, ["simulate", "--walk-file", "diagonal.walk", "--state", DIAGONAL_GENERAL, "--t-max", "200"]),
    (0, ["verify"]),
    (0, ["verify", "--seed", "7", "--draws", "50", "--t-max", "500"]),
    (1, ["verify", "--draws", "5", "--t-max", "200", "--inject-f-sign-error"]),
]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in WALK_FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for expected, argv in COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "coinwalk.cli", *argv],
                cwd=tmp, env=env, capture_output=True, check=False,
            )
            digest = hashlib.sha256(proc.stdout).hexdigest()
            print(f"{digest}  {proc.returncode}  coinwalk {subprocess.list2cmdline(argv)}")
            if proc.returncode != expected:
                failed += 1
                sys.stderr.write(proc.stderr.decode(errors="replace"))
    if failed:
        print(f"{failed} commands exited with an unexpected code", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
