"""The benchmark's four workloads: seeded inputs, the timed call and its check.

One op is one ``rho_asymptotic`` call, one ``cesaro_rho`` call or one CLI
process. Each workload hands out its ops one *cycle* at a time. The sizes in a
cycle (grids, horizons, packet widths) are fixed, and the seed draws the
coins, angles and states, so every seed carries the same work per cycle and a
run that measures whole cycles is comparable across seeds.

Every op carries an independent check: the U(2) closed forms, the numpy
dephasing reference in ``reference.py``, or, for the CLI, the in-process API.
Ops marked ``known_defect`` are the flat-band walks that today's ``Tr_1``
contraction of ``C`` gets wrong; they stay in the mix and are counted when
they fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from reference import dephased_rho

import coinwalk as cw
from coinwalk import asymptotics, simulate

CLOSED_TOL = 1e-9  # quadrature at N=4096 against the U(2) closed forms
SAME_GRID_TOL = 1e-9  # pipeline against the dephasing reference on its own grid
# Cesaro averages converge like 1/t. Over 120 line draws err*t stayed below
# 0.075 and over 24 Haar n=4 planar draws below 0.24; the budgets leave a
# margin of about 7x and 8x.
ORACLE_1D_BUDGET = 0.5
ORACLE_2D_BUDGET = 2.0
ORACLE_2D_REF_GRID = 64


class Mismatch(Exception):
    """An output disagrees with its reference in a way that has no magnitude."""


@dataclass
class Op:
    """One call into the program, with the check of its result."""

    label: str
    layer: str  # the layer the benchmark calls: its root span in traced runs
    fn: Callable[..., Any]
    args: tuple
    check: Callable[[Any], float]  # deviation from the reference
    tol: float
    known_defect: bool = False


@dataclass
class Record:
    op: Op
    cycle: int
    index: int
    latency: float
    traced: bool
    ok: bool
    err: float | None
    why: str


def run_op(op: Op, cycle: int, index: int, tracer=None) -> Record:
    """Time one op (under ``tracer`` if given), then check its result untimed."""
    traced = tracer is not None
    t0 = perf_counter()
    try:
        out = tracer.call(op.layer, op.fn, op.args) if traced else op.fn(*op.args)
    except Exception as exc:  # any exception from the program is a failed op
        return Record(op, cycle, index, perf_counter() - t0, traced, False, None,
                      f"{type(exc).__name__}: {exc}")
    latency = perf_counter() - t0
    try:
        err = op.check(out)
    except Mismatch as exc:
        return Record(op, cycle, index, latency, traced, False, None, f"mismatch: {exc}")
    ok = err <= op.tol
    return Record(op, cycle, index, latency, traced, ok, err,
                  "" if ok else f"deviation {err:.3e} exceeds {op.tol:.1e}")


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def timed_process(argv: list[str], root: Path) -> float:
    """Wall time of a child process run from ``root`` with the package on its path."""
    t0 = perf_counter()
    subprocess.run(argv, check=True, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def u2_params(rng: np.random.Generator) -> cw.U2Params:
    return cw.U2Params(
        theta=rng.uniform(0.05, np.pi / 2 - 0.05),
        alpha=rng.uniform(-np.pi, np.pi),
        beta=rng.uniform(-np.pi, np.pi),
    )


def bloch(rng: np.random.Generator) -> np.ndarray:
    return cw.bloch_coin(cw.BlochCoin(xi=rng.uniform(0, np.pi), eta=rng.uniform(-np.pi, np.pi)))


def max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def site_arrays(state) -> tuple[np.ndarray, np.ndarray]:
    """(positions, coeffs) of a state, read from its fields without coinwalk code."""
    if isinstance(state, cw.LocalState):
        return np.array([state.position]), np.array([state.chi])
    if isinstance(state, cw.DistributedState):
        items = list(state.amplitudes.items())
        return np.array([r for r, _ in items]), np.array([a * state.chi for _, a in items])
    items = list(state.amplitudes.items())
    return np.array([r for r, _ in items]), np.array([c for _, c in items])


def dephasing_check(spec, state, points_per_axis: int, matrix_of=lambda r: r.rho.matrix):
    """Check against the dephasing reference; ``matrix_of`` reads the op's result."""

    def check(result) -> float:
        pos, coeffs = site_arrays(state)
        ref = dephased_rho(spec.coin, spec.shifts, pos, coeffs, points_per_axis)
        return max_dev(matrix_of(result), ref)

    return check


def rho_op(label, spec, state, grid, check, tol=SAME_GRID_TOL, known_defect=False) -> Op:
    return Op(
        label, "asymptotics.rho_asymptotic", asymptotics.rho_asymptotic,
        (spec, state, grid), check, tol, known_defect,
    )


# ---------------------------------------------------------------- line-sweep

LINE_GRID = 4096  # the package default for d=1, passed as None
PACKET_WIDTHS = (16, 96, 112, 128)


def gaussian_packet(rng: np.random.Generator, width: int) -> cw.DistributedState:
    x = np.arange(width)
    sigma = width / 6
    amps = np.exp(-(((x - width / 2) / sigma) ** 2) / 2 + 1j * rng.uniform(-np.pi, np.pi) * x)
    amps /= np.linalg.norm(amps)
    start = int(rng.integers(-64, 1))
    return cw.DistributedState({int(start + i): complex(a) for i, a in enumerate(amps)}, bloch(rng))


class LineSweep:
    """U(2) line walks at the default grid: the paper's figure sweep."""

    def __init__(self, rng: np.random.Generator, ctx: dict):
        self.rng = rng

    def cycle(self) -> list[Op]:
        rng = self.rng
        ops = []
        for _ in range(7):
            p, chi = u2_params(rng), bloch(rng)
            state = cw.LocalState(int(rng.integers(-8, 9)), chi)
            ref = cw.rho_local_closed(p, chi).rho.matrix
            ops.append(rho_op(
                f"local theta={p.theta:.4f}", cw.line_walk(p), state, None,
                lambda r, ref=ref: max_dev(r.rho.matrix, ref), CLOSED_TOL,
            ))
        for _ in range(2):
            p = u2_params(rng)
            state = cw.DistributedState({-1: 2**-0.5, 1: 2**-0.5}, [1, 0])
            ref = cw.rho_distributed_example_closed(p).rho.matrix
            ops.append(rho_op(
                f"distributed +-1 theta={p.theta:.4f}", cw.line_walk(p), state, None,
                lambda r, ref=ref: max_dev(r.rho.matrix, ref), CLOSED_TOL,
            ))
        for _ in range(2):
            p = u2_params(rng)
            state = cw.GeneralState({-1: np.array([1, 0]) / 2**0.5, 1: np.array([0, 1]) / 2**0.5})
            ref = np.array(cw.eigenvalues_entangled_example(p.theta))
            ops.append(rho_op(
                f"entangled theta={p.theta:.4f}", cw.line_walk(p), state, None,
                lambda r, ref=ref: max_dev(r.eigenvalues, ref), CLOSED_TOL,
            ))
        for width in PACKET_WIDTHS:
            p = u2_params(rng)
            spec, state = cw.line_walk(p), gaussian_packet(rng, width)
            ops.append(rho_op(
                f"packet width={width} theta={p.theta:.4f}", spec, state, None,
                dephasing_check(spec, state, LINE_GRID), SAME_GRID_TOL,
            ))
        return ops


# ------------------------------------------------------------------- lattice

E2 = [[1, 0], [-1, 0], [0, 1], [0, -1]]
E3 = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
TETRA = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
TRI = [[1, 0], [0, 1], [-1, -1]]
HEX = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]
LAZY = [[1], [0], [-1]]

# (tag, shifts, points per axis, ops per cycle). Sorted by cost, a cycle is
# 9 short ops (these 5 and the 4 flat-band ops), 11 at 20^2 that hold the
# median, 5 at 24^2 that hold the 90th percentile, and one at 96^2 that sets
# peak memory; about 100 ops fit in a 20 s run.
LATTICE_HAAR = (
    ("n=3 d=1 lazy", LAZY, 256, 1),
    ("n=3 d=2 tri", TRI, 16, 1),
    ("n=4 d=3 tetra", TETRA, 6, 1),
    ("n=6 d=2 hex", HEX, 12, 1),
    ("n=6 d=3", E3, 5, 1),
)
LATTICE_TAIL = (("n=4 d=2", E2, 20, 11), ("n=4 d=2", E2, 24, 5), ("n=4 d=2", E2, 96, 1))
GROVER_COIN = 0.5 * np.ones((4, 4)) - np.eye(4)
REPRO_CHI = np.array([1, 1, 0]) / np.sqrt(2)


class Lattice:
    """Haar coins with n>2 or d>1, plus flat-band walks at a fixed share."""

    def __init__(self, rng: np.random.Generator, ctx: dict):
        self.rng = rng

    def _haar_op(self, tag, shifts, npts) -> Op:
        rng = self.rng
        n, d = len(shifts), len(shifts[0])
        spec = cw.WalkSpec(d, n, shifts, haar_unitary(rng, n))
        if tag == "n=4 d=2" and npts == 20 and rng.random() < 0.5:
            origin, step = (0,) * d, (1,) + (0,) * (d - 1)
            a, b = unit_vector(rng, n), unit_vector(rng, n)
            state = cw.GeneralState({origin: a / np.sqrt(2), step: b / np.sqrt(2)})
        else:
            state = cw.LocalState((0,) * d, unit_vector(rng, n))
        grid = cw.QuadratureGrid(npts, d)
        return rho_op(f"{tag} grid={npts}^{d}", spec, state, grid, dephasing_check(spec, state, npts))

    def cycle(self) -> list[Op]:
        rng = self.rng
        ops = []
        for tag, shifts, npts, count in LATTICE_HAAR:
            ops += [self._haar_op(tag, shifts, npts) for _ in range(count)]
        # flat bands: the rank-2 repro (exact answer P0 for chi in span(e0, e1))
        # and the 2-d Grover walk, whose +-1 bands are flat
        repro = cw.WalkSpec(1, 3, [[1], [1], [-1]], np.eye(3))
        chi2 = np.concatenate([unit_vector(rng, 2), [0]])
        for chi in (REPRO_CHI, chi2):
            state = cw.LocalState(0, chi)
            p0 = np.outer(chi, chi.conj())
            ops.append(rho_op(
                "flat repro n=3 d=1 grid=256^1", repro, state, cw.QuadratureGrid(256, 1),
                lambda r, p0=p0: max_dev(r.rho.matrix, p0), SAME_GRID_TOL, known_defect=True,
            ))
        grover = cw.WalkSpec(2, 4, E2, GROVER_COIN)
        for chi in (np.eye(4)[0], unit_vector(rng, 4)):
            state = cw.LocalState((0, 0), chi)
            ops.append(rho_op(
                "flat grover n=4 d=2 grid=16^2", grover, state, cw.QuadratureGrid(16, 2),
                dephasing_check(grover, state, 16), SAME_GRID_TOL, known_defect=True,
            ))
        for tag, shifts, npts, count in LATTICE_TAIL:
            ops += [self._haar_op(tag, shifts, npts) for _ in range(count)]
        return ops


# -------------------------------------------------------------------- oracle

# the median op falls inside the t=1250 block and the 90th percentile inside
# the 2-d block, so neither sits on a boundary between two costs
ORACLE_1D_HORIZONS = (1000,) * 3 + (1250,) * 6 + (1500,) * 3
ORACLE_2D_HORIZONS = (40,) * 3


class Oracle:
    """Cesaro-averaged simulator runs: dense 1-d stepper and sparse 2-d stepper."""

    def __init__(self, rng: np.random.Generator, ctx: dict):
        self.rng = rng

    def cycle(self) -> list[Op]:
        rng = self.rng
        ops = []
        for t in ORACLE_1D_HORIZONS:
            p, chi = u2_params(rng), bloch(rng)
            ref = cw.rho_local_closed(p, chi).rho.matrix
            ops.append(Op(
                f"dense 1-d t={t} theta={p.theta:.4f}", "simulate.cesaro_rho", simulate.cesaro_rho,
                (cw.line_walk(p), cw.LocalState(0, chi), t),
                lambda r, ref=ref: max_dev(r.matrix, ref), ORACLE_1D_BUDGET / t,
            ))
        for t in ORACLE_2D_HORIZONS:
            spec = cw.WalkSpec(2, 4, E2, haar_unitary(rng, 4))
            state = cw.LocalState((0, 0), unit_vector(rng, 4))
            ops.append(Op(
                f"sparse 2-d n=4 t={t}", "simulate.cesaro_rho", simulate.cesaro_rho, (spec, state, t),
                dephasing_check(spec, state, ORACLE_2D_REF_GRID, matrix_of=lambda r: r.matrix),
                ORACLE_2D_BUDGET / t,
            ))
        return ops


# ----------------------------------------------------------------------- cli

CLI_TOL = 0.0  # the CLI and the in-process API run the same code on the same floats
CLI_2D_GRID = 16
CLI_T_MAX = 2000
CLI_COMMANDS = ("rho", "rho_2d", "closed", "verify", "fig", "simulate")
# rho_2d has the median cost of the six; three of them per cycle put the
# median op inside one command's block instead of between two commands
CLI_CYCLE = ("rho", "rho_2d", "closed", "rho_2d", "verify", "fig", "rho_2d", "simulate")


def complex_literal(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def vector_literal(v) -> str:
    return "(" + ",".join(complex_literal(complex(x)) for x in v) + ")"


def cli_inputs(rng: np.random.Generator) -> dict:
    """Seeded arguments of the CLI commands: angles, state literals, a 2-d walk file."""
    coin = haar_unitary(rng, 4)
    walk_text = "dim 2\n" + "".join(
        "coin " + ", ".join(complex_literal(z) for z in row) + "\n" for row in coin
    ) + "".join(f"shift {x} {y}\n" for x, y in E2)
    inputs = {"walk_text": walk_text, "verify_seed": int(rng.integers(0, 2**31))}
    for name in ("rho", "closed", "simulate"):
        p = u2_params(rng)
        inputs[name] = (p, f"local v={int(rng.integers(-8, 9))} chi={vector_literal(bloch(rng))}")
    inputs["rho_2d_state"] = f"local v=0,0 chi={vector_literal(unit_vector(rng, 4))}"
    return inputs


def angle_args(p: cw.U2Params) -> list[str]:
    return ["--theta", repr(p.theta), "--alpha", repr(p.alpha), "--beta", repr(p.beta)]


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int


class Cli:
    """Sequential ``python -m coinwalk.cli`` processes: start-up, grammar and CLI layers."""

    def __init__(self, rng: np.random.Generator, ctx: dict):
        self.root: Path = ctx["root"]
        self.work: Path = ctx["work"]
        self.env = child_env(self.root)
        self.inputs = cli_inputs(rng)
        self.walk_file = self.work / "walk2d.txt"
        self.walk_file.write_text(self.inputs["walk_text"], encoding="utf-8")
        self.first_stdout: dict[str, bytes] = {}
        self.first_dev: dict[str, float] = {}
        self.max_rss_kb = 0
        inp = self.inputs
        commands = {
            "rho": ["rho", *angle_args(inp["rho"][0]), "--state", inp["rho"][1]],
            "rho_2d": [
                "rho", "--walk-file", str(self.walk_file), "--state", inp["rho_2d_state"],
                "--grid-n", str(CLI_2D_GRID),
            ],
            "closed": ["rho", "--closed-form", *angle_args(inp["closed"][0]), "--state", inp["closed"][1]],
            "verify": ["verify", "--seed", str(inp["verify_seed"])],
            "fig": ["fig", "cpe-3d"],
            "simulate": [
                "simulate", *angle_args(inp["simulate"][0]), "--state", inp["simulate"][1],
                "--t-max", str(CLI_T_MAX),
            ],
        }
        checks = {
            "rho": self._check_rho, "rho_2d": self._check_rho_2d, "closed": self._check_closed,
            "verify": self._check_verify, "fig": self._check_fig, "simulate": self._check_simulate,
        }
        self.ops = [
            Op(f"cli {name}", f"cli.{name}", self.run, (commands[name],),
               self._checked(name, checks[name]), CLI_TOL)
            for name in CLI_CYCLE
        ]

    def cycle(self) -> list[Op]:
        return self.ops

    def run(self, argv: list[str]) -> CliResult:
        """Run one CLI process and reap it with its resource usage."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "coinwalk.cli", *argv],
                stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root,
            )
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, out, err_path.read_bytes(), usage.ru_maxrss)

    def _checked(self, name: str, check: Callable[[bytes], float]) -> Callable[[CliResult], float]:
        def checked(res: CliResult) -> float:
            if res.code != 0:
                raise Mismatch(f"exit {res.code}: {res.stderr.decode(errors='replace').strip()[-300:]}")
            if name not in self.first_stdout:
                self.first_stdout[name] = res.stdout
                self.first_dev[name] = check(res.stdout)
            elif res.stdout != self.first_stdout[name]:
                raise Mismatch("output differs from the first run of the same command")
            # a repeat with the same bytes has the values checked the first time
            return self.first_dev[name]

        return checked

    @staticmethod
    def _rho_dev(stdout: bytes, result) -> float:
        doc = json.loads(stdout)
        m = result.rho.matrix
        return max(
            max_dev(doc["rho_re"], m.real), max_dev(doc["rho_im"], m.imag),
            max_dev(doc["eigenvalues"], result.eigenvalues), abs(doc["cpe"] - result.cpe),
        )

    def _check_rho(self, stdout: bytes) -> float:
        p, lit = self.inputs["rho"]
        ref = asymptotics.rho_asymptotic(cw.line_walk(p), cw.parse_state(lit), cw.QuadratureGrid(4096, 1))
        return self._rho_dev(stdout, ref)

    def _check_rho_2d(self, stdout: bytes) -> float:
        spec = cw.parse_walk_config(self.inputs["walk_text"])
        state = cw.parse_state(self.inputs["rho_2d_state"])
        ref = asymptotics.rho_asymptotic(spec, state, cw.QuadratureGrid(CLI_2D_GRID, 2))
        return self._rho_dev(stdout, ref)

    def _check_closed(self, stdout: bytes) -> float:
        p, lit = self.inputs["closed"]
        return self._rho_dev(stdout, cw.rho_local_closed(p, cw.parse_state(lit).chi))

    @staticmethod
    def _check_verify(stdout: bytes) -> float:
        lines = stdout.decode().splitlines()[1:]
        if len(lines) != 3 or not all(line.rstrip().endswith("PASS") for line in lines):
            raise Mismatch("verify did not PASS every check: " + " | ".join(lines))
        return 0.0

    @staticmethod
    def _csv_rows(stdout: bytes) -> np.ndarray:
        lines = stdout.decode().splitlines()[2:]  # '# cfg' comment and header
        return np.array([[float(x) for x in line.split(",")] for line in lines])

    def _check_fig(self, stdout: bytes) -> float:
        rows = self._csv_rows(stdout)
        if rows.shape != (99 * 33, 3):
            raise Mismatch(f"fig cpe-3d has shape {rows.shape}")
        ref = [
            cw.entropy_of_pair(*cw.eigenvalues_distributed_example(cw.U2Params(th, a, 0.0)))
            for th, a, _ in rows
        ]
        return max_dev(rows[:, 2], ref)

    def _check_simulate(self, stdout: bytes) -> float:
        p, lit = self.inputs["simulate"]
        rows = self._csv_rows(stdout)
        rhos = simulate.rho_series(cw.line_walk(p), cw.parse_state(lit), CLI_T_MAX)
        if rows.shape != (CLI_T_MAX + 1, 9):
            raise Mismatch(f"simulate output has shape {rows.shape}")
        ref = np.concatenate([rhos.real.reshape(-1, 4), rhos.imag.reshape(-1, 4)], axis=1)
        return max(max_dev(rows[:, 0], np.arange(CLI_T_MAX + 1)), max_dev(rows[:, 1:], ref))


WORKLOADS = {"line-sweep": LineSweep, "lattice": Lattice, "oracle": Oracle, "cli": Cli}
