"""Command-line interface.

Subcommands:

* ``rho``       asymptotic coin state, eigenvalues and entanglement entropy
* ``fig``       CSV data behind the three standard entanglement figures
* ``verify``    cross-check suite (closed form vs numeric vs simulator)
* ``simulate``  finite-time coin-state series as CSV

Figure commands emit data, not images. All floats are written with 17
significant digits and every reduction runs in a fixed order, so identical
configurations produce byte-identical output files.

Exit codes: 0 ok, 1 verify failure, 2 bad input (parse error, argument out
of range, unreadable or unwritable file, a run too large for memory), 3 the
bands cross, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from .asymptotics import (
    eigenvalues_distributed_example,
    eigenvalues_entangled_example,
    eigenvalues_local_general,
    entropy_of_pair,
    rho_asymptotic,
    rho_local_closed,
)
from .characteristic import QuadratureGrid, c_local, c_local_u2, c_of_k_u2, characteristic_at_k
from .errors import CoinWalkError, DegenerateDispersion, FormatError, InvalidArgument
from .grammar import parse_angle, parse_state, parse_walk_config
from .simulate import cesaro_rho, rho_series
from .states import BlochCoin, LocalState
from .walk import U2Params, line_walk


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


@contextmanager
def _output(path: str):
    """Yield stdout for '-' or '', else the file at ``path``, closed on exit."""
    if path in ("-", ""):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write_csv(path: str, cfg: str, header: list[str], rows) -> None:
    with _output(path) as out:
        out.write(f"# cfg: {cfg}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")


def _walk_and_params(args):
    """Resolve --walk-file / angle flags to (WalkSpec, U2Params or None)."""
    p = U2Params(*(parse_angle(a) for a in (args.theta, args.alpha, args.beta)))
    if args.walk_file:
        with open(args.walk_file, encoding="utf-8") as fh:
            return parse_walk_config(fh.read()), None
    return line_walk(p), p


def cmd_rho(args) -> int:
    spec, params = _walk_and_params(args)
    state = parse_state(args.state)
    if args.closed_form:
        if params is None or not isinstance(state, LocalState):
            raise FormatError("--closed-form requires angle parameters and a local state")
        if args.grid_n is not None:
            raise FormatError("--closed-form takes no --grid-n: the formula uses no grid")
        result = rho_local_closed(params, state.chi)
        grid_n = None  # the formula takes no grid
    else:
        dim = spec.lattice_dim
        grid = QuadratureGrid(args.grid_n, dim) if args.grid_n else QuadratureGrid.default(dim)
        result = rho_asymptotic(spec, state, grid)
        grid_n = grid.points_per_axis

    rho = result.rho.matrix
    if args.format == "json":
        doc = {
            "state": args.state,
            "method": result.method,
            "rho_re": [[float(v.real) for v in row] for row in rho],
            "rho_im": [[float(v.imag) for v in row] for row in rho],
            "eigenvalues": [float(v) for v in result.eigenvalues],
            "cpe": float(result.cpe),
        }
        if grid_n is not None:
            doc["grid_n"] = grid_n
        if params is not None:
            doc.update(theta=params.theta, alpha=params.alpha, beta=params.beta)
        with _output(args.output) as out:
            json.dump(doc, out, sort_keys=True, indent=2)
            out.write("\n")
    else:
        n = rho.shape[0]
        rows = [("cpe", result.cpe)]
        rows += [(f"eigenvalue_{i}", v) for i, v in enumerate(result.eigenvalues)]
        rows += [(f"rho_re_{i}_{j}", rho[i, j].real) for i in range(n) for j in range(n)]
        rows += [(f"rho_im_{i}_{j}", rho[i, j].imag) for i in range(n) for j in range(n)]
        cfg = f"rho state={args.state!r}" + ("" if grid_n is None else f" grid_n={grid_n}")
        _write_csv(args.output, f"{cfg} method={result.method}", ["name", "value"], rows)
    return 0


def cmd_fig(args) -> int:
    def dist_cpe(theta: float, alpha: float) -> float:
        return entropy_of_pair(*eigenvalues_distributed_example(U2Params(theta, alpha, 0.0)))

    entangled = args.which == "cpe-entangled"
    points = args.theta_points or (399 if entangled else 99)
    span = np.pi if entangled else np.pi / 2
    thetas = (i * span / (points + 1) for i in range(1, points + 1))
    cfg = f"fig {args.which} theta_points={points}"
    if args.which == "cpe-compare":
        chi0 = BlochCoin(xi=0.0, eta=0.0)
        alphas = [0.0, np.pi / 4, np.pi / 2]
        header = ["theta", "cpe_local", "cpe_dist_alpha0", "cpe_dist_alphaPi4", "cpe_dist_alphaPi2"]
        rows = (
            (
                th,
                entropy_of_pair(*eigenvalues_local_general(U2Params(th, 0.0, 0.0), chi0)),
                *(dist_cpe(th, a) for a in alphas),
            )
            for th in thetas
        )
    elif args.which == "cpe-3d":
        cfg += f" alpha_points={args.alpha_points}"
        alphas = [j * (np.pi / 2) / (args.alpha_points - 1) for j in range(args.alpha_points)]
        header = ["theta", "alpha", "cpe"]
        rows = ((th, a, dist_cpe(th, a)) for th in thetas for a in alphas)
    else:
        header = ["theta", "cpe"]
        rows = ((th, entropy_of_pair(*eigenvalues_entangled_example(th))) for th in thetas)
    _write_csv(args.output, cfg, header, rows)
    return 0


def _flip_f(c):
    """``(Z (x) Z) C (Z (x) Z)`` of a 4x4 C: the eight F entries negated, the rest unchanged."""
    z = np.array([1.0, -1.0, -1.0, 1.0])
    return np.outer(z, z) * c


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    hadamard = U2Params(np.pi / 4, np.pi / 2, np.pi / 2)

    residual_ck = 0.0
    for _ in range(args.draws):
        p = U2Params(
            theta=rng.uniform(0.05, np.pi / 2 - 0.05),
            alpha=rng.uniform(-np.pi, np.pi),
            beta=rng.uniform(-np.pi, np.pi),
        )
        k = rng.uniform(-np.pi, np.pi)
        closed = c_of_k_u2(p, k)
        if args.inject_f_sign_error:  # the negative control: this check must FAIL
            closed = _flip_f(closed)
        numeric = characteristic_at_k(line_walk(p), k)
        residual_ck = max(residual_ck, float(np.max(np.abs(closed - numeric))))

    residual_cl = float(np.max(np.abs(c_local(line_walk(hadamard)) - c_local_u2(hadamard))))

    state = LocalState(position=0, chi=[1.0, 0.0])
    reference = rho_local_closed(hadamard, state.chi).rho.matrix
    averaged = cesaro_rho(line_walk(hadamard), state, args.t_max)
    residual_oracle = float(np.max(np.abs(averaged.matrix - reference)))

    checks = [
        ("closed-form C(k) vs numeric eigenprojectors", residual_ck, 1e-10),
        ("k-integrated constant vs quadrature", residual_cl, 1e-8),
        (f"time-averaged simulator at t_max={args.t_max}", residual_oracle, 0.02),
    ]
    print(f"{'check':<46}{'residual':>14}{'budget':>12}  status")
    ok = True
    for name, res, budget in checks:
        status = "PASS" if res <= budget else "FAIL"
        ok = ok and status == "PASS"
        print(f"{name:<46}{res:>14.3e}{budget:>12.1e}  {status}")
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    spec, _ = _walk_and_params(args)
    state = parse_state(args.state)
    rhos = rho_series(spec, state, args.t_max)
    n = spec.coin_dim
    header = ["t"]
    header += [f"rho_re_{i}_{j}" for i in range(n) for j in range(n)]
    header += [f"rho_im_{i}_{j}" for i in range(n) for j in range(n)]
    rows = (
        (t, *r.real.ravel().tolist(), *r.imag.ravel().tolist())
        for t, r in zip(range(0, args.t_max + 1, args.stride), rhos[:: args.stride])
    )
    cfg = f"simulate state={args.state!r} t_max={args.t_max} stride={args.stride}"
    _write_csv(args.output, cfg, header, rows)
    return 0


def _add_walk_args(sub) -> None:
    # argparse reads "-pi/2" after a flag as an option, and "--theta=-pi/2" as a value
    for name, what in (
        ("theta", "coin angle (radians or pi literal)"),
        ("alpha", "upper coin phase"),
        ("beta", "lower coin phase"),
    ):
        sub.add_argument(f"--{name}", default="0", help=f"{what}; a negative one as --{name}=-pi/2")
    sub.add_argument("--walk-file", help="walk config file (overrides the angle flags)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinwalk", description="Asymptotic coin states of discrete-time coined walks."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rho = sub.add_parser("rho", help="asymptotic coin state for a walk and initial state")
    _add_walk_args(rho)
    rho.add_argument("--state", required=True, help='initial state, e.g. \'local v=0 chi=(1,0)\'')
    rho.add_argument(
        "--grid-n",
        type=_int_at_least(1),
        help="quadrature points per axis (default 4096 in 1-d, 256 per axis above)",
    )
    rho.add_argument(
        "--closed-form", action="store_true", help="use the exact U(2) local-state formula"
    )
    rho.add_argument("--format", choices=("json", "csv"), default="json")
    rho.add_argument("--output", default="-", help="output path ('-' for stdout)")
    rho.set_defaults(func=cmd_rho)

    fig = sub.add_parser("fig", help="CSV data for the standard entanglement figures")
    fig.add_argument("which", choices=("cpe-compare", "cpe-3d", "cpe-entangled"))
    fig.add_argument(
        "--theta-points", type=_int_at_least(1), help="default 399 for cpe-entangled, else 99"
    )
    fig.add_argument("--alpha-points", type=_int_at_least(2), default=33)
    fig.add_argument("--output", default="-")
    fig.set_defaults(func=cmd_fig)

    verify = sub.add_parser("verify", help="run the cross-check suite")
    verify.add_argument("--draws", type=_int_at_least(0), default=100)
    verify.add_argument("--t-max", type=_int_at_least(1), default=2000)
    verify.add_argument("--seed", type=_int_at_least(0), default=0)
    verify.add_argument(
        "--inject-f-sign-error",
        action="store_true",
        help="negative control: flip the sign of the off-diagonal closed-form entry",
    )
    verify.set_defaults(func=cmd_verify)

    sim = sub.add_parser("simulate", help="finite-time coin-state series as CSV")
    _add_walk_args(sim)
    sim.add_argument("--state", required=True)
    sim.add_argument("--t-max", type=_int_at_least(0), required=True)
    sim.add_argument("--stride", type=_int_at_least(1), default=1)
    sim.add_argument("--output", default="-")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgument, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateDispersion as exc:
        print(f"error: degenerate coin/dispersion: {exc}", file=sys.stderr)
        return 3
    except CoinWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print(f"error: this {args.command} run does not fit in memory", file=sys.stderr)
        return 2


def main_entry() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
