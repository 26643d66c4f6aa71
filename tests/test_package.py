"""The package's public surface and its installed entry points."""

import importlib
import importlib.util
import json
import re
import shlex
import sys
import tomllib
from pathlib import Path

import numpy as np

from coinwalk import LocalState, QuadratureGrid, WalkSpec, asymptotics
from coinwalk.cli import main
from conftest import random_unitary, unit_vector
from test_cli import run_process

PUBLIC_NAMES = [
    "AsymptoticResult", "BlochCoin", "CoinWalkError", "DegenerateDispersion", "DensityMatrix",
    "DistributedState", "FormatError", "GeneralState", "InitialState", "InvalidArgument",
    "LocalState", "NumericalFailure", "QuadratureGrid", "U2Params", "WalkSpec", "asymptotics",
    "bloch_coin", "build_uk", "c_local", "c_local_u2", "c_of_k_u2", "cesaro_rho", "characteristic",
    "characteristic_at_k", "dispersion_gamma", "eigenvalues_distributed_example",
    "eigenvalues_entangled_example", "eigenvalues_local_general", "entropy_of_pair", "errors",
    "grammar", "linalg", "line_walk", "parse_angle", "parse_complex", "parse_state",
    "parse_walk_config", "rho_asymptotic", "rho_distributed_example_closed",
    "rho_from_characteristic", "rho_local_closed", "rho_series", "simulate", "states", "u2_coin",
    "von_neumann_entropy", "walk",
]
ROOT = Path(__file__).resolve().parents[1]


def test_public_names_are_pinned():
    # a fresh interpreter: importing a submodule elsewhere in the run adds its name
    proc = run_process(
        "-c", "import coinwalk, json; print(json.dumps([n for n in dir(coinwalk) if n[0] != '_']))"
    )
    assert proc.returncode == 0, proc.stderr
    public = sorted(json.loads(proc.stdout))
    assert public == PUBLIC_NAMES
    assert len(public) == 47


def test_readme_quick_start_runs():
    # the documented example takes only public names, so a cut in them shows here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Quick start\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    assert block is not None
    proc = run_process("-c", block.group(1))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("0.8724")


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every documented command runs as written, so a removed option or a
    # mis-quoted literal in the README shows here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.M | re.S)
    assert block is not None
    lines = block.group(1).replace("\\\n", " ").splitlines()  # join continued lines
    commands = [argv for line in lines if (argv := shlex.split(line, comments=True))]
    assert len(commands) >= 8 and all(argv[0] == "coinwalk" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        try:
            code = main(argv[1:])
        except SystemExit as exc:  # argparse refused the line
            code = exc.code
        err = capsys.readouterr().err
        # the negative control is documented to FAIL
        assert code == (1 if "--inject-f-sign-error" in argv else 0), (argv, err)


def test_console_scripts_resolve_to_callables():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target


def test_the_benchmark_tracer_finds_what_it_patches(monkeypatch):
    # perfbench/tracing.py swaps each (module, name) of its PATCHES for a timed
    # wrapper, and perfbench/layers.py divides by the characteristic_stack time
    # of a traced one-site 2-d n=4 op; the benchmark is not part of this suite
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # import it without writing to it
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [(m.__name__, name) for m, name, *_ in tracing.PATCHES if not hasattr(m, name)] == []
    rng = np.random.default_rng(8)
    walk = WalkSpec(2, 4, [[1, 0], [-1, 0], [0, 1], [0, -1]], random_unitary(rng, 4))
    args = walk, LocalState((0, 0), unit_vector(rng, 4)), QuadratureGrid(8, 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.call("asymptotics.rho_asymptotic", asymptotics.rho_asymptotic, args)
    calls, seconds, _ = tracer.ops[0].stats["characteristic.characteristic_stack"]
    assert calls >= 1 and seconds > 0
