"""The package's public surface and its installed entry points."""

import importlib
import json
import tomllib
from pathlib import Path

from test_cli import run_process

PUBLIC_NAMES = [
    "AsymptoticResult", "BlochCoin", "CoinWalkError", "ConvergenceFailure", "DegenerateDispersion",
    "DensityMatrix", "DimensionMismatch", "DistributedState", "EigenSystem", "FormatError",
    "GeneralState", "InitialState", "InvalidArgument", "LatticeState", "LocalState",
    "NonUnitaryInput", "NormalizationError", "NumericalFailure", "QuadratureGrid", "U2Params",
    "WalkSpec", "asymptotics", "bloch_coin", "build_uk", "c_local", "c_local_u2", "c_of_k_u2",
    "cesaro_rho", "characteristic", "characteristic_at_k", "dispersion_gamma", "eig_unitary",
    "eig_unitary_batch", "eigenvalues_distributed_example", "eigenvalues_entangled_example",
    "eigenvalues_local_general", "entropy_of_pair", "errors", "grammar", "initial_lattice_state",
    "is_unitary", "linalg", "line_walk", "parse_angle", "parse_complex", "parse_state",
    "parse_walk_config", "psi_k_many", "rho_asymptotic", "rho_c_at_t",
    "rho_distributed_example_closed", "rho_from_characteristic", "rho_local_closed", "rho_series",
    "simulate", "site_table", "states", "step", "u2_coin", "von_neumann_entropy", "walk",
]


def test_public_names_are_pinned():
    # a fresh interpreter: importing a submodule elsewhere in the run adds its name
    proc = run_process(
        "-c", "import coinwalk, json; print(json.dumps([n for n in dir(coinwalk) if n[0] != '_']))"
    )
    assert proc.returncode == 0, proc.stderr
    public = sorted(json.loads(proc.stdout))
    assert public == PUBLIC_NAMES
    assert len(public) == 61


def test_console_scripts_resolve_to_callables():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target
