"""End-to-end acceptance checks.

Each test prints a single ``ACCEPTANCE <n> ... PASS/FAIL`` line so a plain
``pytest -s tests/test_acceptance.py`` doubles as a release checklist. The
budgets (tolerances and wall-clock ceilings) are stated inline.
"""

import json
import time

import numpy as np
import pytest

from coinwalk import (
    BlochCoin,
    DistributedState,
    GeneralState,
    LocalState,
    QuadratureGrid,
    U2Params,
    c_local,
    c_local_u2,
    c_of_k_u2,
    cesaro_rho,
    characteristic_at_k,
    eigenvalues_distributed_example,
    eigenvalues_entangled_example,
    eigenvalues_local_general,
    line_walk,
    rho_asymptotic,
    rho_local_closed,
)
from coinwalk.cli import main
from conftest import partial_trace, random_interior_params, swap_matrix

PI = np.pi
INV2 = 1 / np.sqrt(2)
HADAMARD_PARAMS = U2Params(PI / 4, PI / 2, PI / 2)

# rho for the balanced coin with chi = |0>: entries (2-s)/2, f/2, s/2 with
# s = sin(pi/4), f = s cos(pi/4)/(s+1)
BALANCED_LOCAL_RHO = np.array(
    [
        [0.6464466094067263, 0.14644660940672624],
        [0.14644660940672624, 0.35355339059327373],
    ],
    dtype=complex,
)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_01_balanced_local_cpe(capsys):
    start = time.perf_counter()
    code = main(
        [
            "rho",
            "--theta", "pi/4", "--alpha", "pi/2", "--beta", "pi/2",
            "--state", "local v=0 chi=(1,0)",
            "--grid-n", "4096",
        ]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    doc = json.loads(out)
    ok = code == 0 and abs(doc["cpe"] - 0.872) <= 1e-3 and elapsed < 5.0
    with capsys.disabled():
        report(1, "balanced local-state entropy", ok, f"cpe={doc['cpe']:.6f} t={elapsed:.2f}s")


def test_02_closed_form_pointwise_equivalence(capsys, rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        p = random_interior_params(rng)
        k = rng.uniform(-PI, PI)
        diff = c_of_k_u2(p, k) - characteristic_at_k(line_walk(p), k)
        worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 2.0
    with capsys.disabled():
        report(2, "closed-form C(k) equivalence", ok, f"max={worst:.3e} t={elapsed:.2f}s")


def test_03_local_constant_quadrature(capsys, rng):
    start = time.perf_counter()
    grid = QuadratureGrid(4096, 1)
    worst = 0.0
    for _ in range(20):
        p = random_interior_params(rng)
        diff = c_local(line_walk(p), grid) - c_local_u2(p)
        worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    with capsys.disabled():
        report(3, "k-integrated local constant", ok, f"max={worst:.3e} t={elapsed:.2f}s")


def test_04_eigenvalue_formulas(capsys, rng):
    start = time.perf_counter()
    grid = QuadratureGrid(2048, 1)
    thetas = np.linspace(0.05, PI / 2 - 0.05, 100)

    worst_local = 0.0
    for th in thetas:
        p = U2Params(float(th), 0.9, -0.4)
        b = BlochCoin(0.7, 0.3)
        from coinwalk import bloch_coin

        formula = np.array(eigenvalues_local_general(p, b))
        pipeline = rho_local_closed(p, bloch_coin(b)).eigenvalues
        worst_local = max(worst_local, float(np.max(np.abs(formula - pipeline))))

    worst_dist = 0.0
    dist_state = DistributedState(amplitudes={(-1,): INV2, (1,): INV2}, chi=[1, 0])
    for th in thetas[::4]:
        p = U2Params(float(th), 0.6, 0.0)
        formula = np.array(eigenvalues_distributed_example(p))
        pipeline = rho_asymptotic(line_walk(p), dist_state, grid).eigenvalues
        worst_dist = max(worst_dist, float(np.max(np.abs(formula - pipeline))))

    worst_ent = 0.0
    ent_state = GeneralState(amplitudes={(-1,): [INV2, 0], (1,): [0, INV2]})
    for th in thetas[::4]:
        p = U2Params(float(th), 0.2, -0.7)
        formula = np.array(eigenvalues_entangled_example(float(th)))
        pipeline = rho_asymptotic(line_walk(p), ent_state, grid).eigenvalues
        worst_ent = max(worst_ent, float(np.max(np.abs(formula - pipeline))))

    elapsed = time.perf_counter() - start
    worst = max(worst_local, worst_dist, worst_ent)
    ok = worst <= 1e-8 and elapsed < 120.0
    with capsys.disabled():
        report(
            4,
            "eigenvalue formulas vs pipeline",
            ok,
            f"local={worst_local:.2e} dist={worst_dist:.2e} ent={worst_ent:.2e} t={elapsed:.1f}s",
        )


def test_05_phase_difference_invariance(capsys, rng):
    grid = QuadratureGrid(2048, 1)
    worst_closed = 0.0
    worst_numeric = 0.0
    state = LocalState(position=0, chi=[0.6, 0.8j])
    for _ in range(5):
        p = random_interior_params(rng)
        delta = rng.uniform(-PI, PI)
        shifted = U2Params(p.theta, p.alpha + delta, p.beta + delta)
        worst_closed = max(
            worst_closed,
            float(np.max(np.abs(c_local_u2(p) - c_local_u2(shifted)))),
            float(
                np.max(
                    np.abs(
                        rho_local_closed(p, state.chi).rho.matrix
                        - rho_local_closed(shifted, state.chi).rho.matrix
                    )
                )
            ),
        )
        worst_numeric = max(
            worst_numeric,
            float(
                np.max(
                    np.abs(
                        rho_asymptotic(line_walk(p), state, grid).rho.matrix
                        - rho_asymptotic(line_walk(shifted), state, grid).rho.matrix
                    )
                )
            ),
        )
    ok = worst_closed <= 1e-12 and worst_numeric <= 1e-8
    with capsys.disabled():
        report(
            5,
            "phase-difference invariance",
            ok,
            f"closed={worst_closed:.2e} numeric={worst_numeric:.2e}",
        )


def test_06_simulator_oracle_convergence(capsys):
    start = time.perf_counter()
    spec = line_walk(HADAMARD_PARAMS)
    state = LocalState(position=0, chi=[1, 0])
    res_2000 = float(
        np.max(np.abs(cesaro_rho(spec, state, 2000).matrix - BALANCED_LOCAL_RHO))
    )
    res_250 = float(
        np.max(np.abs(cesaro_rho(spec, state, 250).matrix - BALANCED_LOCAL_RHO))
    )
    elapsed = time.perf_counter() - start
    ok = res_2000 <= 0.02 and res_2000 < res_250 and elapsed < 60.0
    with capsys.disabled():
        report(
            6,
            "time-average oracle convergence",
            ok,
            f"res(2000)={res_2000:.2e} res(250)={res_250:.2e} t={elapsed:.1f}s",
        )


def test_07_structural_invariants(capsys, rng):
    grid = QuadratureGrid(512, 1)
    worst_struct = 0.0
    worst_rho = 0.0
    s4 = swap_matrix(2)
    for i in range(200):
        p = random_interior_params(rng)
        k = rng.uniform(-PI, PI)
        c = characteristic_at_k(line_walk(p), k)
        worst_struct = max(
            worst_struct,
            float(np.max(np.abs(c - c.conj().T))),
            float(np.max(np.abs(s4 @ c @ s4 - c))),
            float(np.max(np.abs(partial_trace(c, "first") - np.eye(2)))),
            float(np.max(np.abs(partial_trace(c, "second") - np.eye(2)))),
        )
        if i % 20 == 0:
            # the asymptotic state itself: Hermitian, trace one, PSD
            rho = rho_asymptotic(
                line_walk(p), LocalState(position=0, chi=[1, 0]), grid
            ).rho.matrix
            worst_rho = max(
                worst_rho,
                float(np.max(np.abs(rho - rho.conj().T))),
                abs(float(np.trace(rho).real) - 1.0),
                max(0.0, -float(np.min(np.linalg.eigvalsh(rho)))),
            )
    ok = worst_struct <= 1e-10 and worst_rho <= 1e-8
    with capsys.disabled():
        report(
            7,
            "structural invariants",
            ok,
            f"C(k)={worst_struct:.2e} rho={worst_rho:.2e} over 200 draws",
        )


def test_08_entangled_figure_properties(capsys):
    code = main(["fig", "cpe-entangled", "--theta-points", "399"])
    out = capsys.readouterr().out
    rows = [list(map(float, line.split(","))) for line in out.splitlines()[2:]]
    thetas = np.array([r[0] for r in rows])
    cpes = np.array([r[1] for r in rows])
    mask = (thetas > 0.05) & (thetas < PI - 0.05)
    all_high = bool(np.all(cpes[mask] >= 0.98))
    interior = np.flatnonzero(mask)
    minima = [
        i
        for i in interior[1:-1]
        if cpes[i] < cpes[i - 1] and cpes[i] < cpes[i + 1]
    ]
    locations = thetas[minima]
    two = len(minima) == 2
    placed = (
        two
        and abs(locations[0] - PI / 8) <= 0.1
        and abs(locations[1] - 7 * PI / 8) <= 0.1
    )
    ok = code == 0 and all_high and placed
    with capsys.disabled():
        loc_s = ", ".join(f"{x:.4f}" for x in locations)
        report(
            8,
            "entangled-state figure",
            ok,
            f"min cpe={cpes[mask].min():.4f} minima at [{loc_s}]",
        )
