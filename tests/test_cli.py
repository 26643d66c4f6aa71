import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coinwalk
from coinwalk import (
    U2Params,
    line_walk,
    parse_state,
    parse_walk_config,
    rho_asymptotic,
    u2_coin,
)
from coinwalk.cli import main
from conftest import format_complex, random_unitary, walk_config_text

PI = np.pi
LOCAL = "local v=0 chi=(1,0)"
GROVER_CFG = """dim 2
coin -0.5, 0.5, 0.5, 0.5
coin 0.5, -0.5, 0.5, 0.5
coin 0.5, 0.5, -0.5, 0.5
coin 0.5, 0.5, 0.5, -0.5
shift 1 0
shift -1 0
shift 0 1
shift 0 -1
"""
SQUARE_SHIFTS = [[1, 0], [-1, 0], [0, 1], [0, -1]]
# two sites at the ends of int64, and a line walk whose shifts are 2**63 apart
INT64_ENDS = "dist {-9223372036854775808:0.7071067811865476, 9223372036854775807:0.7071067811865476} chi=(1,0)"
SHIFTS_62_CFG = f"dim 1\ncoin 0, 1\ncoin 1, 0\nshift {2**62}\nshift {-(2**62)}\n"
# a Hadamard walk along the diagonal of the square lattice
DIAGONAL_CFG = """dim 2
coin 0.7071067811865476, 0.7071067811865476
coin 0.7071067811865476, -0.7071067811865476
shift 1 1
shift -1 -1
"""


def run_process(*argv, env=(), **kwargs):
    """Run ``python *argv`` in a fresh interpreter that imports this coinwalk.

    ``env`` adds variables to the environment; other keyword arguments go to
    :func:`subprocess.run`.
    """
    src = str(Path(coinwalk.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **dict(env))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, **kwargs
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRho:
    def test_balanced_local_json(self, capsys):
        code, out, _ = run(
            capsys,
            "rho",
            "--theta", "pi/4", "--alpha", "pi/2", "--beta", "pi/2",
            "--state", "local v=0 chi=(1,0)",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "numeric_quadrature"
        assert doc["cpe"] == pytest.approx(0.872, abs=1e-3)
        assert doc["rho_re"][0][0] == pytest.approx(0.6464466094067263, abs=1e-8)
        assert doc["eigenvalues"][0] == pytest.approx(0.7071067811865476, abs=1e-8)

    def test_closed_form_agrees_with_quadrature(self, capsys):
        common = [
            "rho",
            "--theta", "0.6", "--alpha", "0.3", "--beta", "-0.8",
            "--state", "local v=0 chi=(0.6,0.8i)",
        ]
        code_a, out_a, _ = run(capsys, *common)
        code_b, out_b, _ = run(capsys, *common, "--closed-form")
        assert code_a == code_b == 0
        a, b = json.loads(out_a), json.loads(out_b)
        assert b["method"] == "closed_form_local"
        for key in ("rho_re", "rho_im"):
            assert np.max(np.abs(np.array(a[key]) - np.array(b[key]))) <= 1e-8

    def test_csv_format(self, capsys, tmp_path):
        path = tmp_path / "rho.csv"
        code, _, _ = run(
            capsys,
            "rho",
            "--theta", "pi/4", "--alpha", "pi/2", "--beta", "pi/2",
            "--state", "local v=0 chi=(1,0)",
            "--format", "csv", "--output", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# cfg: rho ")
        assert lines[1] == "name,value"
        values = dict(line.split(",") for line in lines[2:])
        assert float(values["cpe"]) == pytest.approx(0.872, abs=1e-3)

    def test_degenerate_coin_exit_code(self, capsys):
        code, _, err = run(
            capsys, "rho", "--theta", "0", "--state", "local v=0 chi=(1,0)"
        )
        assert code == 3
        assert "degenerate" in err

    def test_bad_state_exit_code(self, capsys):
        code, _, err = run(
            capsys, "rho", "--theta", "pi/4", "--state", "local v=0 chi=(1,1)"
        )
        assert code == 2
        assert "error:" in err

    def test_walk_file_matches_angle_flags(self, capsys, tmp_path):
        p = U2Params(0.7, 0.2, -0.4)
        cfg = tmp_path / "walk.cfg"
        cfg.write_text(walk_config_text(line_walk(p)))
        state = "local v=0 chi=(1,0)"
        _, out_a, _ = run(
            capsys, "rho", "--theta", "0.7", "--alpha", "0.2", "--beta", "-0.4",
            "--state", state,
        )
        _, out_b, _ = run(capsys, "rho", "--walk-file", str(cfg), "--state", state)
        a, b = json.loads(out_a), json.loads(out_b)
        assert np.max(np.abs(np.array(a["rho_re"]) - np.array(b["rho_re"]))) <= 1e-12
        assert np.max(np.abs(np.array(a["rho_im"]) - np.array(b["rho_im"]))) <= 1e-12

    def test_two_dimensional_walk_takes_the_library_default_grid(self, capsys, tmp_path):
        cfg = tmp_path / "diagonal.cfg"
        cfg.write_text(DIAGONAL_CFG)
        state = "local v=0,0 chi=(1,0)"
        code, out, _ = run(capsys, "rho", "--walk-file", str(cfg), "--state", state)
        assert code == 0
        doc = json.loads(out)
        assert doc["grid_n"] == 256
        expected = rho_asymptotic(parse_walk_config(DIAGONAL_CFG), parse_state(state)).rho.matrix
        assert np.array_equal(np.array(doc["rho_re"]), expected.real)
        assert np.array_equal(np.array(doc["rho_im"]), expected.imag)

    def test_default_two_dimensional_grid_runs_in_bounded_memory(self, tmp_path):
        # at 256^2 nodes one C(k) stack of a 4-state coin alone would take 268 MB
        resource = pytest.importorskip("resource")
        limit = 512 * 2**20

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        coin = random_unitary(np.random.default_rng(256), 4)
        cfg = tmp_path / "haar.cfg"
        cfg.write_text(walk_config_text(coinwalk.WalkSpec(2, 4, SQUARE_SHIFTS, coin)))
        proc = run_process(
            "-m", "coinwalk.cli", "rho", "--walk-file", str(cfg),
            "--state", "local v=0,0 chi=(1,0,0,0)",
            # each BLAS thread reserves address space of its own
            env={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["grid_n"] == 256

    def test_state_far_from_the_origin(self, capsys):
        far = "dist {100000000000000000:0.7071067811865476, 100000000000000001:0.7071067811865476} chi=(1,0)"
        near = "dist {0:0.7071067811865476, 1:0.7071067811865476} chi=(1,0)"
        outs = []
        for state in (far, near):
            code, out, err = run(capsys, "rho", "--theta", "pi/4", "--state", state)
            assert code == 0, err
            doc = json.loads(out)
            del doc["state"]
            outs.append(doc)
        assert outs[0] == outs[1]
        assert abs(outs[0]["cpe"] - 0.8724293398564675) <= 1e-15

    def test_entangled_state_is_nearly_mixed(self, capsys):
        code, out, _ = run(
            capsys,
            "rho",
            "--theta", "pi/4",
            "--state", "general {-1:(0.7071,0), 1:(0,0.7071)}",
        )
        assert code == 0
        assert json.loads(out)["cpe"] >= 0.98


class TestFig:
    def _rows(self, text):
        lines = text.splitlines()
        assert lines[0].startswith("# cfg: ")
        header = lines[1].split(",")
        rows = [list(map(float, line.split(","))) for line in lines[2:]]
        return header, rows

    def test_cpe_compare_contains_balanced_point(self, capsys):
        code, out, _ = run(capsys, "fig", "cpe-compare")
        assert code == 0
        header, rows = self._rows(out)
        assert header[:2] == ["theta", "cpe_local"]
        assert len(rows) == 99
        balanced = min(rows, key=lambda r: abs(r[0] - PI / 4))
        assert balanced[0] == pytest.approx(PI / 4, abs=1e-12)
        assert balanced[1] == pytest.approx(0.8724, abs=1e-3)

    def test_cpe_3d_alpha_zero_column_matches_compare(self, capsys):
        code, out3d, _ = run(
            capsys, "fig", "cpe-3d", "--theta-points", "20", "--alpha-points", "5"
        )
        assert code == 0
        _, rows3d = self._rows(out3d)
        assert len(rows3d) == 20 * 5
        code, out_cmp, _ = run(capsys, "fig", "cpe-compare", "--theta-points", "20")
        assert code == 0
        _, rows_cmp = self._rows(out_cmp)
        alpha0 = {r[0]: r[2] for r in rows3d if r[1] == 0.0}
        for r in rows_cmp:
            assert alpha0[r[0]] == pytest.approx(r[2], abs=1e-14)

    def test_cpe_entangled_properties(self, capsys):
        code, out, _ = run(capsys, "fig", "cpe-entangled")
        assert code == 0
        header, rows = self._rows(out)
        assert header == ["theta", "cpe"]
        assert len(rows) == 399
        cpes = np.array([r[1] for r in rows])
        assert np.min(cpes) >= 0.98

    def test_byte_determinism(self, capsys, tmp_path):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (pa, pb):
            assert main(["fig", "cpe-compare", "--output", str(path)]) == 0
        capsys.readouterr()
        assert pa.read_bytes() == pb.read_bytes()


class TestSimulate:
    def test_first_steps(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "--theta", "pi/4", "--alpha", "pi/2", "--beta", "pi/2",
            "--state", "local v=0 chi=(1,0)",
            "--t-max", "2",
        )
        assert code == 0
        lines = out.splitlines()
        header = lines[1].split(",")
        assert header[0] == "t"
        rows = [list(map(float, line.split(","))) for line in lines[2:]]
        assert len(rows) == 3
        row1 = dict(zip(header, rows[1]))
        # one balanced step leaves the coin maximally mixed
        assert row1["rho_re_0_0"] == pytest.approx(0.5)
        assert row1["rho_re_1_1"] == pytest.approx(0.5)
        assert row1["rho_re_0_1"] == pytest.approx(0.0, abs=1e-14)

    def test_stride(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "--theta", "pi/4",
            "--state", "local v=0 chi=(1,0)",
            "--t-max", "10", "--stride", "5",
        )
        assert code == 0
        rows = out.splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["0", "5", "10"]

    @pytest.mark.parametrize("state", ["local v=0 chi=(1,0,0)", "local v=0,0 chi=(1,0)"])
    def test_state_that_does_not_fit_the_walk_exits_4(self, capsys, state):
        code, out, err = run(capsys, "simulate", "--theta", "0.3", "--state", state, "--t-max", "2")
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "walk, state, amplitudes",
        [
            # two coin components over 2**64 sites widened by 2 per step
            (["--theta", "pi/4"], INT64_ENDS, 2 * (2**64 + 2 * 2)),
            # one site widened by 2**63 per step
            (["--walk-file", "{tmp}/shifts62.cfg"], LOCAL, 2 * (1 + 2**63 * 2)),
        ],
        ids=["span", "shifts"],
    )
    def test_light_cone_beyond_int64_reports_its_size(self, capsys, tmp_path, walk, state, amplitudes):
        (tmp_path / "shifts62.cfg").write_text(SHIFTS_62_CFG)
        walk = [a.replace("{tmp}", str(tmp_path)) for a in walk]
        code, out, err = run(capsys, "simulate", *walk, "--state", state, "--t-max", "2")
        assert code == 2 and out == ""
        assert err == (
            f"error: the light cone of {amplitudes} amplitudes and the series of 3 coin states"
            " up to t_max=2 do not fit in memory\n"
        )


class TestVerify:
    def test_passes_with_small_budget(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--draws", "10", "--grid-n", "1024", "--t-max", "600",
        )
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_negative_control_fails(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--draws", "10", "--grid-n", "256", "--t-max", "300",
            "--inject-f-sign-error",
        )
        assert code == 1
        assert "FAIL" in out


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rho", "--theta", "pi/4", "--grid-n", "0", "--state", LOCAL],
            ["simulate", "--state", LOCAL, "--t-max", "4", "--stride", "0"],
            ["simulate", "--state", LOCAL, "--t-max", "-1"],
            ["verify", "--t-max", "5", "--burn-in", "10"],
            ["rho", "--walk-file", "{tmp}/missing.cfg", "--state", LOCAL],
            ["rho", "--walk-file", "{tmp}/latin1.cfg", "--state", LOCAL],
            ["rho", "--theta", "pi/4", "--state", LOCAL, "--output", "{tmp}/missing/rho.json"],
            ["fig", "cpe-3d", "--alpha-points", "1"],
            ["simulate", "--theta", "0.3", "--state", "local v=0 chi=(1,0,0)", "--t-max", "3"],
            ["simulate", "--theta", "0.3", "--state", "local v=0,0 chi=(1,0)", "--t-max", "2"],
            ["verify", "--seed", "-1"],
        ],
        ids=[
            "grid-n-zero", "stride-zero", "negative-t-max", "burn-in-past-t-max",
            "missing-walk-file", "non-utf8-walk-file", "unwritable-output", "one-alpha-point",
            "simulate-coin-dim-mismatch", "simulate-lattice-dim-mismatch", "verify-negative-seed",
        ],
    )
    def test_exit_code_without_traceback(self, argv, tmp_path):
        (tmp_path / "latin1.cfg").write_bytes(b"dim 1 # \xe9\n")
        proc = run_process("-m", "coinwalk.cli", *(a.format(tmp=tmp_path) for a in argv))
        assert proc.returncode in (2, 3, 4), proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error" in proc.stderr

    # The grids are sizes numpy refuses to allocate outright (7.3 TiB of 2-d
    # nodes, 730 TiB of 1-d nodes), so these runs allocate nothing large.
    @pytest.mark.parametrize(
        "argv",
        [
            ["rho", "--walk-file", "{tmp}/grover.cfg", "--state", "local v=0,0 chi=(1,0,0,0)",
             "--grid-n", "1000000"],
            ["verify", "--draws", "0", "--grid-n", "100000000000000"],
            ["rho", "--theta", "pi/4", "--state", "local v=, chi=(1,0)"],
            ["rho", "--theta", "pi/4", "--state", "dist {:1} chi=(1,0)"],
            ["rho", "--theta", "nan", "--state", "local v=0 chi=(1,0)"],
            ["rho", "--theta", "inf", "--state", "local v=0 chi=(1,0)"],
            ["simulate", "--alpha", "1e400", "--state", "local v=0 chi=(1,0)", "--t-max", "2"],
            ["rho", "--theta", "pi/0", "--state", "local v=0 chi=(1,0)"],
            ["rho", "--theta", "0.3", "--state", "local v=0 chi=(nan,0)"],
            ["rho", "--theta", "0.3", "--state", "local v=0 chi=(1e400,0)"],
            ["rho", "--walk-file", "{tmp}/nan.cfg", "--state", "local v=0 chi=(1,0)"],
            ["rho", "--theta", "pi/4", "--state", "dist {0:0.7071, 0;0:0.7071} chi=(1,0)"],
            ["simulate", "--theta", "pi/4", "--state", "general {0:(0.7071,0), 1;2:(0,0.7071)}",
             "--t-max", "2"],
            ["simulate", "--walk-file", "{tmp}/standstill.cfg", "--state", "local v=0 chi=(1,0)",
             "--t-max", "10000000000000"],
            ["rho", "--theta", "pi/4", "--state", "local v=99999999999999999999999 chi=(1,0)"],
            ["rho", "--walk-file", "{tmp}/far.cfg", "--state", "local v=0 chi=(1,0)"],
            ["rho", "--theta", "pi/4", "--state", LOCAL, "--grid-n", str(2**60)],
            ["rho", "--theta", "pi/4", "--state", LOCAL, "--grid-n", str(2**70)],
            ["simulate", "--theta", "pi/4", "--state", INT64_ENDS, "--t-max", "2"],
            ["simulate", "--walk-file", "{tmp}/shifts62.cfg", "--state", LOCAL, "--t-max", "2"],
            ["rho", "--theta", "pi/4", "--state", INT64_ENDS],
        ],
        ids=["rho-grid-too-large", "verify-grid-too-large", "local-empty-position",
             "dist-empty-position", "theta-nan", "theta-inf", "alpha-overflow", "angle-div-zero",
             "chi-nan", "chi-overflow", "walk-file-nan-coin", "rho-mixed-position-lengths",
             "simulate-mixed-position-lengths", "simulate-series-too-large",
             "position-beyond-int64", "shift-beyond-int64", "grid-n-2-60", "grid-n-2-70",
             "simulate-span-beyond-int64", "simulate-shifts-2-62", "rho-span-beyond-int64"],
    )
    def test_exits_2_with_one_error_line(self, argv, tmp_path):
        (tmp_path / "grover.cfg").write_text(GROVER_CFG)
        (tmp_path / "nan.cfg").write_text("dim 1\ncoin nan, 0\ncoin 0, 1\nshift 1\nshift -1\n")
        (tmp_path / "far.cfg").write_text(f"dim 1\ncoin 0, 1\ncoin 1, 0\nshift {2**70}\nshift -1\n")
        (tmp_path / "shifts62.cfg").write_text(SHIFTS_62_CFG)
        # both shifts 0: the light cone stays two amplitudes, the series of coin states does not
        (tmp_path / "standstill.cfg").write_text("dim 1\ncoin 0, 1\ncoin 1, 0\nshift 0\nshift 0\n")
        proc = run_process("-m", "coinwalk.cli", *(a.replace("{tmp}", str(tmp_path)) for a in argv))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize(
        "cfg, defect",
        [
            ("dim 1\ncoin 0, 1\ncoin 1\nshift 1\nshift -1\n", "coin rows do not form a square"),
            ("dim 1\ncoin 0, 1\ncoin 1, 0\nshift 1\n", "(one per coin state), got 1"),
            ("dim 1\ncoin 0, 1\ncoin 1, 0\nshift 1 0\nshift -1\n",
             "every shift vector must have 1 components"),
        ],
        ids=["ragged-coin", "missing-shift-line", "wrong-shift-width"],
    )
    def test_malformed_walk_file_names_the_defect(self, cfg, defect, tmp_path):
        (tmp_path / "walk.cfg").write_text(cfg)
        proc = run_process("-m", "coinwalk.cli", "rho", "--walk-file", str(tmp_path / "walk.cfg"),
                           "--state", LOCAL)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert defect in proc.stderr
        assert "numpy" not in proc.stderr and "inhomogeneous" not in proc.stderr


# Every fuzz input stays small to run. Huge integers go only where they are
# refused before anything is allocated: local positions, shifts of 2**63 and
# more, and grids of 2**47 nodes per axis and more, whose node coordinates
# alone exceed the 128 TiB address space. Spans of dist and general states stay
# within 64 sites, other shifts within +-3 and t_max within 20: a grid of 10**9
# nodes or a light cone of 10**8 sites would really be allocated.


def powers_of_two(low: int, high: int):
    """Integers ``2**b + j`` with ``low <= b <= high`` and ``0 <= j <= 2**40``, even in b."""
    return st.tuples(st.integers(low, high), st.integers(0, 2**40)).map(lambda t: 2 ** t[0] + t[1])


HUGE = powers_of_two(63, 100).flatmap(lambda v: st.sampled_from([v, -v]))
BAD_ANGLE = st.sampled_from(["0", "pi/2", "nan", "inf", "1e400", "pi/0", "x"])
BAD_VECTOR = st.sampled_from(["(1,0", "(nan,0)", "(1e400,0)", "(1,1)", "()", "(1,x)"])


def mostly(common, rare):
    """Draws from ``common``, or from ``rare`` when an integer drawn from 0..7 is 7."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 7 else common)


def vector_text(z) -> str:
    return "(" + ", ".join(format_complex(complex(c)) for c in z) + ")"


@st.composite
def unit_vectors(draw, n):
    size = draw(mostly(st.just(n), st.sampled_from([1, n + 1])))
    parts = np.array(draw(st.lists(st.floats(-1, 1), min_size=2 * size, max_size=2 * size)))
    z = parts[:size] + 1j * parts[size:]
    norm = np.linalg.norm(z)
    return z / norm if norm > 1e-3 else np.eye(size)[0]


@st.composite
def fuzz_walks(draw):
    """Angle flags, or the text of a walk file; with its lattice and coin dimensions."""
    if draw(st.booleans()):
        theta, alpha = (draw(mostly(st.floats(-4, 4).map(repr), BAD_ANGLE)) for _ in range(2))
        return [f"--theta={theta}", f"--alpha={alpha}"], None, 1, 2
    d = draw(st.integers(1, 2))
    if d == 1 and draw(st.booleans()):
        n, coin = 3, random_unitary(np.random.default_rng(draw(st.integers(0, 99))), 3)
    else:
        theta = draw(mostly(st.floats(0, PI / 2), st.sampled_from([0.0, PI / 2])))
        n, coin = 2, u2_coin(U2Params(theta, draw(st.floats(-PI, PI)), 0.3))
    shifts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                           min_size=n, max_size=n))
    shifts[0][0] = draw(mostly(st.just(shifts[0][0]), HUGE))
    lines = [f"dim {d}"] + ["coin " + ", ".join(format_complex(z) for z in row) for row in coin]
    lines += ["shift " + " ".join(map(str, row)) for row in shifts]
    return [], "\n".join(lines) + "\n", d, n


@st.composite
def fuzz_states(draw, d, n):
    d = draw(mostly(st.just(d), st.just(3 - d)))
    kind = draw(st.sampled_from(["local", "dist", "general"]))
    chi = mostly(unit_vectors(n).map(vector_text), BAD_VECTOR)
    if kind == "local":
        v = draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
        v[0] = draw(st.one_of(st.just(v[0]), HUGE))
        return f"local v={','.join(map(str, v))} chi={draw(chi)}"
    site = st.lists(st.integers(-32, 32), min_size=d, max_size=d)
    sites = [";".join(map(str, r)) for r in draw(st.lists(site, min_size=1, max_size=3))]
    weight = float(1 / np.sqrt(len(sites)))
    if kind == "dist":
        return f"dist {{{', '.join(f'{r}:{weight!r}' for r in sites)}}} chi={draw(chi)}"
    entries = [f"{r}:{vector_text(weight * draw(unit_vectors(n)))}" for r in sites]
    return f"general {{{', '.join(entries)}}}"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.data())
def test_fuzzed_rho_and_simulate_fail_only_with_one_error_line(data, fuzz_dir):
    flags, walk_text, d, n = data.draw(fuzz_walks())
    if walk_text is not None:
        (fuzz_dir / "walk.cfg").write_text(walk_text)
        flags = [f"--walk-file={fuzz_dir / 'walk.cfg'}"]
    state = data.draw(fuzz_states(d, n))
    if data.draw(st.sampled_from(["rho", "simulate"])) == "rho":
        grid = data.draw(st.one_of(st.none(), st.integers(1, 48), powers_of_two(47, 70)))
        argv = ["rho", *flags, f"--state={state}"]
        argv += [] if grid is None else [f"--grid-n={grid}"]
        argv += data.draw(mostly(st.just([]), st.just(["--closed-form"])))
        argv += [f"--format={data.draw(st.sampled_from(['json', 'csv']))}"]
    else:
        argv = ["simulate", *flags, f"--state={state}"]
        argv += [f"--t-max={data.draw(st.integers(0, 20))}", f"--stride={data.draw(st.integers(1, 5))}"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, walk_text, err.getvalue())
    if code == 0:
        assert err.getvalue() == "", (argv, walk_text)
    else:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, (argv, walk_text, text)
        assert out.getvalue() == "", (argv, walk_text)


@st.composite
def translated_states(draw, d, n):
    """The text of a dist or general state with spans <= 64, and of a translate within int64."""
    sites = draw(st.lists(st.lists(st.integers(-32, 32), min_size=d, max_size=d),
                          min_size=1, max_size=3, unique_by=tuple))
    offset = [
        draw(mostly(st.integers(-100, 100),
                    st.integers(-(2**63) - min(axis), 2**63 - 1 - max(axis))))
        for axis in zip(*sites)
    ]
    weight = float(1 / np.sqrt(len(sites)))
    vectors = [vector_text(weight * draw(unit_vectors(n))) for _ in sites]
    chi = draw(unit_vectors(n).map(vector_text))
    dist = draw(st.booleans())

    def text(shift):
        keys = [";".join(str(x + o) for x, o in zip(r, shift)) for r in sites]
        if dist:
            return f"dist {{{', '.join(f'{k}:{weight!r}' for k in keys)}}} chi={chi}"
        return f"general {{{', '.join(f'{k}:{v}' for k, v in zip(keys, vectors))}}}"

    return text([0] * d), text(offset)


@given(data=st.data())
def test_translated_states_give_the_same_bytes(data, fuzz_dir):
    flags, walk_text, d, n = data.draw(fuzz_walks())
    if walk_text is not None:
        (fuzz_dir / "walk.cfg").write_text(walk_text)
        flags = [f"--walk-file={fuzz_dir / 'walk.cfg'}"]
    state, moved = data.draw(translated_states(d, n))
    if data.draw(st.sampled_from(["rho", "simulate"])) == "rho":
        grid = data.draw(st.one_of(st.none(), st.integers(1, 48)))
        extra = ([] if grid is None else [f"--grid-n={grid}"])
        extra += [f"--format={data.draw(st.sampled_from(['json', 'csv']))}"]
        argv = ["rho", *flags, *extra]
    else:
        extra = [f"--t-max={data.draw(st.integers(0, 20))}", f"--stride={data.draw(st.integers(1, 5))}"]
        argv = ["simulate", *flags, *extra]
    results = []
    for text in (state, moved):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, f"--state={text}"])
        # the output names the state (CSV cfg line, JSON "state", error
        # messages); nothing else may differ
        results.append((code, *(
            f.getvalue().replace(repr(text), "STATE").replace(json.dumps(text), "STATE")
            for f in (out, err)
        )))
    assert results[0] == results[1], (argv, walk_text, state, moved)


def test_import_does_not_load_scipy():
    proc = run_process("-c", "import sys, coinwalk.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
