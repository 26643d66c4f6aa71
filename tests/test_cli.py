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
    c_of_k_u2,
    line_walk,
    parse_state,
    parse_walk_config,
    rho_asymptotic,
    u2_coin,
)
from coinwalk.cli import _flip_f, main
from conftest import format_complex, random_interior_params, random_unitary, walk_config_text

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
        # the formula takes no grid, so only the quadrature reports one
        assert a["grid_n"] == 4096 and "grid_n" not in b
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

    def test_closed_form_csv_names_no_grid(self, capsys):
        code, out, _ = run(
            capsys, "rho", "--theta", "pi/4", "--state", LOCAL, "--closed-form", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == f"# cfg: rho state={LOCAL!r} method=closed_form_local"

    @pytest.mark.parametrize(
        "command, state, occupied",
        [
            # the empty site once made the span 5000 > N = 4096: exit 2
            ("rho", "dist {0:1, 5000:0} chi=(1,0)", "dist {0:1} chi=(1,0)"),
            ("rho", "general {3:(0.6,0.8i), 9000:(0,0)}", "general {3:(0.6,0.8i)}"),
            # and a light cone of 2000000000010 amplitudes: exit 2
            ("simulate", "dist {0:1, 1000000000000:0} chi=(1,0)", "dist {0:1} chi=(1,0)"),
        ],
        ids=["rho-dist", "rho-general", "simulate-dist"],
    )
    def test_sites_with_zero_amplitude_give_the_occupied_sites_bytes(
        self, capsys, command, state, occupied
    ):
        extra = ["--t-max", "2"] if command == "simulate" else []
        outs = []
        for text in (state, occupied):
            code, out, err = run(capsys, command, "--theta", "pi/4", "--state", text, *extra)
            assert code == 0, err
            outs.append(out.replace(json.dumps(text), "STATE").replace(repr(text), "STATE"))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_a_listed_zero_site_changes_no_byte(self, capsys, position):
        # BLAS sums a strided vector in groups of four, so a zero site counted in
        # the renormalizing norm can move the last digits of cpe
        sites = [
            "1:(0.57735026918962584+0i, 0+0i)",
            "-1:(0+0i, 0+0.57735026918962584i)",
            "2:(0.32991443953692906+0.082478609884232265i, 0.32991443953692906+0.32991443953692906i)",
        ]
        listed = list(sites)
        listed.insert({"first": 0, "middle": 2, "last": 3}[position], "0:(0+0i, 0+0i)")
        outs = []
        for entries in (sites, listed):
            text = "general {" + ", ".join(entries) + "}"
            code, out, err = run(capsys, "rho", "--theta=1.0", "--state", text)
            assert code == 0, err
            outs.append(out.replace(json.dumps(text), "STATE"))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("theta", ["-pi/4", "-2.0", "4.0", "-5pi/6"])
    def test_closed_form_with_a_negative_sine_matches_quadrature(self, capsys, theta):
        # the formula assumes sin(theta) > 0; theta -> -theta, beta -> beta + pi is the same coin
        common = ["rho", f"--theta={theta}", "--alpha", "0.3", "--state", LOCAL]
        code_a, out_a, _ = run(capsys, *common)
        code_b, out_b, err = run(capsys, *common, "--closed-form")
        assert code_a == code_b == 0, err
        a, b = json.loads(out_a), json.loads(out_b)
        for key in ("rho_re", "rho_im", "eigenvalues"):
            assert np.max(np.abs(np.array(a[key]) - np.array(b[key]))) <= 1e-12
        assert abs(a["cpe"] - b["cpe"]) <= 1e-12

    def test_closed_form_at_minus_half_pi_warns_nothing(self):
        # sin(theta) + 1 = 0 here: the formula divides by it unless the angle is folded
        proc = run_process(
            "-W", "error", "-m", "coinwalk.cli", "rho", "--theta=-pi/2", "--state", LOCAL,
            "--closed-form",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["cpe"] == pytest.approx(1.0, abs=1e-12)

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


class TestGridSpan:
    @pytest.mark.parametrize(
        "state, grid_n, span",
        [
            ("dist {0:0.6, 1:0.8} chi=(1,0)", "1", 1),  # exited 4 on a trace check
            ("dist {0:0.6, 3:0.8} chi=(1,0)", "2", 3),  # exited 0 with an aliased I/2
            ("dist {0:0.7071, 66:0.7071} chi=(1,0)", "64", 66),  # exited 0, 0.12 off
        ],
    )
    def test_grid_not_wider_than_the_state_exits_2(self, capsys, state, grid_n, span):
        code, out, err = run(capsys, "rho", "--theta", "pi/4", "--state", state, "--grid-n", grid_n)
        assert code == 2 and out == ""
        assert err == (
            f"error: the state's positions are {span} apart on an axis; a grid of"
            f" N = {grid_n} points per axis aliases sites N apart, so N must exceed {span}\n"
        )

    def test_span_of_grid_n_minus_one_exits_0(self, capsys):
        state = "dist {0:0.6, 1:0.8} chi=(1,0)"
        code, out, _ = run(capsys, "rho", "--theta", "pi/4", "--state", state, "--grid-n", "2")
        assert code == 0
        assert json.loads(out)["grid_n"] == 2


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
            "verify", "--draws", "10", "--t-max", "600",
        )
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_negative_control_fails(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--draws", "10", "--t-max", "300",
            "--inject-f-sign-error",
        )
        assert code == 1
        assert "FAIL" in out

    def test_takes_four_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        options = {word for word in capsys.readouterr().out.split() if word.startswith("--")}
        assert options == {"--help", "--draws", "--t-max", "--seed", "--inject-f-sign-error"}

    @pytest.mark.parametrize("option", [["--grid-n", "64"], ["--burn-in", "5"]])
    def test_removed_options_exit_2(self, option):
        proc = run_process("-m", "coinwalk.cli", "verify", *option)
        assert proc.returncode == 2
        assert proc.stderr.endswith(f"error: unrecognized arguments: {' '.join(option)}\n")

    def test_negative_control_negates_exactly_the_f_entries(self, rng):
        # (Z (x) Z) C (Z (x) Z): the F entries are those whose row and column
        # have opposite parity in the number of 1s of the index pair
        f_entries = np.zeros((4, 4), dtype=bool)
        f_entries[[0, 0, 1, 2, 1, 2, 3, 3], [1, 2, 0, 0, 3, 3, 1, 2]] = True
        for _ in range(200):
            c = c_of_k_u2(random_interior_params(rng), rng.uniform(-PI, PI))
            flipped = _flip_f(c)
            assert np.all(c[f_entries] != 0)
            assert np.array_equal(flipped[f_entries], -c[f_entries])
            assert np.array_equal(flipped[~f_entries], c[~f_entries])


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rho", "--theta", "pi/4", "--grid-n", "0", "--state", LOCAL],
            ["simulate", "--state", LOCAL, "--t-max", "4", "--stride", "0"],
            ["simulate", "--state", LOCAL, "--t-max", "-1"],
            ["rho", "--walk-file", "{tmp}/missing.cfg", "--state", LOCAL],
            ["rho", "--walk-file", "{tmp}/latin1.cfg", "--state", LOCAL],
            ["rho", "--theta", "pi/4", "--state", LOCAL, "--output", "{tmp}/missing/rho.json"],
            ["fig", "cpe-3d", "--alpha-points", "1"],
            ["simulate", "--theta", "0.3", "--state", "local v=0 chi=(1,0,0)", "--t-max", "3"],
            ["simulate", "--theta", "0.3", "--state", "local v=0,0 chi=(1,0)", "--t-max", "2"],
            ["verify", "--seed", "-1"],
        ],
        ids=[
            "grid-n-zero", "stride-zero", "negative-t-max",
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
            ["rho", "--theta", "pi/4", "--state", "dist {1:0, 1:1} chi=(1,0)"],
            ["rho", "--theta", "pi/4", "--state", LOCAL, "--closed-form", "--grid-n", "64"],
        ],
        ids=["rho-grid-too-large", "local-empty-position",
             "dist-empty-position", "theta-nan", "theta-inf", "alpha-overflow", "angle-div-zero",
             "chi-nan", "chi-overflow", "walk-file-nan-coin", "rho-mixed-position-lengths",
             "simulate-mixed-position-lengths", "simulate-series-too-large",
             "position-beyond-int64", "shift-beyond-int64", "grid-n-2-60", "grid-n-2-70",
             "simulate-span-beyond-int64", "simulate-shifts-2-62", "rho-span-beyond-int64",
             "rho-repeated-position", "closed-form-with-grid-n"],
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

    # theta = 0 is refused (exit 3) only after the grid is checked against the
    # state's span (exit 2), and before a node of a 10**11-node grid is allocated
    @pytest.mark.parametrize(
        "grid_n, code, message",
        [("2", 2, "aliases sites N apart"), ("100000000000", 3, "bands cross")],
        ids=["span-before-coin", "coin-before-nodes"],
    )
    def test_quadrature_refusals_keep_their_order(self, capsys, grid_n, code, message):
        state = "dist {0:0.6, 3:0.8} chi=(1,0)"
        got, out, err = run(capsys, "rho", "--theta", "0", "--state", state, "--grid-n", grid_n)
        assert got == code, err
        assert out == "" and message in err

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
    """The text of a dist or general state with spans <= 64, and of a translate within int64.

    Both texts may also end in one unoccupied site, with zero amplitude, each at
    its own place up to 96 sites from the origin of its text: it must change no
    byte. It ends both texts, so the literals normalize alike.
    """
    sites = draw(st.lists(st.lists(st.integers(-32, 32), min_size=d, max_size=d),
                          min_size=1, max_size=3, unique_by=tuple))
    offset = [
        draw(mostly(st.integers(-100, 100),
                    st.integers(-(2**63) - min(axis), 2**63 - 1 - max(axis))))
        for axis in zip(*sites)
    ]
    weight = float(1 / np.sqrt(len(sites)))
    vectors = [weight * draw(unit_vectors(n)) for _ in sites]
    chi = draw(unit_vectors(n).map(vector_text))
    dist = draw(st.booleans())
    entries = [(r, weight if dist else vector_text(v)) for r, v in zip(sites, vectors)]
    zero = 0.0 if dist else vector_text(np.zeros(vectors[0].size))

    def unoccupied(shift):
        # a site up to 96 from the origin of the text, in int64 and off the occupied sites
        return st.tuples(*(
            st.integers(max(-96, -(2**63) - o), min(96, 2**63 - 1 - o)) for o in shift
        )).filter(lambda r: list(r) not in sites)

    def text(shift, empty):
        listed = entries if empty is None else [*entries, (empty, zero)]
        keys = [";".join(str(x + o) for x, o in zip(r, shift)) for r, _ in listed]
        body = ", ".join(f"{k}:{v!r}" if dist else f"{k}:{v}" for k, (_, v) in zip(keys, listed))
        return f"dist {{{body}}} chi={chi}" if dist else f"general {{{body}}}"

    if draw(st.booleans()):
        return text([0] * d, None), text(offset, None)
    return text([0] * d, draw(unoccupied([0] * d))), text(offset, draw(unoccupied(offset)))


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


@given(data=st.data())
def test_fuzzed_verify_and_fig_exit_as_documented(data):
    if data.draw(st.booleans()):
        argv = ["verify", f"--draws={data.draw(st.integers(0, 3))}",
                f"--t-max={data.draw(st.integers(1, 60))}",
                f"--seed={data.draw(st.integers(0, 2**64))}"]
        argv += data.draw(mostly(st.just([]), st.just(["--inject-f-sign-error"])))
    else:
        which = data.draw(st.sampled_from(["cpe-compare", "cpe-3d", "cpe-entangled"]))
        points = data.draw(st.integers(1, 9)), data.draw(st.integers(2, 5))
        argv = ["fig", which, f"--theta-points={points[0]}", f"--alpha-points={points[1]}"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == "", (argv, err.getvalue())
    lines = out.getvalue().splitlines()
    if argv[0] == "verify":
        # exit 1 means a check failed, and nothing else does
        statuses = [line.split()[-1] for line in lines[1:]]
        assert len(statuses) == 3 and set(statuses) <= {"PASS", "FAIL"}, (argv, lines)
        assert code == (1 if "FAIL" in statuses else 0), (argv, lines)
    else:
        assert code == 0, argv
        assert lines[0].startswith("# cfg: fig ")
        header, rows = lines[1].split(","), [list(map(float, r.split(","))) for r in lines[2:]]
        assert len(rows) == points[0] * (points[1] if which == "cpe-3d" else 1), argv
        cpe_columns = [i for i, name in enumerate(header) if name.startswith("cpe")]
        assert cpe_columns and all(0 <= row[i] <= 1 for row in rows for i in cpe_columns), argv


def test_import_does_not_load_scipy():
    proc = run_process("-c", "import sys, coinwalk.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
