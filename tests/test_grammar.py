import numpy as np
import pytest

from coinwalk import (
    DistributedState,
    FormatError,
    GeneralState,
    LocalState,
    line_walk,
    parse_angle,
    parse_complex,
    parse_state,
    parse_walk_config,
    U2Params,
)
from conftest import format_complex, walk_config_text

INV2 = 1 / np.sqrt(2)


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1 + 0j),
            ("-2.5", -2.5 + 0j),
            ("i", 1j),
            ("-i", -1j),
            ("2i", 2j),
            ("1+i", 1 + 1j),
            ("1-2i", 1 - 2j),
            ("0.5+0.5i", 0.5 + 0.5j),
            (" 3 + 4i ", 3 + 4j),
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize(
        "text", ["", "abc", "1+", "i2", "1+2", "nan", "inf", "1e400", "1+nani"]
    )
    def test_rejects(self, text):
        with pytest.raises(FormatError):
            parse_complex(text)

    def test_roundtrip(self, rng):
        for _ in range(50):
            z = complex(rng.standard_normal(), rng.standard_normal())
            assert parse_complex(format_complex(z)) == z


class TestAngleLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.785", 0.785),
            ("-1.5", -1.5),
            ("pi", np.pi),
            ("pi/4", np.pi / 4),
            ("3pi/4", 3 * np.pi / 4),
            ("-pi/2", -np.pi / 2),
            ("0.5pi", np.pi / 2),
            ("PI/2", np.pi / 2),
            ("2*pi", 2 * np.pi),
        ],
    )
    def test_parse(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize(
        "text", ["", "deg45", "pi/", "pie", "nan", "inf", "-inf", "1e400", "pi/0"]
    )
    def test_rejects(self, text):
        with pytest.raises(FormatError):
            parse_angle(text)


class TestWalkConfig:
    HADAMARD_CFG = """
# standard balanced walk on the line
dim 1
coin 0.7071067811865476, 0.7071067811865476
coin 0.7071067811865476, -0.7071067811865476
shift 1
shift -1
"""

    def test_parse(self):
        spec = parse_walk_config(self.HADAMARD_CFG)
        assert spec.lattice_dim == 1 and spec.coin_dim == 2
        assert spec.shifts.tolist() == [[1], [-1]]
        assert np.allclose(spec.coin, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_roundtrip(self):
        spec = line_walk(U2Params(0.6, 0.2, -0.9))
        again = parse_walk_config(walk_config_text(spec))
        assert np.max(np.abs(again.coin - spec.coin)) <= 1e-15
        assert again.shifts.tolist() == spec.shifts.tolist()

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda t: t.replace("dim 1\n", ""),  # no dim
            lambda t: t.replace("shift -1\n", ""),  # missing shift row
            lambda t: t.replace("shift 1", "shift 1 0"),  # wrong shift width
            lambda t: t.replace("coin 0.7071067811865476, -", "coin -"),  # ragged
            lambda t: t.replace("dim 1", "dims 1"),  # unknown key
            lambda t: t.replace("-0.7071067811865476", "-0.9"),  # non-unitary
            lambda t: t.replace("dim 1\n", "dim 2\n") + "dim 1\n",  # repeated dim
        ],
    )
    def test_rejects_malformed(self, mutation):
        with pytest.raises(FormatError):
            parse_walk_config(mutation(self.HADAMARD_CFG))

    def test_names_the_line_of_a_repeated_dim(self):
        with pytest.raises(FormatError, match="^line 8: repeated dim$"):
            parse_walk_config(self.HADAMARD_CFG + "dim 1\n")


class TestStateGrammar:
    def test_local(self):
        s = parse_state("local v=0 chi=(1,0)")
        assert isinstance(s, LocalState)
        assert s.position == (0,) and np.allclose(s.chi, [1, 0])

    def test_local_complex_chi(self):
        s = parse_state("local v=3 chi=(0.7071067811865476, 0.7071067811865476i)")
        assert np.allclose(s.chi, [INV2, 1j * INV2])

    def test_dist_renormalizes_rounded_literals(self):
        s = parse_state("dist {-1:0.7071, 1:0.7071} chi=(1,0)")
        assert isinstance(s, DistributedState)
        total = sum(abs(a) ** 2 for a in s.amplitudes.values())
        assert total == pytest.approx(1.0, abs=1e-14)
        assert set(s.amplitudes) == {(-1,), (1,)}

    def test_general(self):
        s = parse_state("general {-1:(0.7071,0), 1:(0,0.7071)}")
        assert isinstance(s, GeneralState)
        assert np.allclose(s.amplitudes[(-1,)], [INV2, 0])
        assert np.allclose(s.amplitudes[(1,)], [0, INV2])

    @pytest.mark.parametrize(
        "text",
        [
            "local v=0",  # missing chi
            "local v=0 chi=(1,1)",  # far from normalized
            "dist {-1:0.9, 1:0.9} chi=(1,0)",  # amplitudes far from unit norm
            "general {-1:(1,0), 1:(1,0)}",  # total norm sqrt(2)
            "ring v=0 chi=(1,0)",  # unknown kind
            "dist {-1 0.7071} chi=(1,0)",  # missing colon
            "local v=, chi=(1,0)",  # empty position
            "dist {:1} chi=(1,0)",  # empty map-entry position
            "local v=0 chi=(nan,0)",  # non-finite amplitude
            "dist {-1:inf, 1:0.7071} chi=(1,0)",  # non-finite position amplitude
            "dist {0:0.7071, 0;0:0.7071} chi=(1,0)",  # positions of mixed length
            "general {0:(0.7071,0), 1;2:(0,0.7071)}",  # positions of mixed length
            "general {0:(0.6,0), 1:(0,0,0.8)}",  # coin vectors of mixed dimension
            "dist {-1:0.7071,, 1:0.7071} chi=(1,0)",  # empty map entry
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(FormatError):
            parse_state(text)

    @pytest.mark.parametrize(
        "text, position",
        [
            ("dist {1:0, 1:1} chi=(1,0)", "1"),  # was read as {1:1}
            ("dist {1:0.6, 1:0.8} chi=(1,0)", "1"),  # was "not normalized"
            ("dist {0;2:0.6, 1;1:0, 0 2:0.8} chi=(1,0)", "0;2"),
            ("general {0:(1,0), 0:(0,0)}", "0"),  # was "not normalized"
            ("general {-3:(0.6,0), 4:(0,0.8), -03:(0,0.8)}", "-3"),
        ],
    )
    def test_rejects_a_repeated_position(self, text, position):
        with pytest.raises(FormatError, match=f"position {position} is repeated"):
            parse_state(text)

    def test_trailing_comma_in_map(self):
        s = parse_state("dist {-1:0.7071, 1:0.7071,} chi=(1,0)")
        assert s.amplitudes == parse_state("dist {-1:0.7071, 1:0.7071} chi=(1,0)").amplitudes

    def test_two_dimensional_positions(self):
        s = parse_state("local v=1,-2 chi=(1,0)")
        assert s.position == (1, -2)
