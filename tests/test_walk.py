import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coinwalk import (
    DimensionMismatch,
    InvalidArgument,
    NonUnitaryInput,
    U2Params,
    WalkSpec,
    build_uk,
    dispersion_gamma,
    line_walk,
    u2_coin,
)
from coinwalk.linalg import eig_unitary
from conftest import unitarity_error

PI = np.pi

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)

interior_theta = st.floats(min_value=0.05, max_value=PI / 2 - 0.05)
phase = st.floats(min_value=-PI, max_value=PI)


def test_u2_coin_identity():
    assert np.allclose(u2_coin(U2Params(0, 0, 0)), np.eye(2))


def test_u2_coin_hadamard_up_to_global_phase():
    assert np.allclose(u2_coin(U2Params(PI / 4, PI / 2, PI / 2)), 1j * HADAMARD)


def test_u2_coin_quarter_rotation():
    assert np.allclose(u2_coin(U2Params(PI / 2, 0, 0)), [[0, 1], [-1, 0]])


@given(theta=st.floats(-4, 4), alpha=phase, beta=phase)
def test_u2_coin_always_unitary(theta, alpha, beta):
    assert unitarity_error(u2_coin(U2Params(theta, alpha, beta))) <= 1e-12


def test_line_walk_layout():
    spec = line_walk(U2Params(PI / 4, PI / 2, PI / 2))
    assert spec.lattice_dim == 1 and spec.coin_dim == 2
    assert spec.shifts.tolist() == [[1], [-1]]
    assert np.allclose(spec.coin, 1j * HADAMARD)


def test_line_walk_degenerate_theta_is_still_a_valid_spec():
    spec = line_walk(U2Params(0, 0, 0))
    assert unitarity_error(spec.coin) <= 1e-12


def test_walkspec_rejects_non_unitary_coin():
    with pytest.raises(NonUnitaryInput):
        WalkSpec(lattice_dim=1, coin_dim=2, shifts=[[1], [-1]], coin=[[1, 0], [0, 2]])


def test_walkspec_rejects_wrong_shapes():
    with pytest.raises(DimensionMismatch):
        WalkSpec(lattice_dim=1, coin_dim=2, shifts=[[1], [-1]], coin=np.eye(3))
    with pytest.raises(DimensionMismatch):
        WalkSpec(lattice_dim=2, coin_dim=2, shifts=[[1], [-1]], coin=np.eye(2))


def test_walkspec_rejects_a_non_integer_shift():
    with pytest.raises(InvalidArgument, match="integer"):
        WalkSpec(1, 2, [[1.5], [-1]], HADAMARD)


def test_walkspec_rejects_non_numeric_coin_entries():
    with pytest.raises(InvalidArgument, match="coin entries must be numbers"):
        WalkSpec(1, 2, [[1], [-1]], [["a", "b"], ["c", "d"]])


@pytest.mark.parametrize(
    "shifts, coin, defect",
    [
        ([[1], [1, 2]], HADAMARD, "every shift vector must have 1 components"),
        ([[1, 0], [1]], HADAMARD, "every shift vector must have 1 components"),
        ([[1]], HADAMARD, "expected 2 shift vectors (one per coin state), got 1"),
        ([1, -1], HADAMARD, "every shift vector must have 1 components"),
        ([[1], [-1]], [[1, 0], [0]], "coin rows do not form a square 2x2 matrix"),
        ([[1], [-1]], np.ones((2, 3)), "coin rows do not form a square 2x2 matrix"),
        ([[1], [-1]], np.eye(3), "coin rows do not form a square 2x2 matrix"),
    ],
    ids=[
        "ragged-shifts", "wide-shift", "missing-shift", "flat-shifts",
        "ragged-coin", "wide-coin", "coin-of-the-wrong-size",
    ],
)
def test_walkspec_names_a_malformed_table(shifts, coin, defect):
    with pytest.raises(DimensionMismatch) as info:
        WalkSpec(1, 2, shifts, coin)
    assert str(info.value) == defect


def test_build_uk_at_zero_is_the_coin():
    spec = line_walk(U2Params(0.3, 0.1, -0.7))
    assert np.allclose(build_uk(spec, 0.0), spec.coin)


def test_build_uk_displayed_form():
    p = U2Params(0.4, 0.9, -0.2)
    spec = line_walk(p)
    k = 0.77
    expected = np.diag([np.exp(-1j * k), np.exp(1j * k)]) @ u2_coin(p)
    assert np.allclose(build_uk(spec, k), expected)


def test_build_uk_dimension_mismatch():
    spec = line_walk(U2Params(0.3, 0, 0))
    with pytest.raises(DimensionMismatch):
        build_uk(spec, [0.1, 0.2])


def test_build_uk_broadcasts_over_a_stack_of_points(rng):
    spec = WalkSpec(lattice_dim=2, coin_dim=2, shifts=[[1, 1], [-1, -1]], coin=HADAMARD)
    ks = rng.uniform(-PI, PI, size=(5, 2))
    assert np.array_equal(build_uk(spec, ks), np.stack([build_uk(spec, k) for k in ks]))
    with pytest.raises(DimensionMismatch):
        build_uk(spec, rng.uniform(-PI, PI, size=(5, 3)))


@given(theta=interior_theta, alpha=phase, beta=phase, k=phase)
def test_build_uk_unitary(theta, alpha, beta, k):
    u = build_uk(line_walk(U2Params(theta, alpha, beta)), k)
    assert unitarity_error(u) <= 1e-12


def test_dispersion_examples():
    assert dispersion_gamma(U2Params(PI / 4, PI / 2, 0.0), PI / 2) == pytest.approx(PI / 4)
    p = U2Params(0.9, 0.3, 0.0)
    assert dispersion_gamma(p, p.alpha) == pytest.approx(p.theta)
    assert dispersion_gamma(U2Params(PI / 2, 0.2, 0.0), 1.234) == pytest.approx(PI / 2)


@given(theta=interior_theta, alpha=phase, beta=phase, k=phase)
# theta = 0.7, alpha = -pi, k = 0 puts an eigenphase exactly on the first Cayley pole
@example(theta=0.7, alpha=-PI, beta=1.0, k=0.0)
def test_eigenphases_match_dispersion(theta, alpha, beta, k):
    p = U2Params(theta, alpha, beta)
    gamma = dispersion_gamma(p, k)
    phases, _, _ = eig_unitary(build_uk(line_walk(p), k))
    assert np.allclose(np.sort(phases), [-gamma, gamma], atol=1e-10)


def test_global_coin_phase_shifts_phases_but_not_projectors(rng):
    p = U2Params(0.6, -0.4, 1.1)
    spec = line_walk(p)
    phi = 0.3
    shifted = WalkSpec(
        lattice_dim=1,
        coin_dim=2,
        shifts=spec.shifts,
        coin=np.exp(1j * phi / 2) * spec.coin,
    )
    for k in rng.uniform(-PI, PI, size=5):
        phases_a, vectors_a, labels_a = eig_unitary(build_uk(spec, k))
        phases_b, vectors_b, labels_b = eig_unitary(build_uk(shifted, k))
        assert np.allclose(np.sort(phases_b), np.sort(phases_a) + phi / 2, atol=1e-12)
        assert np.array_equal(np.unique(labels_a), np.unique(labels_b))
        for g in np.unique(labels_a):
            v_a, v_b = vectors_a[:, labels_a == g], vectors_b[:, labels_b == g]
            assert np.max(np.abs(v_a @ v_a.conj().T - v_b @ v_b.conj().T)) <= 1e-12


def test_non_unit_steps_accepted():
    spec = WalkSpec(lattice_dim=1, coin_dim=2, shifts=[[2], [-2]], coin=1j * HADAMARD)
    k = 0.5
    expected = np.diag([np.exp(-2j * k), np.exp(2j * k)]) @ spec.coin
    assert np.allclose(build_uk(spec, k), expected)
