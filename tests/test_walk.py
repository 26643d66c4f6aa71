import sys
import threading
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coinwalk import (
    DistributedState,
    InvalidArgument,
    QuadratureGrid,
    U2Params,
    WalkSpec,
    build_uk,
    c_local,
    characteristic_at_k,
    dispersion_gamma,
    line_walk,
    rho_asymptotic,
    u2_coin,
    walk,
)
from coinwalk.characteristic import characteristic_stack
from coinwalk.linalg import _FIRST_SHIFT, eig_unitary
from coinwalk.walk import _shift_phases
from conftest import random_unitary, same_bits, unitarity_error

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
    with pytest.raises(InvalidArgument, match="coin is not unitary within 1e-10"):
        WalkSpec(lattice_dim=1, coin_dim=2, shifts=[[1], [-1]], coin=[[1, 0], [0, 2]])


def test_walkspec_rejects_wrong_shapes():
    with pytest.raises(InvalidArgument, match="coin rows do not form a square 2x2 matrix"):
        WalkSpec(lattice_dim=1, coin_dim=2, shifts=[[1], [-1]], coin=np.eye(3))
    with pytest.raises(InvalidArgument, match="every shift vector must have 2 components"):
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
    with pytest.raises(InvalidArgument) as info:
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
    with pytest.raises(InvalidArgument, match=r"k has shape \(2,\), walk lattice_dim is 1"):
        build_uk(spec, [0.1, 0.2])


def test_build_uk_broadcasts_over_a_stack_of_points(rng):
    spec = WalkSpec(lattice_dim=2, coin_dim=2, shifts=[[1, 1], [-1, -1]], coin=HADAMARD)
    ks = rng.uniform(-PI, PI, size=(5, 2))
    assert np.array_equal(build_uk(spec, ks), np.stack([build_uk(spec, k) for k in ks]))
    with pytest.raises(InvalidArgument, match=r"k has shape \(5, 3\), walk lattice_dim is 2"):
        build_uk(spec, rng.uniform(-PI, PI, size=(5, 3)))


SHIFT_TABLES = pytest.mark.parametrize(
    "shifts",
    [
        [[1], [-1]],
        [[1, 0], [-1, 0], [0, 1], [0, -1]],
        [[2], [-2]],
        [[1], [1], [-1]],
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
        [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]],
    ],
    ids=["line", "square", "shifts-2-minus-2", "rank-2-repro", "tetrahedral", "hexagonal"],
)


def even_grid(d: int, points: int = 12) -> np.ndarray:
    """The nodes of a grid of an even number of points per axis, which holds k = 0 and k = -pi."""
    axis = -PI + 2 * PI * np.arange(points) / points
    return np.stack([g.ravel() for g in np.meshgrid(*[axis] * d, indexing="ij")], axis=1)


@SHIFT_TABLES
def test_build_uk_is_the_phase_product_to_the_bit(shifts, rng):
    # a shift that negates an earlier one takes the conjugate of its phases,
    # and a zero argument keeps the sign of exp's zero imaginary part; the
    # identity coin with -0.0 parts carries that sign into U_k
    n, d = np.shape(shifts)
    grid = even_grid(d)
    for coin in (random_unitary(rng, n), np.conj(np.eye(n, dtype=complex))):
        spec = WalkSpec(d, n, shifts, coin)
        for ks in (grid, rng.uniform(-PI, PI, size=(50, d)), -grid):
            phase = np.exp(-1j * (spec.shifts @ ks.T))
            want = (phase[:, None, :] * spec.coin[:, :, None]).transpose(2, 0, 1)
            got = build_uk(spec, ks)
            assert same_bits(got, want) and got.flags.c_contiguous


@pytest.fixture
def memo(monkeypatch):
    """An empty phase memo for one test; the process's own is restored after it."""
    fresh = OrderedDict()
    monkeypatch.setattr(walk, "_phase_memo", fresh)
    return fresh


def phase_formula(shifts, ks) -> np.ndarray:
    return np.exp(-1j * (shifts @ ks.T))


@SHIFT_TABLES
def test_phase_table_is_the_formula_cold_and_warm(shifts, memo, rng):
    shifts = np.array(shifts)
    d = shifts.shape[1]
    grid = even_grid(d, 6)  # small enough to keep in 3-d
    zeros = np.zeros((3, d))
    for ks in (grid, -grid, rng.uniform(-PI, PI, size=(50, d)), zeros, -zeros):
        cold = _shift_phases(shifts, ks)
        assert _shift_phases(shifts, ks.copy()) is cold
        assert same_bits(cold, phase_formula(shifts, ks))
    # -0.0 == 0.0, but the memo keys on bytes: the two zero grids are two entries
    assert len(memo) == 5


def test_phase_table_is_read_only(memo):
    shifts = np.array([[1], [-1]])
    kept = _shift_phases(shifts, np.zeros((4, 1)))
    large = _shift_phases(shifts, np.zeros((4096, 1)))  # 128 KiB of phases: not kept
    assert len(memo) == 1
    for table in (kept, large):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 2.0


def test_phase_memo_has_no_stale_hits(memo):
    nodes = -PI + 2 * PI * np.arange(4096) / 4096
    line, square = np.array([[1], [-1]]), np.array([[1, 0], [0, 1]])
    cases = [
        (line, nodes[:2048].reshape(2048, 1)),
        (np.array([[1, -1]]), nodes[:2048].reshape(1024, 2)),  # the same bytes, other shapes
        (line[::-1], nodes[:2048].reshape(2048, 1)),  # reordered rows
        (square, nodes[:2048].reshape(1024, 2)),
        (-square, nodes[:2048].reshape(1024, 2)),  # mirrored rows: the conjugate phases
        (line, nodes[:1024, None]),  # two equal-sized blocks at different offsets
        (line, nodes[1024:2048, None]),
    ]
    for shifts, ks in cases * 2:  # cold, then warm
        assert same_bits(_shift_phases(shifts, ks), phase_formula(shifts, ks))
    assert len(memo) == len(cases)


def test_writing_into_ks_after_a_call_changes_no_later_table(memo):
    shifts = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
    ks = even_grid(2)
    kept, table = ks.copy(), _shift_phases(shifts, ks).copy()
    ks[len(ks) // 2] += 0.25  # one node inside the block
    assert same_bits(_shift_phases(shifts, ks), phase_formula(shifts, ks))
    assert same_bits(_shift_phases(shifts, kept), table)


def test_phase_memo_retains_at_most_its_bound(memo, rng):
    # 41 line grids whose phases and keys take 78-94 KiB each, more than the
    # memo keeps, then a 2x2 walk on the default 256^2 grid, whose two blocks
    # of 16384 nodes take 768 KiB each and are not kept
    line = line_walk(U2Params(0.7, 0.1, 0.2))
    planar = WalkSpec(2, 2, [[1, 0], [0, 1]], random_unitary(rng, 2))
    grids = [QuadratureGrid(n, 1) for n in range(4000, 4801, 20)]
    tracemalloc.start()
    try:
        for grid in grids:
            c_local(line, grid)
            rho_asymptotic(line, DistributedState({-1: 0.6, 1: 0.8}, [1, 0]), grid)
        c_local(planar)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # the memo's arrays and their Python objects are all allocated in walk.py
    retained = sum(
        t.size for t in snapshot.filter_traces([tracemalloc.Filter(True, walk.__file__)]).traces
    )
    assert len(memo) == walk._PHASE_MEMO_ENTRIES
    assert 0.9 * walk._PHASE_MEMO_BYTES < retained
    assert retained <= walk._PHASE_MEMO_BYTES + walk._PHASE_MEMO_ENTRIES * 2**10


def test_threads_share_the_memo(memo):
    # 24 grids through a 16-entry memo from 6 threads switching every 1 us:
    # lookups, insertions and evictions interleave
    shifts = np.array([[1], [-1]])
    grids = [np.linspace(-PI, PI, 64 + i, endpoint=False)[:, None] for i in range(24)]
    want = [phase_formula(shifts, ks) for ks in grids]
    errors = []

    def worker(seed):
        try:
            for i in np.random.default_rng(seed).permutation(20 * len(grids)) % len(grids):
                if not same_bits(_shift_phases(shifts, grids[i]), want[i]):
                    errors.append(i)
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(memo) <= walk._PHASE_MEMO_ENTRIES


@pytest.mark.parametrize("k", [np.inf, -np.inf, np.nan])
def test_a_k_that_is_not_finite_is_bad_input(k, memo):
    # refused before shifts @ ks.T, whose 0 * inf warns and would put NaN in the memo
    line = line_walk(U2Params(0.7, 0.1, 0.2))
    square = WalkSpec(2, 4, [[1, 0], [-1, 0], [0, 1], [0, -1]], np.eye(4))
    for refused in (
        lambda: build_uk(line, k),
        lambda: build_uk(square, [[0.1, 0.2], [0.3, k]]),
        lambda: characteristic_at_k(line, k),
        lambda: characteristic_stack(square, np.array([[k, 0.0]])),
    ):
        with pytest.raises(InvalidArgument, match="k must be finite"):
            refused()
    assert not memo


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
# theta = 0.7, alpha = -pi, k = 0 gives the phases +-(pi - 0.7): times exp(1j a_0), 2 a_0 - pi
# and pi, which sum to 2 a_0 exactly
@example(theta=0.7, alpha=-PI, beta=1.0, k=0.0)
def test_eigenphases_match_dispersion(theta, alpha, beta, k):
    p = U2Params(theta, alpha, beta)
    gamma = dispersion_gamma(p, k)
    phases, _, _ = eig_unitary(build_uk(line_walk(p), k))
    assert np.allclose(np.sort(phases), [-gamma, gamma], atol=1e-10)
    # +-gamma sum to 0, the collision point of no shift; times exp(1j a_0) they are symmetric
    # about the first shift a_0, on its collision point, and are solved at the next shift
    phases, _, _ = eig_unitary(np.exp(1j * _FIRST_SHIFT) * build_uk(line_walk(p), k))
    want = np.exp(1j * (_FIRST_SHIFT + np.array([-gamma, gamma])))
    chord = np.abs(np.exp(1j * phases)[:, None] - want[None, :])
    assert max(np.min(chord, axis=0).max(), np.min(chord, axis=1).max()) <= 1e-10


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
