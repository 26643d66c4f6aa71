import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coinwalk import (
    DegenerateDispersion,
    DistributedState,
    InvalidArgument,
    LocalState,
    QuadratureGrid,
    U2Params,
    WalkSpec,
    c_local,
    c_local_u2,
    c_of_k_u2,
    characteristic_at_k,
    line_walk,
    rho_asymptotic,
    rho_distributed_example_closed,
    rho_from_characteristic,
    rho_local_closed,
)
from coinwalk.characteristic import characteristic_stack
from conftest import partial_trace, random_interior_params, random_unitary, swap_matrix
from test_linalg import HADAMARD_C_AT_HALF_PI

PI = np.pi
INV2 = 1 / np.sqrt(2)
HADAMARD_PARAMS = U2Params(PI / 4, PI / 2, PI / 2)

interior_theta = st.floats(min_value=0.05, max_value=PI / 2 - 0.05)
phase = st.floats(min_value=-PI, max_value=PI)


class TestQuadratureGrid:
    def test_weights_sum_to_one(self):
        g = QuadratureGrid(128, 2)
        assert g.node_count == 128 * 128
        assert g.nodes.shape == (g.node_count, 2)

    def test_nodes_exclude_duplicate_endpoint(self):
        g = QuadratureGrid(8, 1)
        nodes = g.nodes[:, 0]
        assert nodes[0] == pytest.approx(-PI)
        assert nodes[-1] < PI

    def test_defaults(self):
        assert QuadratureGrid.default(1).points_per_axis == 4096
        assert QuadratureGrid.default(2).points_per_axis == 256

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidArgument):
            QuadratureGrid(0, 1)

    @pytest.mark.parametrize("size, dim", [(10.5, 1), (16, 1.5), ("16", 1)])
    def test_rejects_a_non_integer_size(self, size, dim):
        with pytest.raises(InvalidArgument, match="integer"):
            QuadratureGrid(size, dim)


class TestPointwise:
    def test_hadamard_at_half_pi_closed(self):
        c = c_of_k_u2(HADAMARD_PARAMS, PI / 2)
        assert np.max(np.abs(c - HADAMARD_C_AT_HALF_PI)) <= 1e-14

    def test_hadamard_at_half_pi_numeric(self):
        c = characteristic_at_k(line_walk(HADAMARD_PARAMS), PI / 2)
        assert np.max(np.abs(c - HADAMARD_C_AT_HALF_PI)) <= 1e-12

    def test_diagonal_coin(self):
        coin = np.diag([np.exp(0.3j), np.exp(-0.9j)])
        spec = WalkSpec(lattice_dim=1, coin_dim=2, shifts=[[1], [-1]], coin=coin)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 1.0
        for k in (0.123, -2.5):
            c = characteristic_at_k(spec, k)
            assert np.max(np.abs(c - expected)) <= 1e-12

    def test_partial_traces_are_identity(self, rng):
        for _ in range(10):
            p = random_interior_params(rng)
            c = characteristic_at_k(line_walk(p), rng.uniform(-PI, PI))
            assert np.max(np.abs(partial_trace(c, "first") - np.eye(2))) <= 1e-10
            assert np.max(np.abs(partial_trace(c, "second") - np.eye(2))) <= 1e-10

    def test_closed_form_matches_numeric_on_random_draws(self, rng):
        worst = 0.0
        for _ in range(100):
            p = random_interior_params(rng)
            k = rng.uniform(-PI, PI)
            diff = c_of_k_u2(p, k) - characteristic_at_k(line_walk(p), k)
            worst = max(worst, float(np.max(np.abs(diff))))
        assert worst <= 1e-10

    def test_closed_form_at_k_equals_alpha(self):
        p = U2Params(0.7, 0.4, -1.0)
        c = c_of_k_u2(p, p.alpha)
        ell = c[1, 1].real
        assert ell == pytest.approx(0.5)
        assert c[1, 0] == pytest.approx(0.0)  # F vanishes at k = alpha
        assert c[3, 0] == pytest.approx(-0.5 * np.exp(2j * (p.alpha - p.beta)))

    def test_degenerate_dispersion_raises(self):
        with pytest.raises(DegenerateDispersion):
            c_of_k_u2(U2Params(0.0, 0.0, 0.0), 0.0)

    @given(theta=interior_theta, alpha=phase, beta=phase, k=phase)
    # an eigenphase within ~1e-12 of the first Cayley pole
    @example(theta=0.7, alpha=-3.1415926535897927, beta=0.6953125, k=1e-12)
    def test_structural_invariants(self, theta, alpha, beta, k):
        c = characteristic_at_k(line_walk(U2Params(theta, alpha, beta)), k)
        assert np.max(np.abs(c - c.conj().T)) <= 1e-10
        s = swap_matrix(2)
        assert np.max(np.abs(s @ c @ s - c)) <= 1e-10
        assert np.max(np.abs(c)) <= 1 + 1e-12
        assert np.trace(c).real == pytest.approx(2.0, abs=1e-8)


class TestBatchedStack:
    @pytest.mark.parametrize(
        "walk", ["grover-2d", "haar-3", "haar-6-3d", "haar-2", "haar-2-2d", "merged-2"]
    )
    def test_matches_per_node_route(self, walk, rng):
        # the 2-d Grover walk has flat bands and merged eigenspaces at many nodes;
        # 2x2 coins take the closed form (I (x) I + D (x) D) / 2
        if walk == "grover-2d":
            coin = np.full((4, 4), 0.5) - np.eye(4)
            spec = WalkSpec(2, 4, [[1, 0], [-1, 0], [0, 1], [0, -1]], coin)
            ks = QuadratureGrid(8, 2).nodes
        elif walk == "haar-3":
            spec = WalkSpec(1, 3, [[1], [0], [-1]], random_unitary(rng, 3))
            ks = QuadratureGrid(32, 1).nodes
        elif walk == "haar-6-3d":
            shifts = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
            spec = WalkSpec(3, 6, shifts, random_unitary(rng, 6))
            ks = QuadratureGrid(4, 3).nodes
        elif walk == "haar-2":
            spec = WalkSpec(1, 2, [[1], [-1]], random_unitary(rng, 2))
            ks = QuadratureGrid(64, 1).nodes
        elif walk == "haar-2-2d":
            spec = WalkSpec(2, 2, [[1, 2], [-1, 0]], random_unitary(rng, 2))
            ks = QuadratureGrid(8, 2).nodes
        else:  # a band gap of ~2e-11 at k = 0 and k = -pi: one eigenspace at those nodes
            spec = line_walk(U2Params(1e-11, 0.0, 0.0))
            ks = QuadratureGrid(64, 1).nodes
        want = np.stack([characteristic_at_k(spec, k) for k in ks])
        got = characteristic_stack(spec, ks)
        if walk == "merged-2":
            assert np.all(got == np.eye(4), axis=(1, 2)).sum() == 2
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("theta", [1e-11, 1e-6, 1e-4])
    def test_near_pauli_coin_matches_per_node_route(self, theta):
        # the band gap at k = alpha (mod pi) is ~2 theta: merged below 1e-9,
        # ill-conditioned but resolved just above it
        p = U2Params(theta, 0.3, 0.1)
        near = [[p.alpha], [p.alpha + 1e-6], [p.alpha - PI]]
        ks = np.concatenate([QuadratureGrid(64).nodes, near])
        want = np.stack([characteristic_at_k(line_walk(p), k) for k in ks])
        assert np.max(np.abs(characteristic_stack(line_walk(p), ks) - want)) <= 1e-10


class TestIntegratedLocal:
    def test_closed_form_frozen_values(self):
        # theta = pi/4, alpha = beta: f and g evaluated by direct substitution
        c = c_local_u2(U2Params(PI / 4, 0.3, 0.3))
        assert c[1, 0] == pytest.approx(0.29289321881345254 / 2)
        assert c[3, 0] == pytest.approx(-0.12132034355964258 / 2)
        assert np.allclose(
            np.diag(c).real,
            [0.6464466094067263, 0.35355339059327373, 0.35355339059327373, 0.6464466094067263],
        )

    def test_quadrature_matches_closed_form(self):
        grid = QuadratureGrid(4096, 1)
        diff = c_local(line_walk(HADAMARD_PARAMS), grid) - c_local_u2(HADAMARD_PARAMS)
        assert np.max(np.abs(diff)) <= 1e-8

    def test_first_diagonal_entry(self, rng):
        grid = QuadratureGrid(2048, 1)
        for _ in range(5):
            p = random_interior_params(rng)
            c = c_local(line_walk(p), grid)
            assert c[0, 0].real == pytest.approx(1 - np.sin(p.theta) / 2, abs=1e-8)

    def test_trace_is_coin_dim(self, rng):
        grid = QuadratureGrid(1024, 1)
        p = random_interior_params(rng)
        c = c_local(line_walk(p), grid)
        assert np.trace(c).real == pytest.approx(2.0, abs=1e-8)

    def test_depends_on_phase_difference_only(self, rng):
        p = random_interior_params(rng)
        delta = 0.83
        shifted = U2Params(p.theta, p.alpha + delta, p.beta + delta)
        closed = c_local_u2(p) - c_local_u2(shifted)
        assert np.max(np.abs(closed)) <= 1e-12
        grid = QuadratureGrid(2048, 1)
        numeric = c_local(line_walk(p), grid) - c_local(line_walk(shifted), grid)
        assert np.max(np.abs(numeric)) <= 1e-8

    def test_quadrature_converges(self):
        p = U2Params(0.3, 0.5, -0.2)
        target = c_local_u2(p)
        residuals = [
            float(np.max(np.abs(c_local(line_walk(p), QuadratureGrid(n, 1)) - target)))
            for n in (4, 8, 16, 32, 64)
        ]
        for coarse, fine in zip(residuals, residuals[1:]):
            assert fine <= coarse * 1.01 + 1e-12

    def test_degenerate_coin_rejected(self):
        # theta = 0: a diagonal coin, whose bands cross wherever U_k is scalar
        with pytest.raises(DegenerateDispersion):
            c_local(line_walk(U2Params(0.0, 0.0, 0.0)), QuadratureGrid(64, 1))

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.7, -1.9)])
    def test_flat_band_coin_is_exact(self, alpha, beta):
        # theta = pi/2: a zero diagonal gives flat bands at +-i that never cross
        p = U2Params(PI / 2, alpha, beta)
        spec = line_walk(p)
        assert np.max(np.abs(c_local(spec) - c_local_u2(p))) <= 1e-12
        chi = [0.6, 0.8j]
        got = rho_asymptotic(spec, LocalState(0, chi)).rho.matrix
        assert np.max(np.abs(got - rho_local_closed(p, chi).rho.matrix)) <= 1e-12


class TestIntegratedSeparable:
    """The |Q(k)|^2-weighted integral that rho_asymptotic takes for distributed states."""

    def test_uniform_weight_reduces_to_local(self):
        # one site: |Q(k)|^2 = 1, so the state sees the local constant c_local
        grid = QuadratureGrid(512, 1)
        spec = line_walk(HADAMARD_PARAMS)
        chi = [0.6, 0.8j]
        got = rho_asymptotic(spec, DistributedState({3: 1.0}, chi), grid).rho.matrix
        want = rho_from_characteristic(chi, c_local(spec, grid), "numeric_quadrature").rho.matrix
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_cosine_weight_reproduces_reference_state(self):
        grid = QuadratureGrid(4096, 1)
        state = DistributedState({-1: INV2, 1: INV2}, [1, 0])
        got = rho_asymptotic(line_walk(HADAMARD_PARAMS), state, grid).rho.matrix
        want = rho_distributed_example_closed(HADAMARD_PARAMS).rho.matrix
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_sine_weight_against_direct_integration(self):
        # independent oracle: Riemann sum of |Q(k)|^2 = 2 sin^2 k times the
        # closed-form C(k), dephasing the coin projector of chi
        p = U2Params(0.8, 0.25, -0.6)
        chi = np.array([0.6, 0.8j])
        n = 4096
        grid = QuadratureGrid(n, 1)
        state = DistributedState({-1: INV2, 1: -INV2}, chi)
        got = rho_asymptotic(line_walk(p), state, grid).rho.matrix
        ks = grid.nodes[:, 0]
        c = sum(2 * np.sin(k) ** 2 * c_of_k_u2(p, k) for k in ks) / n
        want = rho_from_characteristic(chi, c, "numeric_quadrature").rho.matrix
        assert np.max(np.abs(got - want)) <= 1e-10
