import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinwalk import (
    BlochCoin,
    DistributedState,
    GeneralState,
    InvalidArgument,
    LocalState,
    QuadratureGrid,
    U2Params,
    WalkSpec,
    bloch_coin,
    c_local,
    c_local_u2,
    cesaro_rho,
    characteristic_at_k,
    eigenvalues_distributed_example,
    eigenvalues_entangled_example,
    eigenvalues_local_general,
    entropy_of_pair,
    line_walk,
    rho_asymptotic,
    rho_distributed_example_closed,
    rho_from_characteristic,
    rho_local_closed,
    u2_coin,
)
from coinwalk import asymptotics, characteristic, states
from coinwalk.characteristic import _BLOCK_BYTES, _involution_2, characteristic_stack
from coinwalk.states import psi_k_many
from conftest import (
    c_from_involution,
    c_stack,
    coin_kind_walk,
    random_interior_params,
    random_unitary,
    unit_vector,
)

PI = np.pi
INV2 = 1 / np.sqrt(2)
HADAMARD_PARAMS = U2Params(PI / 4, PI / 2, PI / 2)
GRID = QuadratureGrid(4096, 1)

interior_theta = st.floats(min_value=0.05, max_value=PI / 2 - 0.05)
phase = st.floats(min_value=-PI, max_value=PI)

# rho for theta = pi/4, chi = |0>: (1/2) [[2 - s, f], [f, s]] with
# s = sin(pi/4) and f = s cos(pi/4)/(s + 1) (real here since alpha = beta)
BALANCED_LOCAL_RHO = np.array(
    [
        [0.6464466094067263, 0.14644660940672624],
        [0.14644660940672624, 0.35355339059327373],
    ],
    dtype=complex,
)


def local_zero() -> LocalState:
    return LocalState(position=0, chi=[1, 0])


class TestLocalClosedForm:
    def test_balanced_coin_frozen_matrix(self):
        got = rho_local_closed(HADAMARD_PARAMS, [1, 0]).rho.matrix
        assert np.max(np.abs(got - BALANCED_LOCAL_RHO)) <= 1e-15

    def test_balanced_coin_spectrum_and_entropy(self):
        res = rho_local_closed(HADAMARD_PARAMS, [1, 0])
        assert np.allclose(res.eigenvalues, [0.7071067811865476, 0.2928932188134524])
        assert res.cpe == pytest.approx(0.872, abs=1e-3)

    def test_chi_one_block(self, rng):
        # for chi = |1> the closed C gives (1/2) [[s, -f*], [-f, 2 - s]]
        for _ in range(5):
            p = random_interior_params(rng)
            s = np.sin(p.theta)
            f = s * np.cos(p.theta) / (s + 1) * np.exp(1j * (p.alpha - p.beta))
            expected = 0.5 * np.array([[s, -np.conj(f)], [-f, 2 - s]])
            got = rho_local_closed(p, [0, 1]).rho.matrix
            assert np.max(np.abs(got - expected)) <= 1e-14

    def test_matches_quadrature(self, rng):
        worst = 0.0
        for _ in range(10):
            p = random_interior_params(rng)
            chi = bloch_coin(BlochCoin(rng.uniform(0, PI), rng.uniform(-PI, PI)))
            closed = rho_local_closed(p, chi).rho.matrix
            numeric = rho_asymptotic(
                line_walk(p), LocalState(position=0, chi=chi), GRID
            ).rho.matrix
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
        assert worst <= 1e-8

    @given(
        theta=st.floats(-PI, PI).filter(lambda t: abs(np.sin(t)) >= 0.05),
        alpha=phase,
        beta=phase,
        xi=st.floats(0, PI),
        eta=phase,
    )
    def test_any_angle_away_from_sin_zero_matches_quadrature(self, theta, alpha, beta, xi, eta):
        # sin(theta) < 0 is folded to theta -> -theta, beta -> beta + pi, the same coin
        p, b = U2Params(theta, alpha, beta), BlochCoin(xi, eta)
        numeric = c_local(line_walk(p), GRID)
        assert np.max(np.abs(c_local_u2(p) - numeric)) <= 1e-12
        pipeline = rho_from_characteristic(bloch_coin(b), numeric, "numeric").eigenvalues
        assert np.max(np.abs(np.array(eigenvalues_local_general(p, b)) - pipeline)) <= 1e-12

    @given(
        theta=st.floats(-PI, PI).filter(lambda t: abs(np.sin(t)) >= 0.05),
        alpha=phase,
        beta=phase,
        xi=st.floats(0, PI),
        eta=phase,
        x=st.integers(-8, 8),
    )
    def test_default_grid_sits_within_rounding_of_the_closed_form(
        self, theta, alpha, beta, xi, eta, x
    ):
        # half of rho is chi chi^dag from the site table, exactly; the grid sums
        # only the D P0 D half. A targeted search of 3000 examples (2-core Intel
        # Xeon VM, OpenBLAS 0.3.31 with its Haswell kernels, numpy 2.4.6) reached
        # 5.6e-16 this way and 7.8e-16 summing both halves over the nodes. The
        # zgemm's summation order, and so the last bits, varies with the CPU
        # and BLAS, so the bound is ~9 eps
        p, chi = U2Params(theta, alpha, beta), bloch_coin(BlochCoin(xi, eta))
        got = rho_asymptotic(line_walk(p), LocalState(x, chi)).rho.matrix
        assert np.max(np.abs(got - rho_local_closed(p, chi).rho.matrix)) <= 2e-15

    def test_position_does_not_matter(self):
        a = rho_asymptotic(line_walk(HADAMARD_PARAMS), local_zero(), GRID).rho.matrix
        b = rho_asymptotic(
            line_walk(HADAMARD_PARAMS), LocalState(position=7, chi=[1, 0]), GRID
        ).rho.matrix
        assert np.max(np.abs(a - b)) <= 1e-12


class TestEigenvalueFormulas:
    def test_local_general_reduces_at_xi_zero(self, rng):
        for _ in range(10):
            p = random_interior_params(rng)
            hi, lo = eigenvalues_local_general(p, BlochCoin(0.0, rng.uniform(-PI, PI)))
            d = abs(np.cos(p.theta)) / (2 * np.sin(p.theta) + 2)
            assert hi == pytest.approx(0.5 + d, abs=1e-14)
            assert lo == pytest.approx(0.5 - d, abs=1e-14)

    def test_local_general_at_theta_half_pi(self):
        # at theta = pi/2 the pair is 1/2 +- sin(xi)/4 for any eta
        for xi in (0.0, 0.4, 1.2):
            hi, lo = eigenvalues_local_general(U2Params(PI / 2, 0.0, 0.0), BlochCoin(xi, 0.3))
            assert hi == pytest.approx(0.5 + np.sin(xi) / 4, abs=1e-14)
            assert lo == pytest.approx(0.5 - np.sin(xi) / 4, abs=1e-14)

    def test_local_general_matches_pipeline(self, rng):
        worst = 0.0
        for _ in range(10):
            p = random_interior_params(rng)
            b = BlochCoin(rng.uniform(0, PI), rng.uniform(-PI, PI))
            formula = eigenvalues_local_general(p, b)
            pipeline = rho_local_closed(p, bloch_coin(b)).eigenvalues
            worst = max(worst, float(np.max(np.abs(np.array(formula) - pipeline))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("theta", [-0.4, -PI / 2, -2.2, 4.0])
    def test_worked_examples_with_a_negative_sine_match_the_pipeline(self, theta):
        # the formulas assume sin(theta) > 0; theta -> -theta, beta -> beta + pi is the same coin
        p = U2Params(theta, 0.5, -0.3)
        dist = rho_asymptotic(line_walk(p), DistributedState({-1: INV2, 1: INV2}, [1, 0]), GRID)
        assert np.max(np.abs(np.array(eigenvalues_distributed_example(p)) - dist.eigenvalues)) <= 1e-12
        assert np.max(np.abs(rho_distributed_example_closed(p).rho.matrix - dist.rho.matrix)) <= 1e-12
        entangled = GeneralState({-1: np.array([INV2, 0]), 1: np.array([0, INV2])})
        got = rho_asymptotic(line_walk(p), entangled, GRID).eigenvalues
        assert np.max(np.abs(np.array(eigenvalues_entangled_example(theta)) - got)) <= 1e-12

    def test_distributed_collapses_at_alpha_zero(self, rng):
        p = random_interior_params(rng)
        p0 = U2Params(p.theta, 0.0, p.beta)
        hi, _ = eigenvalues_distributed_example(p0)
        assert hi == pytest.approx(
            0.5 + np.cos(p.theta) / (2 * (np.sin(p.theta) + 1) ** 2), abs=1e-14
        )

    def test_distributed_frozen_point(self):
        # theta = pi/4, alpha = 0: delta = cos(pi/4) / (2 (sin(pi/4) + 1)^2)
        hi, lo = eigenvalues_distributed_example(U2Params(PI / 4, 0.0, 0.0))
        assert hi == pytest.approx(0.5 + 0.12132034355964261, abs=1e-14)
        assert lo == pytest.approx(0.5 - 0.12132034355964261, abs=1e-14)

    def test_distributed_matches_pipeline(self, rng):
        worst = 0.0
        for _ in range(8):
            p = random_interior_params(rng)
            state = DistributedState(amplitudes={(-1,): INV2, (1,): INV2}, chi=[1, 0])
            numeric = rho_asymptotic(line_walk(p), state, GRID).eigenvalues
            formula = np.array(eigenvalues_distributed_example(p))
            worst = max(worst, float(np.max(np.abs(formula - numeric))))
        assert worst <= 1e-8

    def test_distributed_closed_matrix_matches_pipeline(self, rng):
        for _ in range(5):
            p = random_interior_params(rng)
            state = DistributedState(amplitudes={(-1,): INV2, (1,): INV2}, chi=[1, 0])
            numeric = rho_asymptotic(line_walk(p), state, GRID).rho.matrix
            closed = rho_distributed_example_closed(p).rho.matrix
            assert np.max(np.abs(closed - numeric)) <= 1e-8

    def test_entangled_matches_pipeline(self, rng):
        worst = 0.0
        for _ in range(8):
            p = random_interior_params(rng)
            state = GeneralState(amplitudes={(-1,): [INV2, 0], (1,): [0, INV2]})
            numeric = rho_asymptotic(line_walk(p), state, GRID).eigenvalues
            formula = np.array(eigenvalues_entangled_example(p.theta))
            worst = max(worst, float(np.max(np.abs(formula - numeric))))
        assert worst <= 1e-8

    def test_entangled_is_phase_independent(self, rng):
        theta = 0.9
        state = GeneralState(amplitudes={(-1,): [INV2, 0], (1,): [0, INV2]})
        base = rho_asymptotic(
            line_walk(U2Params(theta, 0.0, 0.0)), state, GRID
        ).eigenvalues
        for _ in range(3):
            p = U2Params(theta, rng.uniform(-PI, PI), rng.uniform(-PI, PI))
            other = rho_asymptotic(line_walk(p), state, GRID).eigenvalues
            assert np.max(np.abs(base - other)) <= 1e-8

    @given(theta=interior_theta)
    def test_pairs_sum_to_one(self, theta):
        p = U2Params(theta, 0.3, -0.7)
        for pair in (
            eigenvalues_local_general(p, BlochCoin(0.5, 0.1)),
            eigenvalues_distributed_example(p),
            eigenvalues_entangled_example(theta),
        ):
            assert sum(pair) == pytest.approx(1.0, abs=1e-14)
            assert 0 <= pair[1] <= 0.5 <= pair[0] <= 1


class TestEntanglementEntropy:
    def test_entropy_of_pair_examples(self):
        assert entropy_of_pair(1.0, 0.0) == 0.0
        assert entropy_of_pair(0.5, 0.5) == pytest.approx(1.0)
        assert entropy_of_pair(0.7071067811865476, 0.2928932188134524) == pytest.approx(
            0.8724, abs=1e-4
        )

    def test_entropy_of_pair_is_never_negative(self):
        # an eigenvalue rounding to just above 1 gave -3.2e-16
        assert entropy_of_pair(1 + 2**-52, -(2**-52)) == 0.0

    def test_entangled_cpe_stays_high(self):
        # the maximally entangled start keeps the coin nearly maximally mixed
        for theta in np.linspace(0.1, PI - 0.1, 15):
            e = entropy_of_pair(*eigenvalues_entangled_example(theta))
            assert e >= 0.98


class TestRankTwoEigenspaces:
    def test_repro_walk_keeps_the_initial_coin_state(self):
        # U_k = diag(e^-ik, e^-ik, e^ik): chi lies in one rank-2 eigenspace at
        # every k, so the time average is P0 itself
        spec = WalkSpec(1, 3, [[1], [1], [-1]], np.eye(3))
        chi = np.array([1, 1, 0]) / np.sqrt(2)
        p0 = np.outer(chi, chi)
        pipeline = rho_asymptotic(spec, LocalState(position=0, chi=chi)).rho.matrix
        constant = rho_from_characteristic(chi, c_local(spec), "numeric_quadrature").rho.matrix
        assert np.max(np.abs(pipeline - p0)) <= 1e-12
        assert np.max(np.abs(constant - p0)) <= 1e-12

    def test_planar_grover_walk_matches_simulator(self):
        # flat bands of the 2-d Grover walk (Inui, Konishi & Segawa 2004)
        coin = np.full((4, 4), 0.5) - np.eye(4)
        spec = WalkSpec(2, 4, [[1, 0], [-1, 0], [0, 1], [0, -1]], coin)
        state = LocalState(position=(0, 0), chi=[1, 0, 0, 0])
        t_max = 60
        quadrature = rho_asymptotic(spec, state, QuadratureGrid(16, 2)).rho.matrix
        averaged = cesaro_rho(spec, state, t_max).matrix
        assert np.max(np.abs(quadrature - averaged)) <= 2 / t_max


class TestOneSiteRoute:
    """A state on one occupied site contracts c_local with P0 = c c^dag once."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda chi: LocalState(3, chi),
            lambda chi: DistributedState({3: 1}, chi),
            lambda chi: GeneralState({3: chi}),
            lambda chi: DistributedState({3: 1, 9: 0}, chi),  # the zero site is not occupied
        ],
        ids=["local", "dist", "general", "dist-with-a-zero-site"],
    )
    @pytest.mark.parametrize("walk", ["line", "lazy-n3"])
    def test_contracts_c_local_without_psi(self, make, walk, rng, monkeypatch):
        if walk == "line":
            spec, grid, chi = line_walk(U2Params(0.7, 0.3, -0.4)), None, np.array([0.6, 0.8j])
        else:
            spec = WalkSpec(1, 3, [[1], [0], [-1]], random_unitary(rng, 3))
            grid, chi = QuadratureGrid(64, 1), unit_vector(rng, 3)
        on_grid, calls = characteristic.psi_on_grid, []
        monkeypatch.setattr(characteristic, "psi_on_grid", lambda *a: calls.append(a) or on_grid(*a))
        state = make(chi)
        got = rho_asymptotic(spec, state, grid).rho.matrix
        assert calls == []
        c = states.site_table(state)[1][0]
        rho = asymptotics._dephase(c_local(spec, grid), np.outer(c, c.conj()))
        assert np.array_equal(got, asymptotics._result(rho, "numeric_quadrature").rho.matrix)


class TestQuadraturePipeline:
    def test_method_tags(self):
        assert rho_local_closed(HADAMARD_PARAMS, [1, 0]).method == "closed_form_local"
        assert (
            rho_asymptotic(line_walk(HADAMARD_PARAMS), local_zero(), GRID).method
            == "numeric_quadrature"
        )

    def test_characteristic_of_the_wrong_size_rejected(self):
        with pytest.raises(InvalidArgument, match=r"c has shape \(4, 4\), expected \(9, 9\)"):
            rho_from_characteristic([1, 0, 0], np.eye(4), "x")

    def test_two_dimensional_chi_rejected(self):
        # flattened, this chi would pass as a 4-component coin for a 16x16 c
        with pytest.raises(InvalidArgument, match="coin vector must be 1-d"):
            rho_from_characteristic([[1, 0], [0, 0]], np.eye(16), "x")

    @pytest.mark.parametrize("chi", [[1, 1], [2, 0], [np.nan, 0]])
    def test_a_chi_that_is_not_unit_is_bad_input(self, chi):
        # bad input (exit 2), not a density matrix that fails its trace or Hermiticity check
        with pytest.raises(InvalidArgument, match="^coin state is not normalized within 1e-12$"):
            rho_local_closed(U2Params(0.7, 0.3, 0.2), chi)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgument, match="state lattice dimension does not match"):
            rho_asymptotic(
                line_walk(HADAMARD_PARAMS),
                LocalState(position=(0, 0), chi=[1, 0]),
                GRID,
            )

    @pytest.mark.parametrize(
        "entry",
        [lambda spec, grid: rho_asymptotic(spec, local_zero(), grid), c_local],
        ids=["rho_asymptotic", "c_local"],
    )
    def test_grid_of_another_dimension_is_refused_before_its_nodes(self, entry):
        # the nodes of a 64^3 grid take 6 MiB; the refusal allocates none of them
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgument, match="^grid dimension does not match the walk$"):
                entry(line_walk(HADAMARD_PARAMS), QuadratureGrid(64, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("far, n", [(1, 1), (3, 2), (66, 64)])
    def test_grid_not_wider_than_the_state_refused(self, far, n):
        # sites N apart share one bin of an N-point grid: at N = 2, {0, 3} gave I/2
        state = DistributedState({0: 0.6, far: 0.8}, chi=[1, 0])
        with pytest.raises(InvalidArgument, match=rf"{far} apart on an axis; a grid of N = {n} "):
            rho_asymptotic(line_walk(HADAMARD_PARAMS), state, QuadratureGrid(n, 1))

    def test_span_beyond_int64_refused_as_a_span(self):
        # 2**64 - 1 apart: the exact uint64 offset, refused by the grid rule like any span
        state = DistributedState({-(2**63): INV2, 2**63 - 1: INV2}, chi=[1, 0])
        message = rf"^the state's positions are {2**64 - 1} apart on an axis; a grid of N = 4096 "
        with pytest.raises(InvalidArgument, match=message):
            rho_asymptotic(line_walk(HADAMARD_PARAMS), state)

    def test_grid_span_is_checked_per_axis(self):
        spec = WalkSpec(2, 4, [[1, 0], [-1, 0], [0, 1], [0, -1]], np.full((4, 4), 0.5) - np.eye(4))
        state = DistributedState({(0, 0): 0.6, (1, 4): 0.8}, chi=[1, 0, 0, 0])
        with pytest.raises(InvalidArgument, match="4 apart on an axis; a grid of N = 4 "):
            rho_asymptotic(spec, state, QuadratureGrid(4, 2))
        assert rho_asymptotic(spec, state, QuadratureGrid(5, 2)).method == "numeric_quadrature"

    def test_span_of_n_minus_one_accepted(self):
        state = DistributedState({-10: 0.6, 53: 0.8}, chi=[1, 0])
        result = rho_asymptotic(line_walk(HADAMARD_PARAMS), state, QuadratureGrid(64, 1))
        assert result.method == "numeric_quadrature"

    @pytest.mark.parametrize(
        "state",
        [
            DistributedState({0: 1.0, 5000: 0.0}, chi=[0.6, 0.8j]),
            GeneralState({3: [0.6, 0.8j], 9000: [0, 0]}),
        ],
        ids=["dist", "general"],
    )
    def test_sites_with_zero_amplitude_do_not_widen_the_span(self, state):
        # 5000 and 8997 exceed the default 4096 nodes, yet only one site is occupied
        spec = line_walk(HADAMARD_PARAMS)
        got = rho_asymptotic(spec, state)
        want = rho_asymptotic(spec, LocalState(position=0, chi=[0.6, 0.8j]))
        assert np.array_equal(got.rho.matrix, want.rho.matrix)
        assert got.cpe == want.cpe

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rho_local_closed(HADAMARD_PARAMS, [0.6, 0.8j]),
            lambda rng: rho_asymptotic(line_walk(HADAMARD_PARAMS), local_zero(), GRID),
            lambda rng: rho_asymptotic(
                WalkSpec(1, 3, [[1], [0], [-1]], random_unitary(rng, 3)),
                LocalState(0, unit_vector(rng, 3)),
                QuadratureGrid(64, 1),
            ),
        ],
        ids=["closed-form", "quadrature-n2", "quadrature-n3"],
    )
    def test_one_eigensolve_per_result(self, make, rng, monkeypatch):
        # the positivity check, eigenvalues and cpe share one spectrum
        solve, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or solve(a))
        result = make(rng)
        assert len(calls) == 1
        assert np.array_equal(result.eigenvalues, solve(result.rho.matrix)[::-1])
        lam = result.eigenvalues[result.eigenvalues > 0]
        assert result.cpe == max(0.0, float(-(lam[::-1] * np.log2(lam[::-1])).sum()))

    def test_depends_on_phase_difference_only(self, rng):
        p = random_interior_params(rng)
        delta = 1.37
        shifted = U2Params(p.theta, p.alpha + delta, p.beta + delta)
        chi = bloch_coin(BlochCoin(0.8, 0.2))
        a = rho_local_closed(p, chi).rho.matrix
        b = rho_local_closed(shifted, chi).rho.matrix
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_eigenvalues_descending_and_trace_one(self, rng):
        p = random_interior_params(rng)
        res = rho_asymptotic(line_walk(p), local_zero(), QuadratureGrid(512, 1))
        assert res.eigenvalues[0] >= res.eigenvalues[1]
        assert np.trace(res.rho.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestBlockedQuadrature:
    """The grid averages, taken block by block, against one stack over every node."""

    SHIFTS = {
        (2, 1): [[1], [-1]],
        (3, 1): [[1], [0], [-1]],
        (4, 2): [[1, 0], [-1, 0], [0, 1], [0, -1]],
        (6, 2): [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]],
    }

    @staticmethod
    def states(rng, n: int, d: int):
        origin, near, far = (0,) * d, (1,) + (0,) * (d - 1), (-2,) + (1,) * (d - 1)
        weights = unit_vector(rng, 3)
        halves = unit_vector(rng, 2 * n).reshape(2, n)
        return [
            LocalState(origin, unit_vector(rng, n)),
            DistributedState(dict(zip((origin, near, far), weights)), unit_vector(rng, n)),
            GeneralState({near: halves[0], far: halves[1]}),
        ]

    @staticmethod
    def packet(rng, width: int) -> DistributedState:
        amps = np.exp(-(((np.arange(width) - (width - 1) / 2) / (width / 5)) ** 2))
        return DistributedState(dict(enumerate(amps / np.linalg.norm(amps))), unit_vector(rng, 2))

    @staticmethod
    def assert_matches_the_einsum_of_c(spec, state, grid, c):
        n = spec.coin_dim
        psi = psi_k_many(state, grid.nodes)
        p0 = psi[:, :, None] * psi.conj()[:, None, :]
        want = np.einsum("macbd,mbc->mad", c.reshape(-1, n, n, n, n), p0).mean(axis=0)
        got = rho_asymptotic(spec, state, grid).rho.matrix
        assert np.max(np.abs(got - (want + want.conj().T) / 2)) <= 1e-13

    @staticmethod
    def walked_nodes(spec, grid) -> int:
        """N^d / 2 on a bipartite walk (one coordinate-sum parity) and an even grid, else N^d."""
        bipartite = len(set(spec.shifts.sum(axis=1) % 2)) == 1
        return grid.node_count // (2 if bipartite and grid.points_per_axis % 2 == 0 else 1)

    @pytest.mark.parametrize(
        # the +-1 line and the square lattice are bipartite, the lazy line and the
        # triangular lattice are not; odd grids always walk every node
        "n, d, points",
        [(4, 2, 33), (4, 2, 48), (6, 2, 15), (6, 2, 22), (3, 1, 5000), (2, 1, 40000)],
    )
    def test_blocks_match_one_stack_over_every_node(self, n, d, points, rng):
        grid = QuadratureGrid(points, d)
        block = _BLOCK_BYTES // (16 * n**4)
        spec = WalkSpec(d, n, self.SHIFTS[n, d], random_unitary(rng, n))
        walked = self.walked_nodes(spec, grid)
        assert walked > block and walked % block  # the last block is partial
        c = c_stack(spec, grid.nodes)
        assert np.max(np.abs(c_local(spec, grid) - c.mean(axis=0))) <= 1e-13
        for state in self.states(rng, n, d):
            self.assert_matches_the_einsum_of_c(spec, state, grid, c)

    @pytest.mark.parametrize("walk", ["haar", "flat-bands", "merged-nodes"])
    def test_two_band_walks_match_the_einsum_of_c(self, walk, rng):
        # n = 2 contracts D with psi_k and builds no C; the reference contracts
        # C = (I (x) I + D (x) D) / 2 of the same D
        grid = QuadratureGrid(4096, 1)
        if walk == "haar":
            spec = WalkSpec(1, 2, self.SHIFTS[2, 1], random_unitary(rng, 2))
        elif walk == "flat-bands":
            spec = line_walk(U2Params(PI / 2, 0.7, -1.9))
        else:  # a band gap of ~2e-11 at k = 0 and k = -pi: one eigenspace at those nodes
            spec = line_walk(U2Params(1e-11, 0.0, 0.0))
        c = c_from_involution(_involution_2(spec, grid.nodes))
        merged = np.all(c == np.eye(4), axis=(1, 2))
        assert merged.sum() == (2 if walk == "merged-nodes" else 0)
        for state in self.states(rng, 2, 1) + [self.packet(rng, 128)]:
            self.assert_matches_the_einsum_of_c(spec, state, grid, c)

    @given(data=st.data())
    def test_two_band_walks_match_the_per_node_eigenprojectors(self, data):
        # n = 2 dephases through D = P_1 - P_2; the reference takes sum_w P_w P0 P_w
        # from characteristic_at_k, which runs the general eigensolver node by node
        d = data.draw(st.sampled_from([1, 2]), label="d")
        # N > span: a coarser grid aliases the separations and the trace is not 1
        size = data.draw(st.integers(7, 48) if d == 1 else st.integers(7, 10), label="N")
        shifts = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=2, max_size=2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="flat bands"):  # theta = pi/2: a zero diagonal
            coin = u2_coin(U2Params(PI / 2, *rng.uniform(-PI, PI, 2)))
        else:
            coin = random_unitary(rng, 2)
        spec = WalkSpec(d, 2, shifts, coin)
        sites = data.draw(
            st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=5, unique=True),
            label="sites",
        )
        if data.draw(st.booleans(), label="general"):
            coeffs = unit_vector(rng, 2 * len(sites)).reshape(-1, 2)
            state = GeneralState(dict(zip(sites, coeffs)))
        else:
            state = DistributedState(dict(zip(sites, unit_vector(rng, len(sites)))), unit_vector(rng, 2))
        grid = QuadratureGrid(size, d)
        want = np.zeros((2, 2), dtype=complex)
        for k, psi in zip(grid.nodes, psi_k_many(state, grid.nodes)):
            c = characteristic_at_k(spec, k).reshape(2, 2, 2, 2)
            want += np.einsum("acbd,b,c->ad", c, psi, psi.conj()) / grid.node_count
        got = rho_asymptotic(spec, state, grid).rho.matrix
        assert np.max(np.abs(got - (want + want.conj().T) / 2)) <= 1e-13

    @given(data=st.data())
    def test_two_band_walks_match_the_mean_of_p0_and_d_p0_d(self, data):
        # rho = mean_k (P0 + D P0 D) / 2 node by node, with D (x) D = 2 C - I (x) I
        # from characteristic_at_k; rho_asymptotic takes the mean of P0 from the
        # site table instead, which the grid reproduces once N exceeds the span
        d = data.draw(st.sampled_from([1, 2]), label="d")
        bipartite = data.draw(st.booleans(), label="bipartite")
        shifts = self.shift_tables(data.draw, 2, d, bipartite)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        spec = WalkSpec(d, 2, shifts, random_unitary(rng, 2))
        sites = data.draw(
            st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=4, unique=True),
            label="sites",
        )
        if data.draw(st.booleans(), label="local"):
            sites = sites[:1]
            state = LocalState(sites[0], unit_vector(rng, 2))
        else:
            state = GeneralState(dict(zip(sites, unit_vector(rng, 2 * len(sites)).reshape(-1, 2))))
        span = int(np.ptp(np.array(sites), axis=0).max())
        # even or odd N; N > span, as the grid requires
        size = data.draw(st.integers(span + 1, span + 8 if d == 2 else 48), label="N")
        grid = QuadratureGrid(size, d)
        p0_mean = np.zeros((2, 2), dtype=complex)
        dp0d_mean = np.zeros((2, 2), dtype=complex)
        for k, psi in zip(grid.nodes, psi_k_many(state, grid.nodes)):
            dd = (2 * characteristic_at_k(spec, k) - np.eye(4)).reshape(2, 2, 2, 2)
            p0 = np.outer(psi, psi.conj())
            p0_mean += p0 / grid.node_count
            dp0d_mean += np.einsum("acbd,bc->ad", dd, p0) / grid.node_count
        want = (p0_mean + dp0d_mean) / 2
        got = rho_asymptotic(spec, state, grid).rho.matrix
        assert np.max(np.abs(got - (want + want.conj().T) / 2)) <= 1e-13

    @staticmethod
    def shift_tables(draw, n: int, d: int, bipartite: bool) -> list:
        """n shift vectors in [-2, 2]^d whose coordinate sums share one parity, or not."""
        rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=n, max_size=n))
        rows = [list(r) for r in rows]
        for r in rows[1:] if bipartite else rows[1:2]:
            if (sum(r) - sum(rows[0])) % 2 != (0 if bipartite else 1):
                r[0] += -1 if r[0] > 0 else 1
        return rows

    @given(data=st.data())
    def test_any_coin_matches_the_per_node_sum_over_every_node(self, data):
        # bipartite walks on even grids walk half the nodes; the reference takes
        # characteristic_at_k and psi_k_many at each of the N^d nodes. The kinds with
        # eigenspaces of rank 2 or more (coin_kind_walk) check that the dephasing keeps
        # every pair of columns of one eigenspace, not only the diagonal
        kind = data.draw(st.sampled_from(["haar", "pair", "grover-2d", "rank-2"]), label="kind")
        n = data.draw(st.sampled_from([3, 4]), label="n")
        d = data.draw(st.sampled_from([1, 2]), label="d")
        bipartite = data.draw(st.booleans(), label="bipartite")
        shifts = self.shift_tables(data.draw, n, d, bipartite)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        spec = coin_kind_walk(kind, n, d, shifts, rng)
        n, d = spec.coin_dim, spec.lattice_dim
        sites = data.draw(
            st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=4, unique=True),
            label="sites",
        )
        state = GeneralState(dict(zip(sites, unit_vector(rng, n * len(sites)).reshape(-1, n))))
        span = int(np.ptp(np.array(sites), axis=0).max())
        size = data.draw(st.integers(span + 1, span + 8 if d == 2 else 40), label="N")
        grid = QuadratureGrid(size, d)
        want_c = np.zeros((n * n, n * n), dtype=complex)
        want_rho = np.zeros((n, n), dtype=complex)
        for k, psi in zip(grid.nodes, psi_k_many(state, grid.nodes)):
            c = characteristic_at_k(spec, k)
            want_c += c / grid.node_count
            want_rho += np.einsum("acbd,b,c->ad", c.reshape(n, n, n, n), psi, psi.conj()) / grid.node_count
        assert np.max(np.abs(c_local(spec, grid) - want_c)) <= 1e-13
        got = rho_asymptotic(spec, state, grid).rho.matrix
        assert np.max(np.abs(got - (want_rho + want_rho.conj().T) / 2)) <= 1e-13

    @pytest.mark.parametrize(
        "n, d, points, walked",
        [
            (2, 1, 64, 32),  # the +-1 line
            (2, 1, 63, 63),
            (3, 1, 64, 64),  # the lazy line: shifts 1, 0, -1
            (4, 2, 16, 128),  # the square lattice
            (4, 2, 15, 225),
            (6, 2, 16, 256),  # the triangular lattice: +-(1, 1) has even parity
        ],
    )
    def test_bipartite_walks_on_even_grids_solve_half_the_nodes(
        self, n, d, points, walked, rng, monkeypatch
    ):
        # every coin takes the shift phases once per walked node: a 2x2 coin for D,
        # any other for the U_k of its Newton-Schulz step
        phases, rows = characteristic._shift_phases, []
        monkeypatch.setattr(
            characteristic,
            "_shift_phases",
            lambda shifts, ks: rows.append(len(ks)) or phases(shifts, ks),
        )
        spec = WalkSpec(d, n, self.SHIFTS[n, d], random_unitary(rng, n))
        grid = QuadratureGrid(points, d)
        assert self.walked_nodes(spec, grid) == walked
        c_local(spec, grid)
        assert sum(rows) == walked
        rows.clear()
        rho_asymptotic(spec, LocalState((0,) * d, unit_vector(rng, n)), grid)
        assert sum(rows) == walked

    @pytest.mark.parametrize(
        "shifts, points",
        [
            ([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], 8),
            ([[2], [0]], 64),
            ([[2], [-2]], 64),
            ([[1, 1], [-1, -1]], 16),
            ([[1], [-1], [3]], 64),
        ],
        ids=["tetrahedral", "shifts-2-0", "shifts-2-minus-2", "diagonal-2d", "odd-parity-n3"],
    )
    def test_half_zone_matches_the_full_zone(self, shifts, points, rng, monkeypatch):
        n, d = np.shape(shifts)
        spec = WalkSpec(d, n, shifts, random_unitary(rng, n))
        grid = QuadratureGrid(points, d)
        assert characteristic._half_zone(spec, grid)
        # the sites' coordinate sums are 0, 1 and d - 3: both parities
        sites = [(0,) * d, (1,) + (0,) * (d - 1), (-2,) + (1,) * (d - 1)]
        state = GeneralState(dict(zip(sites, unit_vector(rng, 3 * n).reshape(3, n))))
        half = c_local(spec, grid), rho_asymptotic(spec, state, grid).rho.matrix
        monkeypatch.setattr(characteristic, "_half_zone", lambda spec, grid: False)
        full = c_local(spec, grid), rho_asymptotic(spec, state, grid).rho.matrix
        for got, want in zip(half, full):
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_reads_the_site_table_once(self, rng, monkeypatch):
        read, calls = states.site_table, []
        monkeypatch.setattr(states, "site_table", lambda state: calls.append(state) or read(state))
        spec = WalkSpec(1, 2, self.SHIFTS[2, 1], random_unitary(rng, 2))
        rho_asymptotic(spec, self.packet(rng, 128))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        # a one-site state sums C over each block; a two-site one dephases psi_k in each
        # node's eigenbasis, with no C: (M, n, n) arrays of 256 KiB per block of 1024 nodes
        "sites, bound",
        [(1, 24e6), (2, 4 * 2**20)],
        ids=["one-site", "two-site"],
    )
    def test_working_memory_does_not_grow_with_the_grid(self, sites, bound):
        rng = np.random.default_rng(96)
        spec = WalkSpec(2, 4, self.SHIFTS[4, 2], random_unitary(rng, 4))
        coeffs = unit_vector(rng, 4 * sites).reshape(sites, 4)
        state = GeneralState(dict(zip([(0, 0), (1, 0)], coeffs)))
        # one 96^2 stack of C(k) alone would take 9216 * 16 * 4^4 B = 37.7 MB
        tracemalloc.start()
        try:
            rho_asymptotic(spec, state, QuadratureGrid(96, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_characteristic_stack_peak_memory(self):
        # the block sum of 1024 n=4 nodes: room for its (n^2, M n) factor Z_f (1 MiB)
        # beside the eigensolve's n^3 stacks, not for a per-node C stack (4 MiB alone)
        rng = np.random.default_rng(97)
        spec = WalkSpec(2, 4, self.SHIFTS[4, 2], random_unitary(rng, 4))
        ks = QuadratureGrid(32, 2).nodes
        tracemalloc.start()
        try:
            characteristic_stack(spec, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_wavepacket_peak_memory(self, rng):
        # the direct sum over sites took a (4096, 128) phase matrix, 16 MiB at its peak
        spec = WalkSpec(1, 2, self.SHIFTS[2, 1], random_unitary(rng, 2))
        state = self.packet(rng, 128)
        tracemalloc.start()
        try:
            rho_asymptotic(spec, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
