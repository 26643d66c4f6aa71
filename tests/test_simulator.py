import numpy as np
import pytest

from coinwalk import (
    DistributedState,
    GeneralState,
    InvalidArgument,
    LocalState,
    U2Params,
    WalkSpec,
    cesaro_rho,
    initial_lattice_state,
    line_walk,
    rho_c_at_t,
    rho_local_closed,
    rho_series,
    step,
)

PI = np.pi
INV2 = 1 / np.sqrt(2)
HADAMARD_PARAMS = U2Params(PI / 4, PI / 2, PI / 2)


def local_zero() -> LocalState:
    return LocalState(position=0, chi=[1, 0])


class TestStep:
    def test_first_balanced_step_by_hand(self):
        # coin sends |0> to (i/sqrt 2)(|0> + |1>); the shift then splits it
        spec = line_walk(HADAMARD_PARAMS)
        s1 = step(spec, initial_lattice_state(local_zero()))
        assert s1.t == 1
        assert set(s1.amplitudes) == {(1,), (-1,)}
        assert np.allclose(s1.amplitudes[(1,)], [1j * INV2, 0])
        assert np.allclose(s1.amplitudes[(-1,)], [0, 1j * INV2])

    def test_identity_coin_is_ballistic(self):
        spec = WalkSpec(lattice_dim=1, coin_dim=2, shifts=[[1], [-1]], coin=np.eye(2))
        s = initial_lattice_state(LocalState(position=0, chi=[1, 0]))
        for _ in range(5):
            s = step(spec, s)
        assert set(s.amplitudes) == {(5,)}
        assert np.allclose(s.amplitudes[(5,)], [1, 0])

    def test_norm_preserved(self):
        spec = line_walk(U2Params(0.6, 0.1, -0.9))
        s = initial_lattice_state(
            GeneralState(amplitudes={(-1,): [INV2, 0], (1,): [0, INV2]})
        )
        for _ in range(30):
            s = step(spec, s)
        assert s.norm() == pytest.approx(1.0, abs=1e-12)

    def test_light_cone(self):
        spec = line_walk(HADAMARD_PARAMS)
        s = initial_lattice_state(local_zero())
        for t in range(1, 12):
            s = step(spec, s)
            assert all(abs(r[0]) <= t for r in s.amplitudes)


class TestReducedCoinState:
    def test_t_zero_local(self):
        rho = rho_c_at_t(initial_lattice_state(local_zero()))
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_t_zero_entangled_is_maximally_mixed(self):
        s = initial_lattice_state(
            GeneralState(amplitudes={(-1,): [INV2, 0], (1,): [0, INV2]})
        )
        assert np.allclose(rho_c_at_t(s).matrix, np.eye(2) / 2)

    def test_one_balanced_step(self):
        spec = line_walk(HADAMARD_PARAMS)
        rho = rho_c_at_t(step(spec, initial_lattice_state(local_zero())))
        assert np.allclose(rho.matrix, np.eye(2) / 2)


class TestDenseSeries:
    def test_matches_sparse_stepper(self):
        spec = line_walk(U2Params(0.7, 0.4, -0.2))
        state = DistributedState(amplitudes={(-2,): INV2, (3,): INV2}, chi=[0.6, 0.8])
        stack = rho_series(spec, state, 20)
        s = initial_lattice_state(state)
        for t in range(21):
            assert np.max(np.abs(stack[t] - rho_c_at_t(s).matrix)) <= 1e-12
            if t < 20:
                s = step(spec, s)

    def test_traces_stay_one(self):
        stack = rho_series(line_walk(HADAMARD_PARAMS), local_zero(), 1000)
        traces = np.einsum("tii->t", stack).real
        assert np.max(np.abs(traces - 1.0)) <= 1e-10


class TestCesaroAverage:
    def test_converges_to_closed_form(self):
        target = rho_local_closed(HADAMARD_PARAMS, [1, 0]).rho.matrix
        got = cesaro_rho(line_walk(HADAMARD_PARAMS), local_zero(), 2000, 100).matrix
        assert np.max(np.abs(got - target)) <= 0.02

    def test_residual_shrinks_with_horizon(self):
        target = rho_local_closed(HADAMARD_PARAMS, [1, 0]).rho.matrix
        r = [
            float(
                np.max(
                    np.abs(
                        cesaro_rho(line_walk(HADAMARD_PARAMS), local_zero(), t, t // 20).matrix
                        - target
                    )
                )
            )
            for t in (250, 2000)
        ]
        assert r[1] < r[0]

    def test_entangled_average_matches_quadrature(self):
        from coinwalk import QuadratureGrid, rho_asymptotic

        state = GeneralState(amplitudes={(-1,): [INV2, 0], (1,): [0, INV2]})
        spec = line_walk(U2Params(0.9, 0.3, -0.5))
        target = rho_asymptotic(spec, state, QuadratureGrid(4096, 1)).rho.matrix
        got = cesaro_rho(spec, state, 1500).matrix
        assert np.max(np.abs(got - target)) <= 0.02

    def test_rejects_bad_window(self):
        with pytest.raises(InvalidArgument):
            cesaro_rho(line_walk(HADAMARD_PARAMS), local_zero(), 100, 100)
