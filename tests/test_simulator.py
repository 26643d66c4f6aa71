import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_unitary, unit_vector

from coinwalk import (
    DensityMatrix,
    DistributedState,
    GeneralState,
    InvalidArgument,
    LocalState,
    QuadratureGrid,
    U2Params,
    WalkSpec,
    build_uk,
    cesaro_rho,
    line_walk,
    rho_asymptotic,
    rho_local_closed,
    rho_series,
)
from coinwalk import simulate
from coinwalk.simulate import initial_lattice_state, rho_c_at_t, step
from coinwalk.states import psi_k_many

PI = np.pi
INV2 = 1 / np.sqrt(2)
HADAMARD_PARAMS = U2Params(PI / 4, PI / 2, PI / 2)
E2 = [[1, 0], [-1, 0], [0, 1], [0, -1]]


def local_zero() -> LocalState:
    return LocalState(position=0, chi=[1, 0])


def sparse_series(spec: WalkSpec, state, t_max: int) -> list[np.ndarray]:
    """rho_c(t) for t = 0..t_max from the per-site reference stepper."""
    s = initial_lattice_state(state)
    out = [rho_c_at_t(s).matrix]
    for _ in range(t_max):
        s = step(spec, s)
        out.append(rho_c_at_t(s).matrix)
    return out


def walk_case(name: str, rng: np.random.Generator):
    """A walk and an initial state that exercise one corner of the dense stepper."""
    if name == "2d-e2-haar-two-sites":
        spec = WalkSpec(2, 4, E2, random_unitary(rng, 4))
        chi_a, chi_b = unit_vector(rng, 4), unit_vector(rng, 4)
        return spec, GeneralState(amplitudes={(0, 0): 0.6 * chi_a, (3, -2): 0.8 * chi_b})
    if name == "3d-tetra":
        tetra = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        return WalkSpec(3, 4, tetra, random_unitary(rng, 4)), LocalState((0, 0, 0), unit_vector(rng, 4))
    if name == "2d-hex":
        hexa = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]
        return WalkSpec(2, 6, hexa, random_unitary(rng, 6)), LocalState((0, 0), unit_vector(rng, 6))
    if name == "2d-tri":
        tri = [[1, 0], [0, 1], [-1, -1]]
        return WalkSpec(2, 3, tri, random_unitary(rng, 3)), LocalState((1, -1), unit_vector(rng, 3))
    if name == "1d-lazy":
        lazy = [[1], [0], [-1]]
        return WalkSpec(1, 3, lazy, random_unitary(rng, 3)), LocalState(0, unit_vector(rng, 3))
    # the cases below step on a sublattice: some shift differences share a factor g > 1
    if name == "1d-line-both-parities":
        spec = WalkSpec(1, 2, [[1], [-1]], random_unitary(rng, 2))
        return spec, general_state(rng, [(0,), (1,), (2,), (3,)], 2)
    if name == "1d-shifts-2":
        spec = WalkSpec(1, 2, [[2], [-2]], random_unitary(rng, 2))
        return spec, DistributedState(amplitudes={(1,): 0.6, (4,): 0.8j}, chi=unit_vector(rng, 2))
    if name == "1d-shifts-3-three-residues":
        spec = WalkSpec(1, 3, [[3], [0], [-3]], random_unitary(rng, 3))
        return spec, general_state(rng, [(-2,), (0,), (1,), (4,), (6,)], 3)
    if name == "3d-tetra-two-residues":
        tetra = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        return WalkSpec(3, 4, tetra, random_unitary(rng, 4)), general_state(rng, [(0, 0, 0), (1, 0, 0)], 4)
    if name == "2d-long-first-axis":
        spec = WalkSpec(2, 4, [[2, 0], [-2, 0], [0, 1], [0, -1]], random_unitary(rng, 4))
        return spec, general_state(rng, [(0, 0), (1, 2), (3, -1)], 4)
    # asymmetric long shifts: the box grows by 3 a step, and far-apart sites
    spec = WalkSpec(1, 2, [[2], [-1]], random_unitary(rng, 2))
    return spec, DistributedState(amplitudes={(-40,): 0.6, (37,): 0.8j}, chi=unit_vector(rng, 2))


def general_state(rng: np.random.Generator, sites: list, n: int) -> GeneralState:
    """Random coin vectors of dimension n on the given sites, normalized together."""
    coeffs = np.array([unit_vector(rng, n) for _ in sites]) / np.sqrt(len(sites))
    return GeneralState(amplitudes=dict(zip(sites, coeffs)))


# the most steps whose coin states rho_series takes in one block
K = simulate._RING_SLOTS

WALK_CASES = [
    "2d-e2-haar-two-sites", "3d-tetra", "2d-hex", "2d-tri", "1d-lazy", "1d-long-shift",
    "1d-line-both-parities", "1d-shifts-2", "1d-shifts-3-three-residues", "3d-tetra-two-residues",
    "2d-long-first-axis",
]


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
        norm = np.sqrt(sum(np.linalg.norm(c) ** 2 for c in s.amplitudes.values()))
        assert norm == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("case", WALK_CASES)
    def test_matches_sparse_stepper_at_every_step(self, case, rng):
        spec, state = walk_case(case, rng)
        stack = rho_series(spec, state, 20)
        assert stack.shape == (21, spec.coin_dim, spec.coin_dim)
        for t, reference in enumerate(sparse_series(spec, state, 20)):
            assert np.max(np.abs(stack[t] - reference)) <= 1e-12, t

    @pytest.mark.parametrize("case", WALK_CASES)
    def test_zero_horizon_is_the_initial_coin_state(self, case, rng):
        spec, state = walk_case(case, rng)
        stack = rho_series(spec, state, 0)
        assert stack.shape == (1, spec.coin_dim, spec.coin_dim)
        assert np.max(np.abs(stack[0] - sparse_series(spec, state, 0)[0])) <= 1e-12

    @pytest.mark.parametrize("case", WALK_CASES)
    def test_series_is_exactly_hermitian(self, case, rng):
        # W W^dag summed in floating point can leave a diagonal imaginary part
        # of ~1e-17; each block is symmetrised, so none is left
        spec, state = walk_case(case, rng)
        stack = rho_series(spec, state, 50)
        assert np.all(np.diagonal(stack, axis1=1, axis2=2).imag == 0)
        assert np.array_equal(stack, stack.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize(
        "t_max", [0, 1, K - 1, K, K + 1, 2 * K + 3], ids=lambda t: f"t{t}"
    )
    @pytest.mark.parametrize(
        "case", ["1d-line-both-parities", "1d-lazy", "2d-e2-haar-two-sites", "3d-tetra"]
    )
    def test_matches_sparse_stepper_across_block_edges(self, case, t_max, rng):
        # the coin states are taken K steps at a time, or fewer where K slabs
        # do not fit the ring: every step before, on and after a block's end
        spec, state = walk_case(case, rng)
        stack = rho_series(spec, state, t_max)
        assert stack.shape == (t_max + 1, spec.coin_dim, spec.coin_dim)
        for t, reference in enumerate(sparse_series(spec, state, t_max)):
            assert np.max(np.abs(stack[t] - reference)) <= 1e-12, t

    def test_a_slab_beyond_the_ring_budget_steps_in_one_slot(self, rng):
        # a 2-d 4-state walk at t = 40 has an 81 x 81 box, 420 KB a slab
        spec = WalkSpec(2, 4, E2, random_unitary(rng, 4))
        state = LocalState((0, 0), unit_vector(rng, 4))
        assert 16 * 4 * 81**2 > simulate._RING_BYTES
        stack = rho_series(spec, state, 40)
        for t, reference in enumerate(sparse_series(spec, state, 40)):
            assert np.max(np.abs(stack[t] - reference)) <= 1e-12, t

    def test_ring_bounds_the_memory_of_a_long_series(self):
        # at t = 4000 the +-1 line's slab is 4001 sites, 128 KB: two fit the
        # ring, and the scratch is as large; a ring of every step would take 512 MB
        t_max = 4000
        series = (t_max + 1) * 4 * 16
        spec = line_walk(HADAMARD_PARAMS)
        # a first call fills the interpreter's and numpy's caches, up to ~100 KB
        # that later calls reuse, outside the peak
        rho_series(spec, local_zero(), t_max)
        tracemalloc.start()
        try:
            rho_series(spec, local_zero(), t_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < series + 2 * simulate._RING_BYTES + 64 * 2**10

    def test_tetrahedral_walk_steps_on_an_eighth_of_its_box(self, rng):
        # the shifts differ by even vectors, so the walker meets one site in 8;
        # the full box would take two buffers of 4 * 121**3 amplitudes, 227 MB
        spec, state = walk_case("3d-tetra", rng)
        tracemalloc.start()
        try:
            rho_series(spec, state, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_sites_at_the_ends_of_int64_on_a_coarse_sublattice(self, rng):
        # shifts +-2**62 meet sites 2**63 apart: the two ends of int64 lie on
        # two residue classes of one 2-site box, and no difference wraps
        spec = WalkSpec(1, 2, [[2**62], [-(2**62)]], random_unitary(rng, 2))
        state = DistributedState({(-(2**63),): 0.6, (2**63 - 1,): 0.8j}, unit_vector(rng, 2))
        stack = rho_series(spec, state, 6)
        for t, reference in enumerate(sparse_series(spec, state, 6)):
            assert np.max(np.abs(stack[t] - reference)) <= 1e-12, t

    def test_traces_stay_one_in_two_dimensions(self, rng):
        spec, state = walk_case("2d-e2-haar-two-sites", rng)
        stack = rho_series(spec, state, 200)
        traces = np.einsum("tii->t", stack).real
        assert np.max(np.abs(traces - 1.0)) <= 1e-10

    @pytest.mark.parametrize(
        "t_max", [-1, 10**7, 2.5], ids=["negative", "box-too-large", "non-integer"]
    )
    def test_rejects_horizon(self, t_max):
        # at 10**7 steps the 3-d box holds ~2e21 amplitudes: numpy refuses
        # the size before it allocates anything
        spec = WalkSpec(3, 2, [[1, 1, 1], [-1, -1, -1]], np.eye(2))
        with pytest.raises(InvalidArgument):
            rho_series(spec, LocalState((0, 0, 0), [1, 0]), t_max)


def k_space_rho(spec: WalkSpec, state, t: int, size: int) -> np.ndarray:
    """``N^-d sum_k U_k^t psi_k psi_k^dag U_k^-t`` over the N^d nodes of ``QuadratureGrid(N, d)``."""
    ks = QuadratureGrid(size, spec.lattice_dim).nodes
    uk, psi = build_uk(spec, ks), psi_k_many(state, ks)
    for _ in range(t):
        psi = (uk @ psi[:, :, None])[:, :, 0]
    return psi.T @ psi.conj() / len(ks)


def walker_width(spec: WalkSpec, sites: list, t: int) -> int:
    """W = max_a (span_a + reach_a t): the walker's sites at step t are at most W apart on an axis."""
    span = np.ptp(np.array(sites), axis=0)
    return int(np.max(span + np.ptp(spec.shifts, axis=0) * t))


class TestKSpaceBridge:
    """On N > W points per axis no two of the walker's sites share a node, so the
    discrete Parseval identity makes ``rho_series[t]`` the k-space sum exactly."""

    @given(data=st.data())
    def test_the_simulator_is_the_k_space_sum_on_a_grid_wider_than_the_walker(self, data):
        d, n = data.draw(st.integers(1, 2), label="d"), data.draw(st.integers(2, 4), label="n")
        axis = st.tuples(*[st.integers(-2, 2)] * d)
        shifts = data.draw(st.lists(axis, min_size=n, max_size=n), label="shifts")
        site = st.tuples(*[st.integers(-3, 3)] * d)
        sites = data.draw(st.lists(site, min_size=1, max_size=3, unique=True), label="sites")
        t = data.draw(st.integers(0, 20), label="t")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        spec, state = WalkSpec(d, n, shifts, random_unitary(rng, n)), general_state(rng, sites, n)
        want = k_space_rho(spec, state, t, walker_width(spec, sites, t) + 1)
        assert np.max(np.abs(rho_series(spec, state, t)[t] - want)) <= 1e-13

    def test_a_grid_as_wide_as_the_walker_aliases(self):
        spec, t = line_walk(U2Params(0.3, 1.1, 0.4)), 30
        state = GeneralState(amplitudes={(0,): [0.6, 0], (1,): [0, 0.8]})
        width = walker_width(spec, [(0,), (1,)], t)
        assert width == 61
        got = rho_series(spec, state, t)[t]
        assert np.max(np.abs(got - k_space_rho(spec, state, t, width + 1))) <= 1e-13
        # the two sites 61 apart at step 30 share a node of the 61-point grid
        assert np.max(np.abs(got - k_space_rho(spec, state, t, width))) >= 1e-3


class TestStateMustFitTheWalk:
    @pytest.mark.parametrize(
        "state",
        [LocalState(position=(0, 0), chi=[1, 0]), LocalState(position=0, chi=[1, 0, 0])],
        ids=["lattice-dim", "coin-dim"],
    )
    @pytest.mark.parametrize("run", [rho_series, cesaro_rho])
    def test_line_walk_rejects(self, run, state):
        with pytest.raises(InvalidArgument, match="state (lattice|coin) dimension does not match"):
            run(line_walk(HADAMARD_PARAMS), state, 10)

    def test_planar_walk_rejects_a_line_state(self, rng):
        spec = WalkSpec(2, 4, E2, random_unitary(rng, 4))
        with pytest.raises(InvalidArgument, match="state lattice dimension does not match"):
            cesaro_rho(spec, LocalState(position=0, chi=[1, 0, 0, 0]), 10)


class TestCesaroAverage:
    def test_converges_to_closed_form(self):
        target = rho_local_closed(HADAMARD_PARAMS, [1, 0]).rho.matrix
        got = cesaro_rho(line_walk(HADAMARD_PARAMS), local_zero(), 2000).matrix
        assert np.max(np.abs(got - target)) <= 0.02

    def test_residual_shrinks_with_horizon(self):
        target = rho_local_closed(HADAMARD_PARAMS, [1, 0]).rho.matrix
        r = [
            float(
                np.max(
                    np.abs(
                        cesaro_rho(line_walk(HADAMARD_PARAMS), local_zero(), t).matrix
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

    def test_planar_haar_walk_matches_quadrature(self, rng):
        # ROADMAP item 5 gate: a 2-d walk checked against the oracle at a
        # horizon where 2/t is a tight budget
        spec = WalkSpec(2, 4, E2, random_unitary(rng, 4))
        state = LocalState(position=(0, 0), chi=unit_vector(rng, 4))
        t_max = 150
        quadrature = rho_asymptotic(spec, state, QuadratureGrid(64, 2)).rho.matrix
        averaged = cesaro_rho(spec, state, t_max).matrix
        assert np.max(np.abs(quadrature - averaged)) <= 2 / t_max

    def test_rejects_bad_window(self):
        # t_max = 0 leaves no step to average
        with pytest.raises(InvalidArgument, match="t_max >= 1"):
            cesaro_rho(line_walk(HADAMARD_PARAMS), local_zero(), 0)

    def test_rejects_a_non_integer_window(self):
        with pytest.raises(InvalidArgument, match="integer"):
            cesaro_rho(line_walk(HADAMARD_PARAMS), local_zero(), 10.0)

    def test_drops_the_first_twentieth_of_the_steps(self):
        spec, t_max = line_walk(HADAMARD_PARAMS), 45
        rhos = rho_series(spec, local_zero(), t_max)
        got = cesaro_rho(spec, local_zero(), t_max).matrix
        assert np.array_equal(got, DensityMatrix(rhos[3:].mean(axis=0)).matrix)


class TestUnoccupiedSites:
    """A site with zero amplitude widens no box: both steppers see only occupied sites."""

    @pytest.mark.parametrize(
        "state",
        [
            DistributedState({(0,): 1.0, (10**12,): 0.0}, [1, 0]),
            GeneralState({(-(2**62),): [0, 0], (0,): [1, 0]}),
        ],
        ids=["dist", "general"],
    )
    def test_far_empty_site_gives_the_series_of_the_occupied_one(self, state):
        spec = line_walk(HADAMARD_PARAMS)
        assert np.array_equal(rho_series(spec, state, 30), rho_series(spec, local_zero(), 30))
        assert list(initial_lattice_state(state).amplitudes) == [(0,)]
