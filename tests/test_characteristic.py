import itertools
import math

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
    u2_coin,
)
from coinwalk import characteristic
from coinwalk.characteristic import _involution_2, build_uk, characteristic_stack
from coinwalk.linalg import _FIRST_SHIFT, DEGENERACY_TOL
from conftest import (
    c_from_involution,
    partial_trace,
    random_interior_params,
    random_unitary,
    same_bits,
    swap_matrix,
)
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

    @pytest.mark.parametrize("points, dim", [(16, 1), (15, 1), (8, 2), (7, 2), (4, 3), (5, 3)])
    def test_the_quadrature_walks_the_first_nodes(self, points, dim, rng):
        # a bipartite walk on an even grid walks the first half of the nodes and builds no other
        shifts = [[1] * dim, [-1] * dim]
        spec = WalkSpec(dim, 2, shifts, random_unitary(rng, 2))
        grid = QuadratureGrid(points, dim)
        walked = []
        characteristic._grid_mean(spec, grid, lambda kb, psi: walked.append(kb) or np.zeros(()))
        count = grid.node_count // (2 if points % 2 == 0 else 1)
        assert same_bits(np.concatenate(walked), grid.nodes[:count])
        assert same_bits(grid._first_nodes(count), grid.nodes[:count])


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
    # an eigenphase within ~1e-12 of a_0 + pi, and times exp(1j a_0) a pair within ~1e-12
    # of the collision point of a_0
    @example(theta=0.7, alpha=-3.1415926535897927, beta=0.6953125, k=1e-12)
    def test_structural_invariants(self, theta, alpha, beta, k):
        walk = line_walk(U2Params(theta, alpha, beta))
        # a line walk's phases +-gamma sum to 0, the collision point of no shift; times
        # exp(1j a_0) they sum to 2 a_0 at every k: on the collision point of a_0
        phased = WalkSpec(1, 2, walk.shifts, np.exp(1j * _FIRST_SHIFT) * walk.coin)
        c, c_phased = characteristic_at_k(walk, k), characteristic_at_k(phased, k)
        assert np.max(np.abs(c_phased - c)) <= 1e-10  # a global phase moves no projector
        for c in (c, c_phased):
            assert np.max(np.abs(c - c.conj().T)) <= 1e-10
            s = swap_matrix(2)
            assert np.max(np.abs(s @ c @ s - c)) <= 1e-10
            assert np.max(np.abs(c)) <= 1 + 1e-12
            assert np.trace(c).real == pytest.approx(2.0, abs=1e-8)


class TestBatchedStack:
    @pytest.mark.parametrize(
        "walk",
        ["grover-2d", "haar-3", "haar-6-3d", "haar-2", "haar-2-2d", "merged-2", "rank-2", "rank-3"],
    )
    def test_matches_per_node_route(self, walk, rng):
        # the 2-d Grover walk has flat bands and merged eigenspaces at many nodes
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
        elif walk == "merged-2":  # a band gap of ~2e-11 at k = 0 and k = -pi: one eigenspace there
            spec = line_walk(U2Params(1e-11, 0.0, 0.0))
            ks = QuadratureGrid(64, 1).nodes
        elif walk == "rank-2":  # two shifts alike: rank 2 everywhere, rank 3 at k = 0 and -pi
            spec = WalkSpec(1, 3, [[1], [1], [-1]], np.eye(3))
            ks = QuadratureGrid(64, 1).nodes
        else:  # rank 3 at every node, and rank 4 at k = 0 and k = -pi
            spec = WalkSpec(1, 4, [[1], [1], [1], [-1]], np.eye(4))
            ks = QuadratureGrid(64, 1).nodes
        want = np.stack([characteristic_at_k(spec, k) for k in ks])
        assert np.max(np.abs(characteristic_stack(spec, ks) - want)) <= 1e-12

    @pytest.mark.parametrize(
        "walk",
        ["haar-2", "haar-2-2d", "merged-2", "near-pauli-1e-11", "near-pauli-1e-6", "near-pauli-1e-4"],
    )
    def test_involution_gives_the_per_node_c(self, walk, rng):
        # C = (I (x) I + D (x) D) / 2: the identity behind the 2x2 integrands
        bound, merged = 1e-12, 0
        if walk == "haar-2":
            spec = WalkSpec(1, 2, [[1], [-1]], random_unitary(rng, 2))
            ks = QuadratureGrid(64, 1).nodes
        elif walk == "haar-2-2d":
            spec = WalkSpec(2, 2, [[1, 2], [-1, 0]], random_unitary(rng, 2))
            ks = QuadratureGrid(8, 2).nodes
        elif walk == "merged-2":  # a band gap of ~2e-11 at k = 0 and k = -pi: one eigenspace there
            spec, merged = line_walk(U2Params(1e-11, 0.0, 0.0)), 2
            ks = QuadratureGrid(64, 1).nodes
        else:
            # the band gap at k = alpha (mod pi) is ~2 theta: merged below 1e-9,
            # ill-conditioned but resolved just above it
            theta = float(walk.rsplit("-", 1)[1])
            spec, bound, merged = line_walk(U2Params(theta, 0.3, 0.1)), 1e-10, 2 * (theta < 1e-9)
            ks = np.concatenate([QuadratureGrid(64).nodes, [[0.3], [0.3 + 1e-6], [0.3 - PI]]])
        want = np.stack([characteristic_at_k(spec, k) for k in ks])
        got = c_from_involution(_involution_2(spec, ks))
        assert np.all(got == np.eye(4), axis=(1, 2)).sum() == merged
        assert np.max(np.abs(got - want)) <= bound

    @staticmethod
    def involution_from_u_stack(spec, ks):
        """D at every node, (2, 2, M), read from a built U_k stack: _involution_2's reference."""
        u = np.moveaxis(build_uk(spec, ks), 0, 2)
        diff = u[0, 0] - u[1, 1]
        root = np.sqrt(diff**2 + 4.0 * u[0, 1] * u[1, 0])
        degenerate = np.abs(root) <= DEGENERACY_TOL
        scale = 1.0 / np.where(degenerate, 1.0, root)
        d = np.empty_like(u)
        d[0, 0] = diff * scale
        d[1, 1] = -d[0, 0]
        d[0, 1] = u[0, 1] * (2.0 * scale)
        d[1, 0] = u[1, 0] * (2.0 * scale)
        d[:, :, degenerate] = np.eye(2)[:, :, None]
        return d

    @given(
        theta=st.sampled_from([1e-11, PI / 2, 0.3, 1.2, 2.5]),
        alpha=phase,
        beta=phase,
        shifts=st.sampled_from(
            [[[1], [-1]], [[2], [-2]], [[1], [0]], [[1, 0], [-1, 0]], [[1, 1], [0, -1]]]
        ),
        haar=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # theta = 1e-11, alpha = 0 merges the two eigenvalues at k = 0 and k = -pi
    @example(theta=1e-11, alpha=0.0, beta=0.0, shifts=[[1], [-1]], haar=False, seed=0)
    def test_involution_is_the_u_stack_formula_to_the_bit(
        self, theta, alpha, beta, shifts, haar, seed
    ):
        rng = np.random.default_rng(seed)
        coin = random_unitary(rng, 2) if haar else u2_coin(U2Params(theta, alpha, beta))
        spec = WalkSpec(len(shifts[0]), 2, shifts, coin)
        ks = QuadratureGrid(16, spec.lattice_dim).nodes
        ks = np.concatenate([ks, rng.uniform(-PI, PI, size=(20, spec.lattice_dim))])
        got, want = _involution_2(spec, ks), self.involution_from_u_stack(spec, ks)
        assert got.shape == (2, 2, len(ks)) and got.flags.c_contiguous
        assert same_bits(got, want)


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

    @given(
        theta=st.floats(min_value=0.05, max_value=PI - 0.05),
        alpha=phase,
        beta=phase,
        # bipartite: [[1], [-1]], [[1, 0], [0, 1]], [[1, 2], [-1, 0]]; the others are not
        shifts=st.sampled_from(
            [[[1], [-1]], [[1], [0]], [[2], [-1]], [[1, 0], [0, 1]], [[1, 0], [0, 0]],
             [[1, 1], [-1, 0]], [[1, 2], [-1, 0]]]
        ),
        points=st.integers(min_value=1, max_value=40),
    )
    @example(theta=1e-11, alpha=0.0, beta=0.0, shifts=[[1], [-1]], points=64)  # merged at k = 0, -pi
    def test_two_band_gram_product_is_the_node_mean_of_c(self, theta, alpha, beta, shifts, points):
        # 2x2 coins sum C(k) as (M I + X^T X) / 2 from D's entries X; this pins its index order
        spec = WalkSpec(len(shifts[0]), 2, shifts, u2_coin(U2Params(theta, alpha, beta)))
        grid = QuadratureGrid(points, spec.lattice_dim)
        want = c_from_involution(_involution_2(spec, grid.nodes)).mean(axis=0)
        assert np.max(np.abs(c_local(spec, grid) - want)) <= 1e-15

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


@st.composite
def haar_walks(draw):
    """A walk with a Haar coin (d <= 3, n <= 4, shifts in [-2, 2]^d) and a grid of any size."""
    d = draw(st.integers(1, 3), label="d")
    n = draw(st.integers(2, 4), label="n")
    shifts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    points = draw(st.integers(1, {1: 40, 2: 12, 3: 6}[d]), label="N")
    return WalkSpec(d, n, shifts, random_unitary(rng, n)), QuadratureGrid(points, d)


def local_channel(spec, grid) -> np.ndarray:
    """The matrix of ``Phi(X) = <sum_w P_w X P_w>_k`` on row-major ``vec(X)``, from c_local."""
    n = spec.coin_dim
    return c_local(spec, grid).reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)


class TestLocalChannel:
    """Exact identities of the local-state channel Phi, on every grid.

    Each pinching ``X -> sum_w P_w X P_w`` is an orthogonal projection, so their
    average Phi is Hermitian and PSD with spectrum in [0, 1], unital and
    trace-preserving.
    """

    @given(walk=haar_walks())
    def test_hermitian_psd_with_spectrum_in_the_unit_interval(self, walk):
        phi = local_channel(*walk)
        assert np.max(np.abs(phi - phi.conj().T)) <= 1e-14
        spectrum = np.linalg.eigvalsh(phi)
        assert spectrum[0] >= -1e-14 and spectrum[-1] <= 1 + 1e-14

    @given(walk=haar_walks())
    def test_unital_and_trace_preserving(self, walk):
        phi = local_channel(*walk)
        identity = np.eye(walk[0].coin_dim).ravel()
        assert np.max(np.abs(phi @ identity - identity)) <= 1e-14  # Phi(I) = I
        assert np.max(np.abs(identity @ phi - identity)) <= 1e-14  # tr Phi(X) = tr X

    @given(walk=haar_walks(), seed=st.integers(0, 2**32 - 1))
    def test_kernel_holds_the_coin_conjugates_of_diagonal_matrices(self, walk, seed):
        # a diagonal A commutes with the shift phases, so U_k^dag A U_k = C^dag A C and
        # P_w (C^dag A C - A) P_w = 0 at every node
        spec, grid = walk
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(spec.coin_dim) + 1j * rng.standard_normal(spec.coin_dim)
        a = np.diag(a / np.max(np.abs(a)))
        x = spec.coin.conj().T @ a @ spec.coin - a
        assert np.max(np.abs(local_channel(spec, grid) @ x.ravel())) <= 1e-14


@st.composite
def two_band_walks(draw):
    """``(p, spec)``: the coin ``e^(i gamma) u2_coin(p)`` on two distinct shifts.

    ``|sin theta| >= sin 0.3``, of either sign, so the grid error is rounding at
    64 values of ``k.Delta`` and no node merges the two bands.
    """
    d = draw(st.integers(1, 3), label="d")
    shifts = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=2, max_size=2, unique=True)
    )
    theta = draw(st.floats(0.3, PI - 0.3), label="theta") * draw(st.sampled_from([1, -1]))
    p = U2Params(theta, draw(phase, label="alpha"), draw(phase, label="beta"))
    coin = np.exp(1j * draw(phase, label="global phase")) * u2_coin(p)
    return p, WalkSpec(d, 2, shifts, coin)


class TestTwoBandLattices:
    """A single-stage 2x2 walk's C_bar is the U(2) line's, on every lattice.

    ``U_k = e^(-i k.s_1) diag(e^(-i k.Delta), 1) C`` with ``Delta = s_0 - s_1``: the
    global phase leaves the projectors alone, and k.Delta is uniform on the
    circle when k is uniform on the torus.
    """

    @given(walk=two_band_walks(), base=st.integers(64, 68))
    def test_c_local_is_the_closed_form_of_the_line(self, walk, base):
        p, spec = walk
        # k.Delta takes N / gcd(N, g) values on the N^d grid, g the gcd of Delta's
        # components; 64 of them reach rounding for |sin theta| >= sin 0.3
        g = math.gcd(*(spec.shifts[0] - spec.shifts[1]).tolist())
        points = next(m for m in itertools.count(base) if m // math.gcd(m, g) >= 64)
        got = c_local(spec, QuadratureGrid(points, spec.lattice_dim))
        assert np.max(np.abs(got - c_local_u2(p))) <= 1e-13

    @given(walk=two_band_walks(), data=st.data())
    def test_the_null_coin_state_dephases_to_half_the_identity(self, walk, data):
        # the coin state along the Bloch vector of M = C^dag sigma_z C - sigma_z is
        # (I + M / |M|) / 2, and Phi(M) = 0 (TestLocalChannel's kernel), so rho = I / 2
        _, spec = walk
        d = spec.lattice_dim
        points = data.draw(st.integers(1, {1: 17, 2: 6, 3: 4}[d]), label="N")
        sigma_z = np.diag([1.0, -1.0])
        _, vectors = np.linalg.eigh(spec.coin.conj().T @ sigma_z @ spec.coin - sigma_z)
        state = LocalState((0,) * d, vectors[:, 1])
        result = rho_asymptotic(spec, state, QuadratureGrid(points, d))
        assert np.max(np.abs(result.rho.matrix - np.eye(2) / 2)) <= 2e-15
