import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinwalk import (
    BlochCoin,
    DimensionMismatch,
    DistributedState,
    GeneralState,
    InvalidArgument,
    LocalState,
    NormalizationError,
    QuadratureGrid,
    bloch_coin,
)
from coinwalk.characteristic import psi_on_grid
from coinwalk.states import psi_k_many, site_table, to_origin

PI = np.pi
INV2 = 1 / np.sqrt(2)

phase = st.floats(min_value=-PI, max_value=PI)


def entangled_state() -> GeneralState:
    return GeneralState(amplitudes={(-1,): [INV2, 0], (1,): [0, INV2]})


class TestConstruction:
    def test_local_scalar_position_is_promoted(self):
        s = LocalState(position=0, chi=[1, 0])
        assert s.position == (0,)
        positions, coeffs = site_table(s)
        assert positions.shape == (1, 1) and coeffs.shape == (1, 2)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LocalState((1.5,), [1, 0]),
            lambda: LocalState(1.5, [1, 0]),
            lambda: DistributedState({(2.7,): 1.0}, [1, 0]),
        ],
        ids=["local-tuple", "local-scalar", "distributed-key"],
    )
    def test_rejects_a_float_position(self, make):
        with pytest.raises(InvalidArgument):
            make()

    def test_local_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            LocalState(position=0, chi=[1, 1])

    def test_distributed_rejects_unnormalized_amplitudes(self):
        with pytest.raises(NormalizationError):
            DistributedState(amplitudes={(0,): 1.0, (1,): 1.0}, chi=[1, 0])

    def test_rejects_a_coin_vector_that_is_not_1d(self):
        with pytest.raises(DimensionMismatch):
            LocalState(0, [[1, 0], [0, 0]])

    def test_general_rejects_mixed_coin_dims(self):
        with pytest.raises(DimensionMismatch):
            GeneralState(amplitudes={(0,): [1, 0], (1,): [0, 0, 0]})

    def test_distributed_rejects_mixed_position_lengths(self):
        with pytest.raises(DimensionMismatch):
            DistributedState(amplitudes={(0,): INV2, (0, 0): INV2}, chi=[1, 0])

    def test_general_rejects_mixed_position_lengths(self):
        with pytest.raises(DimensionMismatch):
            GeneralState(amplitudes={(0,): [INV2, 0], (1, 2): [0, INV2]})

    def test_general_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            GeneralState(amplitudes={(0,): [1, 0], (1,): [0, 1]})

    def test_bloch_coin(self):
        assert np.allclose(bloch_coin(BlochCoin(0, 0)), [1, 0])
        assert np.allclose(bloch_coin(BlochCoin(PI, 0.4)), [0, np.exp(0.4j)])
        v = bloch_coin(BlochCoin(PI / 2, PI / 2))
        assert np.allclose(v, [INV2, 1j * INV2])

    def test_site_table_sorted(self):
        s = DistributedState(amplitudes={(3,): INV2, (-2,): INV2}, chi=[0, 1])
        positions, coeffs = site_table(s)
        assert positions[:, 0].tolist() == [-2, 3]
        assert np.allclose(coeffs, [[0, INV2], [0, INV2]])

    @pytest.mark.parametrize(
        "state",
        [
            DistributedState({(0,): 1.0, (5000,): 0.0, (-7,): 0.0}, [0.6, 0.8j]),
            GeneralState({(9000,): [0, 0], (0,): [0.6, 0.8j], (-(2**63),): [0, 0]}),
        ],
        ids=["dist", "general"],
    )
    def test_site_table_lists_only_occupied_sites(self, state):
        positions, coeffs = site_table(state)
        assert positions.tolist() == [[0]]
        assert np.array_equal(coeffs, [[0.6, 0.8j]])


KS = np.array([[0.0], [0.35], [1.3], [-2.2]])


def projectors_at(state, ks) -> np.ndarray:
    """``|psi_k><psi_k|`` at every row of ``ks``, as the quadrature pipeline forms it."""
    psi = psi_k_many(state, ks)
    return psi[:, :, None] * psi.conj()[:, None, :]


def projectors(state) -> np.ndarray:
    """``|psi_k><psi_k|`` at every row of KS."""
    return projectors_at(state, KS)


class TestMomentumComponent:
    def test_local_at_origin_is_k_independent(self):
        s = LocalState(position=0, chi=[0.6, 0.8])
        assert np.allclose(psi_k_many(s, KS), [[0.6, 0.8]] * len(KS))

    def test_local_off_origin_phase(self):
        s = LocalState(position=2, chi=[1, 0])
        want = [[np.exp(-2j * k), 0] for k in KS[:, 0]]
        assert np.allclose(psi_k_many(s, KS), want)

    def test_entangled_component(self):
        want = [[INV2 * np.exp(1j * k), INV2 * np.exp(-1j * k)] for k in KS[:, 0]]
        assert np.allclose(psi_k_many(entangled_state(), KS), want)

    def test_distributed_cosine_profile(self):
        s = DistributedState(amplitudes={(-1,): INV2, (1,): INV2}, chi=[1, 0])
        want = [[np.sqrt(2) * np.cos(k), 0] for k in KS[:, 0]]
        assert np.allclose(psi_k_many(s, KS), want)

    def test_many_matches_scalar(self, rng):
        # each row is the site sum sum_r exp(-1j k.r) c_r taken one k at a time
        s = GeneralState(amplitudes={(0, 0): [0.6, 0], (2, -1): [0, 0.8j]})
        ks = rng.uniform(-PI, PI, size=(17, 2))
        batch = psi_k_many(s, ks)
        for row, k in zip(batch, ks):
            want = 0.6 * np.array([1, 0]) + np.exp(-1j * (2 * k[0] - k[1])) * np.array([0, 0.8j])
            assert np.allclose(row, want)

    @pytest.mark.parametrize("far", [10**8, 10**17, 2**63 - 2])
    def test_far_from_the_origin_keeps_the_separation_phases(self, far):
        # the projector depends on the separation only; absolute phases of
        # k * 10**17 would leave none of its digits
        near = DistributedState(amplitudes={(0,): INV2, (1,): INV2}, chi=[0.6, 0.8j])
        moved = DistributedState(amplitudes={(far,): INV2, (far + 1,): INV2}, chi=[0.6, 0.8j])
        ks = QuadratureGrid(4096, 1).nodes
        p_near = projectors_at(near, ks)
        assert np.max(np.abs(projectors_at(moved, ks) - p_near)) <= 1e-15

    def test_positions_int64_apart(self):
        # the separation 2**64 - 1 itself does not fit in int64
        s = DistributedState(amplitudes={(-(2**63),): INV2, (2**63 - 1,): INV2}, chi=[1, 0])
        ks = np.array([[0.0], [2 * PI / 3]])
        want = INV2 * (np.exp(2j * PI / 3 * 2**63) + np.exp(-2j * PI / 3 * (2**63 - 1)))
        got = psi_k_many(s, ks)
        assert np.allclose(got[0], [np.sqrt(2), 0])
        assert abs(abs(got[1, 0]) - abs(want)) <= 1e-12

    def test_many_rejects_wrong_dim(self):
        with pytest.raises(DimensionMismatch):
            psi_k_many(entangled_state(), np.zeros((4, 2)))


class TestProjector:
    def test_local_projector_constant(self):
        s = LocalState(position=5, chi=[1, 0])
        assert np.allclose(projectors(s), [[[1, 0], [0, 0]]] * len(KS))

    def test_entangled_projector(self):
        want = [0.5 * np.array([[1, np.exp(2j * k)], [np.exp(-2j * k), 1]]) for k in KS[:, 0]]
        assert np.allclose(projectors(entangled_state()), want)

    def test_distributed_projector_is_weight_times_coin_projector(self):
        chi = bloch_coin(BlochCoin(0.7, -0.3))
        s = DistributedState(amplitudes={(-1,): INV2, (1,): INV2}, chi=chi)
        want = [2 * np.cos(k) ** 2 * np.outer(chi, chi.conj()) for k in KS[:, 0]]
        assert np.allclose(projectors(s), want)

    @given(k=phase)
    def test_rank_at_most_one(self, k):
        psi = psi_k_many(entangled_state(), np.array([[k]]))[0]
        eigs = np.sort(np.linalg.eigvalsh(np.outer(psi, psi.conj())))
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)

    def test_parseval(self, rng):
        # mean of |psi_k|^2 over the Brillouin zone equals the state norm
        amps = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
        s = GeneralState(
            amplitudes={(int(x),): amps[j] for j, x in enumerate((-3, -1, 2, 5))}
        )
        nodes = QuadratureGrid(1024, 1).nodes
        batch = psi_k_many(s, nodes)
        total = float(np.mean(np.sum(np.abs(batch) ** 2, axis=1)))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestPsiOnGrid:
    """psi_k from one FFT per row of grid nodes against the direct sum at the same nodes."""

    @given(data=st.data())
    def test_matches_the_direct_sum(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        size = data.draw(st.integers(1, 40), label="N")
        span = data.draw(st.integers(0, 3 * size), label="span")  # sites N or more apart fold
        sites = data.draw(
            st.lists(st.tuples(*[st.integers(0, span)] * d), min_size=1, max_size=8, unique=True),
            label="sites",
        )
        offset = data.draw(st.tuples(*[st.integers(-(2**63), 2**63 - 1 - span)] * d), label="offset")
        n = data.draw(st.integers(1, 3), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        coeffs = rng.standard_normal((len(sites), n)) + 1j * rng.standard_normal((len(sites), n))
        coeffs /= np.linalg.norm(coeffs)
        far = GeneralState({tuple(o + x for o, x in zip(offset, r)): c for r, c in zip(sites, coeffs)})
        positions, table_coeffs = site_table(far)
        positions = to_origin(positions)
        state = GeneralState({tuple(int(x) for x in r): c for r, c in zip(positions, table_coeffs)})
        grid = QuadratureGrid(size, d)
        start = data.draw(st.integers(0, grid.node_count - 1), label="start")  # may begin mid-row
        stop = data.draw(st.integers(start + 1, grid.node_count), label="stop")
        partners = data.draw(st.booleans(), label="partners")
        got = psi_on_grid((positions, table_coeffs), grid, start, stop, partners)
        assert got.shape == (1 + partners, stop - start, n)
        # the second slab holds psi at the partner nodes k + pi (1, ..., 1)
        for slab, shift in zip(got, (0.0, PI)):
            want = psi_k_many(state, grid.nodes[start:stop] + shift)
            # the direct sum rounds each phase k.r, |k.r| <= (pi + shift) d span, by about eps |k.r|
            rounding = 2 * np.finfo(float).eps * (PI + shift) * d * span * np.abs(coeffs).sum()
            assert np.max(np.abs(slab - want)) <= 1e-13 + rounding

    def test_rejects_a_grid_of_another_dimension(self):
        with pytest.raises(DimensionMismatch):
            psi_on_grid(site_table(entangled_state()), QuadratureGrid(4, 2), 0, 16, False)


class TestAtOrigin:
    """The table-level translation that makes results depend on separations only."""

    @pytest.mark.parametrize(
        "state, want",
        [
            (LocalState((3, -7), [1, 0]), LocalState((0, 0), [1, 0])),
            (
                DistributedState({(5,): 0.6, (9,): 0.8}, [0, 1]),
                DistributedState({(0,): 0.6, (4,): 0.8}, [0, 1]),
            ),
            (
                GeneralState({(2**63 - 1, -4): [0.6, 0], (2**62, 3): [0, 0.8]}),
                GeneralState({(2**63 - 1 - 2**62, 0): [0.6, 0], (0, 7): [0, 0.8]}),
            ),
        ],
    )
    def test_moves_the_smallest_position_on_each_axis_to_zero(self, state, want):
        got_positions, got_coeffs = site_table(state)
        want_positions, want_coeffs = site_table(want)
        assert np.array_equal(to_origin(got_positions), want_positions)
        assert to_origin(got_positions).dtype == np.int64
        assert np.array_equal(got_coeffs, want_coeffs)

    def test_projectors_of_every_translate_agree_to_the_last_bit(self):
        s = GeneralState({(-3, 1): [0.6, 0], (4, 2): [0, 0.8j]})
        far = GeneralState({(10**15 - 3, -(10**12) + 1): [0.6, 0], (10**15 + 4, -(10**12) + 2): [0, 0.8j]})
        grid = QuadratureGrid(16, 2)

        def projectors_on_grid(state):
            positions, coeffs = site_table(state)
            psi = psi_on_grid((to_origin(positions), coeffs), grid, 0, grid.node_count, True)
            return psi[..., :, None] * psi.conj()[..., None, :]

        assert np.array_equal(projectors_on_grid(s), projectors_on_grid(far))

    def test_rejects_positions_int64_apart(self):
        positions, _ = site_table(DistributedState({(-(2**63),): INV2, (2**63 - 1,): INV2}, [1, 0]))
        with pytest.raises(InvalidArgument, match="beyond int64"):
            to_origin(positions)
