import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinwalk import (
    BlochCoin,
    DimensionMismatch,
    DistributedState,
    GeneralState,
    LocalState,
    NormalizationError,
    QuadratureGrid,
    bloch_coin,
    coin_dim,
    lattice_dim,
    projector_k,
    psi_k,
    psi_k_many,
    site_table,
)

PI = np.pi
INV2 = 1 / np.sqrt(2)

phase = st.floats(min_value=-PI, max_value=PI)


def entangled_state() -> GeneralState:
    return GeneralState(amplitudes={(-1,): [INV2, 0], (1,): [0, INV2]})


class TestConstruction:
    def test_local_scalar_position_is_promoted(self):
        s = LocalState(position=0, chi=[1, 0])
        assert s.position == (0,)
        assert coin_dim(s) == 2 and lattice_dim(s) == 1

    def test_local_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            LocalState(position=0, chi=[1, 1])

    def test_distributed_rejects_unnormalized_amplitudes(self):
        with pytest.raises(NormalizationError):
            DistributedState(amplitudes={(0,): 1.0, (1,): 1.0}, chi=[1, 0])

    def test_general_rejects_mixed_coin_dims(self):
        with pytest.raises(DimensionMismatch):
            GeneralState(amplitudes={(0,): [1, 0], (1,): [0, 0, 0]})

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


class TestMomentumComponent:
    def test_local_at_origin_is_k_independent(self):
        s = LocalState(position=0, chi=[0.6, 0.8])
        for k in (0.0, 1.3, -2.2):
            assert np.allclose(psi_k(s, k), [0.6, 0.8])

    def test_local_off_origin_phase(self):
        s = LocalState(position=2, chi=[1, 0])
        k = 0.7
        assert np.allclose(psi_k(s, k), [np.exp(-2j * k), 0])

    def test_entangled_component(self):
        k = 0.9
        v = psi_k(entangled_state(), k)
        assert np.allclose(v, [INV2 * np.exp(1j * k), INV2 * np.exp(-1j * k)])

    def test_distributed_cosine_profile(self):
        s = DistributedState(amplitudes={(-1,): INV2, (1,): INV2}, chi=[1, 0])
        k = 0.35
        assert np.allclose(psi_k(s, k), [np.sqrt(2) * np.cos(k), 0])

    def test_many_matches_scalar(self, rng):
        s = entangled_state()
        ks = rng.uniform(-PI, PI, size=(17, 1))
        batch = psi_k_many(s, ks)
        for row, k in zip(batch, ks):
            assert np.allclose(row, psi_k(s, k))

    def test_many_rejects_wrong_dim(self):
        with pytest.raises(DimensionMismatch):
            psi_k_many(entangled_state(), np.zeros((4, 2)))


class TestProjector:
    def test_local_projector_constant(self):
        s = LocalState(position=5, chi=[1, 0])
        for k in (0.0, 0.4, -1.9):
            assert np.allclose(projector_k(s, k), [[1, 0], [0, 0]])

    def test_entangled_projector(self):
        k = 1.1
        p = projector_k(entangled_state(), k)
        expected = 0.5 * np.array(
            [[1, np.exp(2j * k)], [np.exp(-2j * k), 1]], dtype=complex
        )
        assert np.allclose(p, expected)

    def test_distributed_projector_is_weight_times_coin_projector(self):
        chi = bloch_coin(BlochCoin(0.7, -0.3))
        s = DistributedState(amplitudes={(-1,): INV2, (1,): INV2}, chi=chi)
        k = 0.55
        expected = 2 * np.cos(k) ** 2 * np.outer(chi, chi.conj())
        assert np.allclose(projector_k(s, k), expected)

    @given(k=phase)
    def test_rank_at_most_one(self, k):
        p = projector_k(entangled_state(), k)
        eigs = np.sort(np.linalg.eigvalsh(p))
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
