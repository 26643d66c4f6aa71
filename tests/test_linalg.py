import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import coinwalk.linalg
from coinwalk import (
    DensityMatrix,
    InvalidArgument,
    LocalState,
    NumericalFailure,
    QuadratureGrid,
    U2Params,
    WalkSpec,
    build_uk,
    line_walk,
    rho_asymptotic,
    von_neumann_entropy,
)
from coinwalk.linalg import (
    _FIRST_SHIFT,
    DEGENERACY_TOL,
    _eig_unitary_stack,
    eig_unitary,
    eig_unitary_batch,
    is_unitary,
)
from conftest import boundary_coin, partial_trace, random_unitary, unit_vector

# C(pi/2) of the Hadamard-coin line walk, from the closed form evaluated by
# hand: L = 1/2, F = 0, G = -1/2
HADAMARD_C_AT_HALF_PI = np.array(
    [
        [0.5, 0, 0, -0.5],
        [0, 0.5, 0.5, 0],
        [0, 0.5, 0.5, 0],
        [-0.5, 0, 0, 0.5],
    ],
    dtype=complex,
)


class TestPredicates:
    def test_unitary(self):
        assert is_unitary(np.eye(3))
        assert not is_unitary(2 * np.eye(3))
        assert not is_unitary(np.ones((2, 3)))

    def test_unitary_stack(self, rng):
        stack = np.stack([random_unitary(rng, 3), random_unitary(rng, 3)])
        assert is_unitary(stack)
        stack[1, 2, 2] *= 1 + 1e-9
        assert not is_unitary(stack)
        assert is_unitary(np.zeros((0, 3, 3)))  # every matrix of an empty stack passes

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_a_non_finite_entry_is_not_unitary(self, bad, rng):
        # refused before a^dag a, whose inf * 0 warns
        stack = np.stack([random_unitary(rng, 3), random_unitary(rng, 3)])
        stack[1, 0, 0] = bad
        assert not is_unitary(stack)
        assert not is_unitary(stack[1])
        with pytest.raises(InvalidArgument, match="not a stack of matrices unitary within 1e-10"):
            eig_unitary([[bad, 0], [0, 1]])


def eigenspaces(labels) -> list[tuple[int, ...]]:
    """The column indices of each eigenspace, in label order."""
    return [tuple(np.flatnonzero(labels == g).tolist()) for g in np.unique(labels)]


def projector(vectors, group) -> np.ndarray:
    """Orthogonal projector onto the span of the columns ``group`` of ``vectors``."""
    v = vectors[:, list(group)]
    return v @ v.conj().T


class TestEigUnitary:
    def test_identity(self):
        phases, vectors, labels = eig_unitary(np.eye(2))
        assert np.allclose(phases, [0.0, 0.0])
        assert len(eigenspaces(labels)) == 1
        assert np.allclose(projector(vectors, eigenspaces(labels)[0]), np.eye(2))

    def test_diagonal(self):
        u = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
        phases, vectors, _ = eig_unitary(u)
        assert np.allclose(phases, [-np.pi / 4, np.pi / 4])
        assert np.allclose(np.abs(vectors), [[0, 1], [1, 0]])

    def test_is_the_batch_at_one_node(self, rng):
        u = random_unitary(rng, 3)
        single = eig_unitary(u)
        batch = eig_unitary_batch(u[None])
        assert [a.shape for a in single] == [(3,), (3, 3), (3,)]
        for a, b in zip(single, batch):
            assert np.array_equal(a, b[0])

    def test_hadamard_walk_operator_at_half_pi(self):
        # U_k at k=pi/2 for theta=pi/4, alpha=beta=pi/2: by hand, the
        # characteristic polynomial gives cos(gamma) = cos(pi/4), phases +-pi/4
        from coinwalk import U2Params, build_uk, line_walk

        uk = build_uk(line_walk(U2Params(np.pi / 4, np.pi / 2, np.pi / 2)), np.pi / 2)
        phases, _, _ = eig_unitary(uk)
        assert np.allclose(phases, [-np.pi / 4, np.pi / 4], atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidArgument, match="not a stack of matrices unitary within 1e-10"):
            eig_unitary([[1, 0], [0, 2]])

    def test_roundtrip_random_unitaries(self, rng):
        for i in range(100):
            n = int(rng.integers(2, 7))
            u = random_unitary(rng, n)
            phases, vectors, _ = eig_unitary(u)
            rebuilt = (vectors * np.exp(1j * phases)) @ vectors.conj().T
            assert np.max(np.abs(u - rebuilt)) <= 1e-11
            gram = vectors.conj().T @ vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-12

    def test_degenerate_group_projector(self, rng):
        v = random_unitary(rng, 3)
        lam, mu = np.exp(0.4j), np.exp(-1.1j)
        u = v @ np.diag([lam, lam, mu]) @ v.conj().T
        _, vectors, labels = eig_unitary(u)
        sizes = sorted(len(g) for g in eigenspaces(labels))
        assert sizes == [1, 2]
        big = next(g for g in eigenspaces(labels) if len(g) == 2)
        expected = v[:, :2] @ v[:, :2].conj().T
        assert np.max(np.abs(projector(vectors, big) - expected)) <= 1e-10

    def test_phase_branch(self):
        phases, _, _ = eig_unitary(np.diag([-1.0 + 0j, 1.0]))
        assert np.pi in phases  # principal value maps -pi to +pi
        assert all(-np.pi < w <= np.pi for w in phases)


class TestEigUnitaryBatch:
    def test_mixed_stack_matches_per_node_solves(self, rng):
        delta = 1e-11
        spectra = [
            [0.3, -1.2, 2.0, 2.9],  # non-degenerate
            [0.4, 0.4, -1.1, 1.7],  # one rank-2 eigenspace
            [np.pi - delta, -np.pi + delta, 0.5, -0.8],  # a pair across the wrap
            [np.pi, np.pi, -np.pi + delta, 1.0],  # a rank-3 eigenspace at the wrap
        ]
        bases = [random_unitary(rng, 4) for _ in spectra]
        stack = np.stack(
            [v @ np.diag(np.exp(1j * np.array(w))) @ v.conj().T for v, w in zip(bases, spectra)]
        )
        phases, vectors, labels = eig_unitary_batch(stack)
        sizes = []
        for m, (v, w) in enumerate(zip(bases, spectra)):
            single_phases, single_vectors, single_labels = eig_unitary(stack[m])
            assert np.array_equal(phases[m], single_phases)
            groups = eigenspaces(labels[m])
            assert sorted(groups) == sorted(eigenspaces(single_labels))
            sizes.append(sorted(len(g) for g in groups))
            for g in groups:
                got = vectors[m][:, g] @ vectors[m][:, g].conj().T
                # eigenspace projector built from the eigenvalues put in
                members = np.abs(np.exp(1j * np.array(w)) - np.exp(1j * phases[m, g[0]])) < 1e-6
                want = v[:, members] @ v[:, members].conj().T
                assert np.max(np.abs(got - want)) <= 1e-10
                assert np.max(np.abs(projector(single_vectors, g) - want)) <= 1e-10
        assert sizes == [[1, 1, 1, 1], [1, 1, 2], [1, 1, 2], [1, 3]]

    def test_rejects_non_unitary_node(self, rng):
        stack = np.stack([random_unitary(rng, 3), np.diag([1.0, 1.0, 2.0])])
        with pytest.raises(InvalidArgument, match="not a stack of matrices unitary within 1e-10"):
            eig_unitary_batch(stack)

    def test_rejects_an_empty_stack(self):
        with pytest.raises(InvalidArgument, match="expected a non-empty stack of matrices"):
            eig_unitary_batch(np.zeros((0, 2, 2)))


def with_spectra(bases, spectra) -> np.ndarray:
    """The stack of ``v diag(exp(1j w)) v^dag`` over paired bases and eigenphases."""
    return np.stack(
        [v @ np.diag(np.exp(1j * np.array(w))) @ v.conj().T for v, w in zip(bases, spectra)]
    )


def eigenspace_projectors(phases, vectors, labels) -> np.ndarray:
    """(M, n, n, n): at [m, j] the projector onto the eigenspace of column j.

    Built as ``V E V^-1`` for the mask E of the column's eigenspace, which is
    right also when V is not orthonormal inside a degenerate eigenspace.
    """
    same = (labels[:, :, None] == labels[:, None, :]).astype(float)
    inverse = np.linalg.inv(vectors)
    return np.einsum("mik,mjk,mkl->mjil", vectors, same, inverse)


def eig_reference(u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.eig`` per node, sorted and grouped by the ``DEGENERACY_TOL`` rule."""
    values, vectors = np.linalg.eig(u)
    phases = np.angle(values)
    phases[phases <= -np.pi] += 2 * np.pi
    order = np.argsort(phases, axis=1)
    phases = np.take_along_axis(phases, order, axis=1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
    return phases, vectors, wrapped_labels(phases)


def wrapped_labels(phases) -> np.ndarray:
    """Labels of phases (M, n) ascending in (-pi, pi], one node at a time.

    A gap above ``DEGENERACY_TOL`` starts a new eigenspace, and the last one
    joins the first when they are that close across the wrap at +/-pi.
    """
    labels = np.zeros(phases.shape, dtype=int)
    for m, w in enumerate(phases):
        for j in range(1, len(w)):
            labels[m, j] = labels[m, j - 1] + (w[j] - w[j - 1] > DEGENERACY_TOL)
        if w[0] + 2 * np.pi - w[-1] <= DEGENERACY_TOL:
            labels[m, labels[m] == labels[m, -1]] = 0
    return labels


def cayley_pole(j: int, n: int) -> float:
    """The eigenphase in (-pi, pi] on the pole of Cayley shift j for coin dimension n."""
    return float(np.angle(np.exp(1j * (_FIRST_SHIFT + 2 * np.pi * j / (n + 1) + np.pi))))


class TestCayleySolve:
    """``eig_unitary_batch`` against ``np.linalg.eig``, compared through eigenspace projectors."""

    def assert_matches_eig(self, stack, tol):
        phases, vectors, labels = eig_unitary_batch(stack)
        ref_phases, ref_vectors, ref_labels = eig_reference(stack)
        assert np.all((phases > -np.pi) & (phases <= np.pi))
        assert np.all(np.diff(phases, axis=1) >= 0)
        # an eigenvalue on -1 may sort first in one route and last in the
        # other, so columns are paired by the nearest eigenvalue
        chord = np.abs(np.exp(1j * phases)[:, :, None] - np.exp(1j * ref_phases)[:, None, :])
        pair = np.argmin(chord, axis=2)
        assert np.max(np.min(chord, axis=2)) <= 1e-12
        for got_labels, want_labels in zip(labels, ref_labels):
            sizes = [np.unique(x, return_counts=True)[1].tolist() for x in (got_labels, want_labels)]
            assert sorted(sizes[0]) == sorted(sizes[1])
        got = eigenspace_projectors(phases, vectors, labels)
        want = eigenspace_projectors(ref_phases, ref_vectors, ref_labels)
        want = np.take_along_axis(want, pair[:, :, None, None], axis=1)
        assert np.max(np.abs(got - want)) <= tol
        return phases, vectors, labels

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_haar_stacks(self, n, rng):
        stack = np.stack([random_unitary(rng, n) for _ in range(200)])
        self.assert_matches_eig(stack, 1e-11)

    def test_exact_degeneracies(self, rng):
        spectra = [
            [0.4, 0.4, -1.1, 1.7],  # a rank-2 eigenspace
            [np.pi, -np.pi + 1e-12, 0.5, -0.8],  # a pair across the wrap at +-pi
            [2.0, 2.0, 2.0, -2.5],  # a rank-3 eigenspace
            [1.0, 1.0, 1.0, 1.0],  # a scalar matrix
        ]
        stack = with_spectra([random_unitary(rng, 4) for _ in spectra], spectra)
        _, _, labels = self.assert_matches_eig(stack, 1e-10)
        sizes = [sorted(np.unique(row, return_counts=True)[1].tolist()) for row in labels]
        assert sizes == [[1, 1, 2], [1, 1, 2], [1, 3], [4]]

    def test_grover_flat_bands(self):
        # the 2-d Grover walk has flat bands at +-1 and merged eigenspaces at
        # many nodes (Inui, Konishi & Segawa, PRA 69, 052323 (2004))
        coin = np.full((4, 4), 0.5) - np.eye(4)
        spec = WalkSpec(2, 4, [[1, 0], [-1, 0], [0, 1], [0, -1]], coin)
        stack = build_uk(spec, QuadratureGrid(16, 2).nodes)
        _, _, labels = self.assert_matches_eig(stack, 1e-10)
        assert np.any(labels.max(axis=1) < 3)  # some node has a degenerate eigenspace

    @pytest.mark.parametrize("gap", [1e-8, 1e-6])
    def test_close_eigenphases_within_eps_over_gap(self, gap, rng):
        bases = [random_unitary(rng, 4) for _ in range(20)]
        spectra = [[0.3, 0.3 + gap, -1.0, 2.0]] * len(bases)
        stack = with_spectra(bases, spectra)
        phases, vectors, labels = eig_unitary_batch(stack)
        assert np.all(labels.max(axis=1) == 3)  # the pair stays apart above DEGENERACY_TOL
        bound = 200 * np.finfo(float).eps / gap
        got = eigenspace_projectors(phases, vectors, labels)
        for m, v in enumerate(bases):
            # the input's own eigenvectors, in ascending phase order
            want = np.einsum("ij,kj->jik", v[:, [2, 0, 1, 3]], v[:, [2, 0, 1, 3]].conj())
            assert np.max(np.abs(got[m] - want)) <= bound
        self.assert_matches_eig(stack, 2 * bound)

    def test_poles_are_retried_with_the_next_shifts(self, rng, monkeypatch):
        n = 4
        first, second = cayley_pole(0, n), cayley_pole(1, n)
        spectra = [
            [first, 0.3, 1.2, 2.5],  # on the first pole
            [first, second, 0.3, 2.9],  # on the first two poles at once
            [first + 1e-3, -0.4, 0.8, 1.9],  # near it: 1e-3 rad is inside the retry band
            [0.1, 0.9, 1.6, -0.6],  # clear of every pole
        ]
        stack = with_spectra([random_unitary(rng, n) for _ in spectra], spectra)
        rounds = []
        cayley = coinwalk.linalg._cayley

        def counted(v):
            rounds.append(len(v))
            return cayley(v)

        monkeypatch.setattr(coinwalk.linalg, "_cayley", counted)
        self.assert_matches_eig(stack, 1e-10)
        assert rounds == [4, 3, 1]

    def test_numerically_singular_node_does_not_fail_its_batch(self, rng):
        # exp(-1j a_0) u is -1 up to rounding, so I + V has a pivot of ~1e-17
        # (exactly 0 where the product is not fused)
        u = -np.conj(np.exp(-1j * _FIRST_SHIFT))
        singular = np.diag([u, np.exp(0.4j), np.exp(-1.3j), np.exp(2.2j)])
        stack = np.stack([random_unitary(rng, 4), singular, random_unitary(rng, 4)])
        assert abs(1 + (np.exp(-1j * _FIRST_SHIFT) * stack)[1, 0, 0]) <= 1e-16
        phases, vectors, _ = self.assert_matches_eig(stack, 1e-12)
        assert abs(phases[1, 0] - cayley_pole(0, 4)) <= 1e-15
        # ascending phases: the pole near -2.44, then -1.3, 0.4 and 2.2
        assert np.max(np.abs(np.abs(vectors[1]) - np.eye(4)[:, [0, 2, 1, 3]])) <= 1e-15

    def test_exactly_singular_node_is_left_for_the_next_shift(self, rng):
        v = np.stack([random_unitary(rng, 3), np.diag([-1.0, 1j, -1j]), random_unitary(rng, 3)])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.eye(3) + v, np.eye(3))
        h = coinwalk.linalg._cayley(v)
        assert np.array_equal(h[1], np.zeros((3, 3)))  # its eigenpairs fail the fit
        for m in (0, 2):
            x = np.linalg.solve(np.eye(3) + v[m], np.eye(3) - v[m])
            assert np.max(np.abs(h[m] - 1j * x)) <= 1e-12
            assert np.array_equal(h[m], h[m].conj().T)

    def test_non_unitary_node_raises(self, rng):
        stack = np.stack([random_unitary(rng, 5) for _ in range(3)])
        stack[1] *= 1 + 1e-9
        with pytest.raises(InvalidArgument, match="not a stack of matrices unitary within 1e-10"):
            eig_unitary_batch(stack)

    @pytest.mark.parametrize(
        "shifts, points",
        [
            ([[1], [0], [-1]], 256),  # the lazy line
            ([[1, 0], [-1, 0], [0, 1], [0, -1]], 16),  # the square lattice
            ([[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]], 16),  # ... and a lazy coin state
            ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], 6),
        ],
        ids=["n=3", "n=4", "n=5", "n=6"],
    )
    @pytest.mark.parametrize("deviation", [4e-12, 3e-11, 9.9e-11, pytest.param(None, id="boundary")])
    def test_coins_admitted_as_unitary_are_solved(self, shifts, points, deviation, rng):
        # WalkSpec admits a coin unitary within 1e-10, and a node of such a walk
        # keeps an eigenvector residual of about its deviation at every shift
        n, d = np.shape(shifts)
        coin = random_unitary(rng, n)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h += h.conj().T
        state, grid = LocalState((0,) * d, unit_vector(rng, n)), QuadratureGrid(points, d)
        if deviation is None:  # admitted to the last bit: some U_k are not, and are solved
            near = boundary_coin(coin, h)
            assert not is_unitary(build_uk(WalkSpec(d, n, shifts, near), grid.nodes))
        else:  # (I + e h) coin^dag coin (I + e h) - I = 2 e h + O(e^2)
            near = coin @ (np.eye(n) + deviation / (2 * np.max(np.abs(h))) * h)
            assert 0.99 * deviation <= np.max(np.abs(near.conj().T @ near - np.eye(n))) <= 1e-10
        u, _, vh = np.linalg.svd(near)
        got = rho_asymptotic(WalkSpec(d, n, shifts, near), state, grid).rho.matrix
        want = rho_asymptotic(WalkSpec(d, n, shifts, u @ vh), state, grid).rho.matrix
        # the Cayley transform's Hermitian part drops the first order in e
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_a_node_on_every_pole_is_a_numerical_failure(self, rng, monkeypatch):
        # every node is singular: its H = 0 fails the fit, so each is left for the next shift
        def singular(v):
            return np.zeros_like(v)

        monkeypatch.setattr(coinwalk.linalg, "_cayley", singular)
        stack = np.stack([random_unitary(rng, 3) for _ in range(5)])
        with pytest.raises(NumericalFailure, match="^5 nodes keep an eigenphase on every Cayley"):
            eig_unitary_batch(stack)

    def test_a_failed_eigh_is_a_numerical_failure(self, rng, monkeypatch):
        def unconverged(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        stack = np.stack([random_unitary(rng, 3) for _ in range(2)])
        with pytest.raises(NumericalFailure, match="^eigensolver failed: Eigenvalues did not converge$"):
            eig_unitary_batch(stack)

    def test_eigenvectors_that_fit_but_are_not_orthonormal_are_a_numerical_failure(
        self, rng, monkeypatch
    ):
        # vectors 1 + 1e-9 long still pass the 1e-9 fit, whose residual they only
        # scale, but have a Gram error of 2e-9
        eigh = np.linalg.eigh

        def stretched(h):
            w, x = eigh(h)
            return w, x * (1 + 1e-9)

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        stack = np.stack([random_unitary(rng, 3) for _ in range(2)])
        with pytest.raises(
            NumericalFailure, match="^eigenvector orthonormality error 2.000e-09 exceeds 1e-12$"
        ):
            eig_unitary_batch(stack)


@st.composite
def clustered_spectra(draw) -> list[list[float]]:
    """Eigenphases of 1-4 nodes of one coin dimension n <= 6, in clusters.

    Each phase opens a cluster at a centre (+-pi or just inside it, a pole of
    the first two Cayley shifts, or any phase) or joins an earlier one, 0 or
    1e-12 rad from its centre. A centre within 1e-3 rad of an earlier one on
    the circle joins it instead: exactly where they differ by up to 1e-11
    (the pair pi, -pi + 1e-12 across the wrap), at the earlier centre
    otherwise, so distinct eigenspaces are at least 1e-3 apart.
    """
    n = draw(st.integers(2, 6))
    poles = [cayley_pole(0, n), cayley_pole(1, n)]
    special = st.sampled_from([np.pi, -np.pi + 1e-12, np.pi - 1e-12, *poles])
    spectra = []
    for _ in range(draw(st.integers(1, 4))):
        centres, spectrum = [], []
        for _ in range(n):
            if centres and draw(st.booleans()):
                offset = draw(st.sampled_from([0.0, 1e-12]))
                spectrum.append(draw(st.sampled_from(centres)) + offset)
                continue
            phase = draw(special | st.floats(-np.pi, np.pi))
            apart = np.abs(np.angle(np.exp(1j * (phase - np.array(centres)))))
            if centres and apart.min() < 1e-3:
                near = centres[int(np.argmin(apart))]
                spectrum.append(phase if apart.min() <= 1e-11 else near)
            else:
                centres.append(phase)
                spectrum.append(phase)
        spectra.append(spectrum)
    return spectra


def partition(labels, columns) -> set[frozenset]:
    """The eigenspaces of one node as sets of ``columns``, grouped by ``labels``."""
    return {frozenset(np.asarray(columns)[labels == g].tolist()) for g in np.unique(labels)}


class TestColumnOrder:
    """The quadrature's solver keeps ``eigh``'s columns and finds the sorted route's eigenspaces."""

    @staticmethod
    def assert_same_eigenspaces(stack):
        phases, vectors, labels = _eig_unitary_stack(stack)
        sorted_phases, sorted_vectors, sorted_labels = eig_unitary_batch(stack)
        m, n = labels.shape
        # eigh's order: phases ascend, and the labels count the gaps, with no wrap
        assert np.all(np.diff(phases, axis=1) >= 0)
        assert np.all(labels[:, 0] == 0)
        assert np.array_equal(np.diff(labels, axis=1), np.diff(phases, axis=1) > DEGENERACY_TOL)
        # the public route: ascending in (-pi, pi], joined across the wrap
        assert np.all((sorted_phases > -np.pi) & (sorted_phases <= np.pi))
        assert np.all(np.diff(sorted_phases, axis=1) >= 0)
        assert np.array_equal(sorted_labels, wrapped_labels(sorted_phases))
        for node in range(m):
            # every sorted column is one of eigh's columns, to the bit
            match = [
                next(i for i in range(n) if np.array_equal(vectors[node, :, i], column))
                for column in sorted_vectors[node].T
            ]
            assert sorted(match) == list(range(n))
            assert partition(labels[node], range(n)) == partition(sorted_labels[node], match)
        # the label test for shared eigenspaces selects the nodes of the sorted pair mask
        off = ~np.eye(n, dtype=bool)
        pairs = ((sorted_labels[:, :, None] == sorted_labels[:, None, :]) & off).any(axis=(1, 2))
        assert np.array_equal(labels.max(axis=1) < n - 1, pairs)
        return phases, vectors, labels

    @given(spectra=clustered_spectra(), seed=st.integers(0, 2**32 - 1))
    # exact degenerate pairs next to +-pi, one across the wrap
    @example(spectra=[[np.pi, -np.pi + 1e-12, 0.5, -0.8], [np.pi, np.pi, 1.0, 1.0]], seed=0)
    # eigenphases on the first pole, and on the first two: retried with the next shifts
    @example(
        spectra=[
            [cayley_pole(0, 4), cayley_pole(0, 4), 0.3, 2.5],
            [cayley_pole(0, 4), cayley_pole(1, 4), 0.3, 0.3],
            [0.1, 0.9, 1.6, -0.6],
        ],
        seed=1,
    )
    # two eigenspaces 0.03 rad either side of the first pole, inside the pole bound
    @example(spectra=[[cayley_pole(0, 4) - 0.03, cayley_pole(0, 4) + 0.03, 0.3, 1.2]], seed=2)
    def test_eigh_order_gives_the_sorted_eigenspaces(self, spectra, seed):
        rng = np.random.default_rng(seed)
        bases = [random_unitary(rng, len(spectra[0])) for _ in spectra]
        stack = with_spectra(bases, spectra)
        phases, vectors, labels = self.assert_same_eigenspaces(stack)
        # each eigenspace is the span of the basis vectors its phases were put in with
        for v, spectrum, w, x, group in zip(bases, spectra, phases, vectors, labels):
            for g in np.unique(group):
                chord = np.abs(np.exp(1j * np.array(spectrum)) - np.exp(1j * w[group == g][0]))
                want = v[:, chord < 1e-6] @ v[:, chord < 1e-6].conj().T
                assert np.max(np.abs(projector(x, np.flatnonzero(group == g)) - want)) <= 1e-10

    @pytest.mark.parametrize("walk", ["grover-2d", "rank-2", "rank-3", "merged-2"])
    def test_flat_and_merged_bands(self, walk):
        if walk == "grover-2d":  # flat bands at +-1; 2 of its 256 nodes share an eigenspace
            coin = np.full((4, 4), 0.5) - np.eye(4)
            spec = WalkSpec(2, 4, [[1, 0], [-1, 0], [0, 1], [0, -1]], coin)
            grid = QuadratureGrid(16, 2)
        elif walk == "rank-2":  # rank 2 everywhere, rank 3 at k = 0 and -pi
            spec, grid = WalkSpec(1, 3, [[1], [1], [-1]], np.eye(3)), QuadratureGrid(64)
        elif walk == "rank-3":  # rank 3 everywhere, rank 4 at k = 0 and -pi
            spec, grid = WalkSpec(1, 4, [[1], [1], [1], [-1]], np.eye(4)), QuadratureGrid(64)
        else:  # a band gap of ~2e-11 at k = 0 and k = -pi: one eigenspace there
            spec, grid = line_walk(U2Params(1e-11, 0.0, 0.0)), QuadratureGrid(64)
        _, _, labels = self.assert_same_eigenspaces(build_uk(spec, grid.nodes))
        shared = np.sum(labels.max(axis=1) < spec.coin_dim - 1)
        assert shared == {"grover-2d": 2, "rank-2": 64, "rank-3": 64, "merged-2": 2}[walk]


class TestPartialTrace:
    def test_defining_properties(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(partial_trace(np.kron(a, b), "first"), np.trace(a) * b)
        assert np.allclose(partial_trace(np.kron(a, b), "second"), np.trace(b) * a)

    def test_linearity_and_trace(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        n = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = partial_trace(2.5 * m + (1 - 2j) * n, "first")
        rhs = 2.5 * partial_trace(m, "first") + (1 - 2j) * partial_trace(n, "first")
        assert np.max(np.abs(lhs - rhs)) <= 1e-14
        assert abs(np.trace(partial_trace(m, "first")) - np.trace(m)) <= 1e-12
        assert abs(np.trace(partial_trace(m, "second")) - np.trace(m)) <= 1e-12

    def test_hadamard_characteristic_reduces_to_identity(self):
        assert np.allclose(partial_trace(HADAMARD_C_AT_HALF_PI, "first"), np.eye(2))


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(DensityMatrix([[1, 0], [0, 0]])) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_hadamard_value(self):
        # eigenvalues 1/2 +- |cos t| / (2 sin t + 2) at t = pi/4
        t = np.pi / 4
        d = np.cos(t) / (2 * np.sin(t) + 2)
        rho = DensityMatrix(np.diag([0.5 + d, 0.5 - d]))
        assert von_neumann_entropy(rho) == pytest.approx(0.872, abs=1e-3)

    def test_unitary_invariance(self, rng):
        for _ in range(20):
            lam = rng.dirichlet(np.ones(4))
            u = random_unitary(rng, 4)
            rho = np.diag(lam)
            conj = u @ rho @ u.conj().T
            assert abs(
                von_neumann_entropy(DensityMatrix(rho))
                - von_neumann_entropy(DensityMatrix(conj))
            ) <= 1e-10

    def test_negative_eigenvalue_clamp(self):
        eps = 5e-11
        rho = DensityMatrix(np.diag([1 + eps, -eps]))
        e = von_neumann_entropy(rho)
        assert np.isfinite(e) and e >= 0

    def test_checks_a_plain_matrix_as_a_density_matrix(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)
        with pytest.raises(NumericalFailure):
            von_neumann_entropy(np.diag([1.5, -0.5]))

    @given(st.floats(min_value=1e-6, max_value=0.5))
    def test_range(self, p):
        e = von_neumann_entropy(DensityMatrix(np.diag([p, 1 - p])))
        assert 0 <= e <= 1 + 1e-12


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NumericalFailure):
            DensityMatrix([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(NumericalFailure):
            DensityMatrix(np.ones((2, 3)) / 2)

    def test_rejects_bad_trace(self):
        with pytest.raises(NumericalFailure):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(NumericalFailure):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_stores_the_hermitian_part(self):
        m = np.array([[0.5, 0.2 + 1e-11j], [0.2, 0.5]])
        dm = DensityMatrix(m)
        assert np.array_equal(dm.matrix, dm.matrix.conj().T)
        assert np.array_equal(dm.matrix, (m + m.conj().T) / 2)

    def test_eigenvalues_descending(self):
        dm = DensityMatrix(np.diag([0.25, 0.75]))
        assert np.allclose(dm.eigenvalues(), [0.75, 0.25])
