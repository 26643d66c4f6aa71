import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
from coinwalk.characteristic import _eigenspaces
from coinwalk.linalg import (
    _FIRST_SHIFT,
    DEGENERACY_TOL,
    _eig_unitary_stack,
    _newton_schulz,
    eig_unitary,
    is_unitary,
)
from conftest import (
    SQUARE,
    boundary_coin,
    coin_kind_walk,
    partial_trace,
    random_unitary,
    unit_vector,
    unitarity_error,
)

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
        with pytest.raises(InvalidArgument, match="not a non-empty matrix unitary within 1e-10"):
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
        assert np.allclose(np.sort(phases), [-np.pi / 4, np.pi / 4])
        for phase, column in zip(phases, vectors.T):
            assert np.allclose(np.abs(column), [1, 0] if phase > 0 else [0, 1])

    def test_is_the_solver_at_one_node(self, rng):
        u = random_unitary(rng, 3)
        single = eig_unitary(u)
        stack = _eig_unitary_stack(_newton_schulz(u[None]))
        assert [a.shape for a in single] == [(3,), (3, 3), (3,)]
        for a, b in zip(single, stack):
            assert np.array_equal(a, b[0])

    def test_hadamard_walk_operator_at_half_pi(self):
        # U_k at k=pi/2 for theta=pi/4, alpha=beta=pi/2: by hand, the
        # characteristic polynomial gives cos(gamma) = cos(pi/4), phases +-pi/4
        from coinwalk import U2Params, build_uk, line_walk

        uk = build_uk(line_walk(U2Params(np.pi / 4, np.pi / 2, np.pi / 2)), np.pi / 2)
        phases, _, _ = eig_unitary(uk)
        assert np.allclose(np.sort(phases), [-np.pi / 4, np.pi / 4], atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidArgument, match="not a non-empty matrix unitary within 1e-10"):
            eig_unitary([[1, 0], [0, 2]])

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(InvalidArgument, match="not a non-empty matrix unitary within 1e-10"):
            eig_unitary(np.zeros((0, 0)))

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
        # each phase is the angle of a Rayleigh quotient, in [-pi, pi]: -1 sits at either end
        phases, _, _ = eig_unitary(np.diag([-1.0 + 0j, 1.0]))
        assert sorted(np.abs(phases)) == [0.0, np.pi]

    @pytest.mark.parametrize("kind", ["grover-2d", "rank-2", "haar"])
    def test_gives_the_quadrature_eigenspaces(self, kind, rng):
        # per node, U_k's own Newton-Schulz step against U_k built from the coin's
        spec = coin_kind_walk(kind, 4, 2, SQUARE, rng)
        grid = QuadratureGrid(64 if spec.lattice_dim == 1 else 16, spec.lattice_dim)
        vectors, labels = _eigenspaces(spec, grid.nodes)
        want = eigenspace_projectors(vectors, labels)
        for node, k in enumerate(grid.nodes):
            _, v, group = eig_unitary(build_uk(spec, k))
            got = eigenspace_projectors(v[None], group[None])[0]
            assert sorted(np.bincount(group)) == sorted(np.bincount(labels[node]))
            # every column's eigenspace projector is one of the other route's
            apart = np.max(np.abs(got[:, None] - want[node][None, :]), axis=(2, 3))
            assert np.max(np.min(apart, axis=1)) <= 1e-13
            assert np.max(np.min(apart, axis=0)) <= 1e-13


class TestStackSolve:
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
        phases, vectors, labels = _eig_unitary_stack(_newton_schulz(stack))
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


def with_spectra(bases, spectra) -> np.ndarray:
    """The stack of ``v diag(exp(1j w)) v^dag`` over paired bases and eigenphases."""
    return np.stack(
        [v @ np.diag(np.exp(1j * np.array(w))) @ v.conj().T for v, w in zip(bases, spectra)]
    )


def eigenspace_projectors(vectors, labels) -> np.ndarray:
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


def shift(j: int, n: int) -> float:
    """The solver's shift a_j for coin dimension n: a_0 + pi j / P, P = n (n - 1) / 2 + 1."""
    return _FIRST_SHIFT + np.pi * j / (n * (n - 1) // 2 + 1)


def wrap(phase: float) -> float:
    """``phase`` moved into (-pi, pi]."""
    return float(np.angle(np.exp(1j * phase)))


def collision_pair(j: int, n: int, half: float) -> list[float]:
    """Two eigenphases ``half`` either side of shift a_j: on its collision point.

    The Hermitian part of ``exp(-1j a) U`` has the eigenvalues ``cos(psi - a)``,
    which are equal for two phases symmetric about a (or about a + pi).
    """
    return [wrap(shift(j, n) + half), wrap(shift(j, n) - half)]


class TestHermitianPartSolve:
    """The stack solver against ``np.linalg.eig``, compared through eigenspace projectors.

    Each stack is solved as the quadrature solves its ``U_k``: after one Newton-Schulz step.
    """

    def assert_matches_eig(self, stack, tol):
        phases, vectors, labels = _eig_unitary_stack(_newton_schulz(stack))
        ref_phases, ref_vectors, ref_labels = eig_reference(stack)
        assert np.all(np.abs(phases) <= np.pi)
        # the solver keeps eigh's order and the reference sorts, so columns are paired
        # by the nearest eigenvalue
        chord = np.abs(np.exp(1j * phases)[:, :, None] - np.exp(1j * ref_phases)[:, None, :])
        pair = np.argmin(chord, axis=2)
        assert np.max(np.min(chord, axis=2)) <= 1e-12
        for got_labels, want_labels in zip(labels, ref_labels):
            sizes = [np.unique(x, return_counts=True)[1].tolist() for x in (got_labels, want_labels)]
            assert sorted(sizes[0]) == sorted(sizes[1])
        got = eigenspace_projectors(vectors, labels)
        want = eigenspace_projectors(ref_vectors, ref_labels)
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
        phases, vectors, labels = _eig_unitary_stack(_newton_schulz(stack))
        assert np.all(labels.max(axis=1) == 3)  # the pair stays apart above DEGENERACY_TOL
        bound = 200 * np.finfo(float).eps / gap
        got = eigenspace_projectors(vectors, labels)
        spectrum = np.exp(1j * np.array(spectra[0]))
        for m, v in enumerate(bases):
            # the input's own eigenvectors, each at the column of its nearest phase
            put_in = np.argmin(np.abs(np.exp(1j * phases[m])[:, None] - spectrum), axis=1)
            assert sorted(put_in) == [0, 1, 2, 3]
            want = np.einsum("ij,kj->jik", v[:, put_in], v[:, put_in].conj())
            assert np.max(np.abs(got[m] - want)) <= bound
        self.assert_matches_eig(stack, 2 * bound)

    def test_collisions_are_retried_with_the_next_shifts(self, rng, monkeypatch):
        n = 4
        spectra = [
            [*collision_pair(0, n, 0.5), 2.9, -1.2],  # on the collision point of a_0
            [*collision_pair(0, n, 0.5), *collision_pair(1, n, 1.3)],  # of a_0 and a_1 at once
            # 1e-3 rad from that of a_0: |sin(1e-3)| is inside the separation bound 5e-3
            [*(phase + 1e-3 for phase in collision_pair(0, n, 0.9)), 2.0, -2.2],
            [0.1, 0.9, 1.6, -0.6],  # clear of a_0's collision points
        ]
        stack = with_spectra([random_unitary(rng, n) for _ in spectra], spectra)
        rounds = []
        eigh = np.linalg.eigh

        def counted(h):
            rounds.append(len(h))
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        self.assert_matches_eig(stack, 1e-10)
        assert rounds == [4, 3, 1]

    def test_a_collision_the_fit_accepts_does_not_fail_its_batch(self, rng, monkeypatch):
        # a diagonal node: eigh's columns are unit vectors, exact eigenvectors that pass the
        # fit, but the pair symmetric about a_0 has one eigenvalue of the Hermitian part, so
        # only the separation test sends the node to the next shift
        spectrum = np.array([*collision_pair(0, 4, 0.8), 0.4, 2.2])
        node = np.diag(np.exp(1j * spectrum))
        stack = np.stack([random_unitary(rng, 4), node, random_unitary(rng, 4)])
        h = np.diag(np.exp(-1j * _FIRST_SHIFT) * node).real
        assert abs(h[0] - h[1]) <= 1e-15
        rounds = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: rounds.append(len(h)) or eigh(h))
        phases, vectors, _ = self.assert_matches_eig(stack, 1e-12)
        assert rounds == [3, 1]
        # solved at a_1: eigh's order is ascending cos(psi - a_1)
        order = np.argsort(np.cos(spectrum - shift(1, 4)))
        assert np.max(np.abs(phases[1] - spectrum[order])) <= 1e-15
        assert np.max(np.abs(np.abs(vectors[1]) - np.eye(4)[:, order])) <= 1e-15

    def test_mixed_columns_on_a_collision_are_left_for_the_next_shift(self, rng):
        # in a general basis eigh mixes the two eigenvectors of the double eigenvalue,
        # whose columns fail the 1e-9 eigenpair fit; the next shift solves the node
        spectrum = [*collision_pair(0, 3, 1.1), -0.5]
        node = with_spectra([random_unitary(rng, 3)], [spectrum])
        v = np.exp(-1j * _FIRST_SHIFT) * node
        _, x = np.linalg.eigh(v + v.conj().swapaxes(1, 2))
        lam = np.einsum("mij,mij->mj", x.conj(), node @ x)
        assert np.max(np.abs(node @ x - x * lam[:, None, :])) > 1e-9
        self.assert_matches_eig(node, 1e-12)

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
        # WalkSpec admits a coin unitary within 1e-10, which the Hermitian part of
        # exp(-1j a) U_k would carry into the eigenvectors at first order
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
        # the quadrature solves the coin after one Newton-Schulz step, its polar factor up to O(e^2)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_a_node_that_fails_at_every_shift_is_a_numerical_failure(self, rng, monkeypatch):
        # an eigh that returns the unit vectors fails the fit at every shift
        def unit_vectors(h):
            return np.zeros(h.shape[:2]), np.broadcast_to(np.eye(h.shape[1]), h.shape).copy()

        monkeypatch.setattr(np.linalg, "eigh", unit_vectors)
        stack = np.stack([random_unitary(rng, 3) for _ in range(5)])
        with pytest.raises(
            NumericalFailure,
            match="^5 nodes keep an eigenpair residual above 1e-9 or two eigenphases near a"
            " collision point at each of the 4 shifts$",
        ):
            _eig_unitary_stack(_newton_schulz(stack))

    def test_a_failed_eigh_is_a_numerical_failure(self, rng, monkeypatch):
        def unconverged(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        stack = np.stack([random_unitary(rng, 3) for _ in range(2)])
        with pytest.raises(NumericalFailure, match="^eigensolver failed: Eigenvalues did not converge$"):
            _eig_unitary_stack(_newton_schulz(stack))

    def test_eigenvectors_that_fit_but_are_not_orthonormal_are_a_numerical_failure(
        self, rng, monkeypatch
    ):
        # vectors 1 + 2e-10 long still pass the 1e-9 fit, whose residual against their
        # Rayleigh quotients (1 + 2e-10)^2 exp(1j psi) is about 4e-10, but have a Gram
        # error of 4e-10
        eigh = np.linalg.eigh

        def stretched(h):
            w, x = eigh(h)
            return w, x * (1 + 2e-10)

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        stack = np.stack([random_unitary(rng, 3) for _ in range(2)])
        with pytest.raises(
            NumericalFailure, match="^eigenvector orthonormality error 4.000e-10 exceeds 1e-12$"
        ):
            _eig_unitary_stack(_newton_schulz(stack))


@st.composite
def clustered_spectra(draw) -> list[list[float]]:
    """Eigenphases of 1-4 nodes of one coin dimension n <= 6, in clusters.

    Each phase opens a cluster at a centre (+-pi or just inside it, a phase at
    the first or second shift or half a turn from it, where ``cos(psi - a)`` is
    flat, a phase of a pair on the collision point of the first or second
    shift, or any phase) or joins an earlier one, 0 or 1e-12 rad from its
    centre. A centre within 1e-3 rad of an earlier one on the circle joins it
    instead: exactly where they differ by up to 1e-11 (the pair pi, -pi + 1e-12
    across the wrap), at the earlier centre otherwise, so distinct eigenspaces
    are at least 1e-3 apart.
    """
    n = draw(st.integers(2, 6))
    collisions = [
        phase
        for j in (0, 1)
        for phase in (wrap(shift(j, n)), wrap(shift(j, n) + np.pi), *collision_pair(j, n, 0.6))
    ]
    special = st.sampled_from([np.pi, -np.pi + 1e-12, np.pi - 1e-12, *collisions])
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


def wrapped_gaps(phases) -> np.ndarray:
    """(M, n - 1): the distance on the circle from each column's phase to the one before."""
    gap = np.abs(np.diff(phases, axis=1))
    return np.minimum(gap, 2 * np.pi - gap)


def ordered_at(phases, n: int) -> list[int]:
    """The shifts ``a_j`` at which a node's columns are in the solver's order.

    That is ``eigh``'s order of the Hermitian part of ``exp(-1j a_j) U``, ascending
    ``cos(psi - a_j)`` (to rounding), with every pair of adjacent columns in one
    eigenspace or ``|sin(mean - a_j)| >= 5e-3`` from the collision point of a_j.
    """
    gap = wrapped_gaps(phases[None])[0]
    mean = 0.5 * (phases[1:] + phases[:-1])
    found = []
    for j in range(n * (n - 1) // 2 + 1):
        ascending = np.all(np.diff(np.cos(phases - shift(j, n))) >= -1e-12)
        apart = (gap <= DEGENERACY_TOL) | (np.abs(np.sin(mean - shift(j, n))) >= 5e-3)
        if ascending and apart.all():
            found.append(j)
    return found


class TestColumnOrder:
    """The stack solver keeps ``eigh``'s columns, and its gap labels find the eigenspaces."""

    @staticmethod
    def assert_solver_order(stack):
        """Solve ``stack`` as the quadrature does, and check the column order and the labels."""
        phases, vectors, labels = _eig_unitary_stack(_newton_schulz(stack))
        n = labels.shape[1]
        # eigh's order at some shift, and the labels count the wrapped gaps to the column before
        assert np.all(np.abs(phases) <= np.pi)
        assert all(ordered_at(w, n) for w in phases)
        assert np.all(labels[:, 0] == 0)
        assert np.array_equal(np.diff(labels, axis=1), wrapped_gaps(phases) > DEGENERACY_TOL)
        return phases, vectors, labels

    @staticmethod
    def assert_bases_kept(spectra, bases, phases, vectors, labels, factor):
        """Each eigenspace is within ``factor * eps / gap`` of the basis vectors it was put in with.

        The gap is the distance on the circle from the eigenspace's phases to the nearest
        phase put in outside it.
        """
        for v, spectrum, w, x, group in zip(bases, spectra, phases, vectors, labels):
            spectrum = np.exp(1j * np.array(spectrum))
            for g in np.unique(group):
                members = np.abs(spectrum - np.exp(1j * w[group == g][0])) < 1e-6
                want = v[:, members] @ v[:, members].conj().T
                chord = np.abs(spectrum[members][:, None] - spectrum[~members][None, :])
                gap = 2 * np.arcsin(np.min(chord, initial=2.0) / 2)
                error = np.max(np.abs(projector(x, np.flatnonzero(group == g)) - want))
                assert error <= factor * np.finfo(float).eps / gap

    @given(spectra=clustered_spectra(), seed=st.integers(0, 2**32 - 1))
    # exact degenerate pairs next to +-pi, one across the wrap
    @example(spectra=[[np.pi, -np.pi + 1e-12, 0.5, -0.8], [np.pi, np.pi, 1.0, 1.0]], seed=0)
    # pairs on the collision point of a_0, and of a_0 and a_1: retried with the next shifts
    @example(
        spectra=[
            [*collision_pair(0, 4, 0.5), 2.9, 2.9],
            [*collision_pair(0, 4, 0.5), *collision_pair(1, 4, 1.3)],
            [0.1, 0.9, 1.6, -0.6],
        ],
        seed=1,
    )
    # a pair 6e-3 rad from the collision point of a_0, just outside the separation bound
    @example(spectra=[[*(p + 6e-3 for p in collision_pair(0, 4, 0.4)), 0.3, 1.2]], seed=2)
    def test_eigh_order_gives_the_eigenspaces_put_in(self, spectra, seed):
        rng = np.random.default_rng(seed)
        bases = [random_unitary(rng, len(spectra[0])) for _ in spectra]
        stack = with_spectra(bases, spectra)
        phases, vectors, labels = self.assert_solver_order(stack)
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
        _, _, labels = self.assert_solver_order(build_uk(spec, grid.nodes))
        shared = np.sum(labels.max(axis=1) < spec.coin_dim - 1)
        assert shared == {"grover-2d": 2, "rank-2": 64, "rank-3": 64, "merged-2": 2}[walk]


#: per coin dimension n, integers m_i for eigenphases a_0 + pi m_i / P (P = n (n - 1) / 2 + 1)
#: whose pairs sit on the collision points of as many of the first P - 1 shifts as pairs
#: allow: pair (i, j) collides at shift (m_i + m_j) / 2 mod P. For n = 3, 4 and 5 that is
#: every one of them, so the node is solved in round P; for n = 6 in round 15 of 16, and
#: for n = 8 (shifts 0-21 and 25-26 blocked) in round 23 of 29
WORST_CASE = {
    3: (1, 3, 7),
    4: (1, 3, 7, 13),
    5: (0, 2, 4, 8, 14),
    6: (0, 2, 4, 6, 12, 20),
    8: (5, 7, 13, 17, 19, 21, 45, 55),
}
WORST_CASE_ROUNDS = {3: 4, 4: 7, 5: 11, 6: 15, 8: 23}


@st.composite
def colliding_spectra(draw, sizes=(3, 4, 5, 6)) -> list[list[float]]:
    """Eigenphases of 1-3 nodes whose pairs sit on or near the collision points of many shifts.

    Each phase is the ``WORST_CASE`` phase of its column moved by up to 2e-3 rad (so each
    pair stays within the separation bound of its collision point), or, after the first,
    a member of an earlier such phase's cluster, 0, 1e-12 or 5e-10 rad from it: within
    ``DEGENERACY_TOL``, so the cluster is one eigenspace.
    """
    n = draw(st.sampled_from(sizes))
    rounds = n * (n - 1) // 2 + 1
    offsets = st.sampled_from([0.0, 1e-6, -1e-5, 1e-4, -2e-3])
    spectra = []
    for _ in range(draw(st.integers(1, 3))):
        centres = []
        spectrum = []
        for m in WORST_CASE[n]:
            if centres and draw(st.integers(0, 3)) == 0:
                cluster = draw(st.sampled_from([0.0, 1e-12, 5e-10]))
                spectrum.append(wrap(draw(st.sampled_from(centres)) + cluster))
            else:
                centres.append(wrap(_FIRST_SHIFT + np.pi * m / rounds + draw(offsets)))
                spectrum.append(centres[-1])
        spectra.append(spectrum)
    return spectra


class TestCollisions:
    """Spectra that put the Hermitian part's eigenvalues on a collision at shift after shift."""

    @staticmethod
    def solve(spectra, seed):
        """The solver on these spectra: its output, the rounds it took, the bases."""
        rng = np.random.default_rng(seed)
        bases = [random_unitary(rng, len(spectra[0])) for _ in spectra]
        rounds = []
        eigh = np.linalg.eigh

        def counted(h):
            rounds.append(len(h))
            return eigh(h)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigh", counted)
            solved = TestColumnOrder.assert_solver_order(with_spectra(bases, spectra))
        return solved, len(rounds), bases

    @given(spectra=colliding_spectra(), seed=st.integers(0, 2**32 - 1))
    # near collisions at 1e-6 and 1e-4 rad: eigh resolves them, and the fit accepts the
    # columns, with an eigenvector error of eps / (1e-6 gap) that only the separation test refuses
    @example(spectra=[[wrap(_FIRST_SHIFT + np.pi * m / 7 + 1e-6) for m in WORST_CASE[4]]], seed=3)
    @example(
        spectra=[[wrap(_FIRST_SHIFT + np.pi * m / 11 + 1e-4 * (m == 0)) for m in WORST_CASE[5]]],
        seed=4,
    )
    def test_worst_case_spectra_are_solved_within_p_rounds(self, spectra, seed):
        n = len(spectra[0])
        (phases, vectors, labels), rounds, bases = self.solve(spectra, seed)
        assert rounds <= n * (n - 1) // 2 + 1
        TestColumnOrder.assert_bases_kept(spectra, bases, phases, vectors, labels, 200)

    @given(
        n=st.sampled_from([8, 12]),
        past=st.sampled_from([6e-3, 1e-2, 3e-2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_matrix_unitary_within_1e_10_is_solved_as_its_polar_factor(self, n, past, seed):
        # each matrix has a pair `past` rad beyond the collision point of a_0, which passes the
        # separation test there; the Hermitian part would keep a deviation from unitarity
        # just under 1e-10 at first order, and the fit residual near deviation / past
        rng = np.random.default_rng(seed)
        spectra = [
            [wrap(_FIRST_SHIFT + past + half), wrap(_FIRST_SHIFT + past - half)]
            + rng.uniform(-np.pi, np.pi, n - 2).tolist()
            for half in rng.uniform(0.2, 1.4, size=3)
        ]
        bases = [random_unitary(rng, n) for _ in spectra]
        exact = with_spectra(bases, spectra)
        h = rng.standard_normal(exact.shape) + 1j * rng.standard_normal(exact.shape)
        h += h.conj().swapaxes(1, 2)
        # (I + e h) u^dag u (I + e h) - I = 2 e h + O(e^2): the polar factor of each matrix is u
        e = 9.9e-11 / (2 * np.max(np.abs(h), axis=(1, 2)))
        near = exact @ (np.eye(n) + e[:, None, None] * h)
        assert is_unitary(near) and min(unitarity_error(u) for u in near) >= 0.98e-10
        taken = {}
        eigh = np.linalg.eigh
        for name, stack in (("exact", exact), ("near", near)):
            calls = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np.linalg, "eigh", lambda h: calls.append(len(h)) or eigh(h))
                # the eigh calls made so far after each matrix: its last is the round that solved it
                solved = [(eig_unitary(u), len(calls)) for u in stack]
            taken[name] = calls
        assert taken["near"] == taken["exact"]
        done = [count for _, count in solved]
        shifts = [shift(m - 1, n) for m in np.diff([0, *done])]
        phases, vectors, labels = (np.stack(parts) for parts in zip(*(s for s, _ in solved)))
        self.assert_bases_kept_at_shifts(spectra, bases, phases, vectors, labels, shifts)

    @staticmethod
    def assert_bases_kept_at_shifts(spectra, bases, phases, vectors, labels, shifts):
        """Each eigenspace is within ``50 eps / gap_a`` of the basis vectors it was put in with.

        ``eigh`` solves the Hermitian part of ``exp(-1j a) U`` at the shift a that solved
        the matrix, whose eigenvalues ``cos(psi - a)`` are ``gap_a`` apart from the nearest
        one outside the eigenspace: ``2 |sin(mean - a) sin(gap / 2)|`` for the pair's mean
        and gap, so a pair just past a collision point keeps an error of eps over the
        separation ``|sin(mean - a)|`` as well as over the gap. Over 7200 such matrices
        (n = 8 and 12, pairs 6e-3 to 3e-2 rad past a_0) error * gap_a / eps reached 10.5.
        """
        for v, spectrum, w, x, group, a in zip(bases, spectra, phases, vectors, labels, shifts):
            spectrum = np.exp(1j * np.array(spectrum))
            for g in np.unique(group):
                psi = w[group == g][0]
                members = np.abs(spectrum - np.exp(1j * psi)) < 1e-6
                want = v[:, members] @ v[:, members].conj().T
                outside = np.angle(spectrum[~members])
                gap = np.min(np.abs(np.cos(psi - a) - np.cos(outside - a)), initial=2.0)
                error = np.max(np.abs(projector(x, np.flatnonzero(group == g)) - want))
                assert error <= 50 * np.finfo(float).eps / gap

    @pytest.mark.parametrize("n", sorted(WORST_CASE))
    def test_the_worst_case_takes_its_rounds(self, n):
        rounds = n * (n - 1) // 2 + 1
        spectra = [[wrap(_FIRST_SHIFT + np.pi * m / rounds) for m in WORST_CASE[n]]]
        (phases, vectors, labels), taken, bases = self.solve(spectra, n)
        assert taken == WORST_CASE_ROUNDS[n]
        assert [ordered_at(w, n)[0] for w in phases] == [WORST_CASE_ROUNDS[n] - 1]
        TestColumnOrder.assert_bases_kept(spectra, bases, phases, vectors, labels, 200)


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
