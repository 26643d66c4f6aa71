"""Dense complex linear algebra for small matrices.

Everything operates on plain ``numpy`` arrays of ``complex128``. The matrices
here are tiny (n <= 64) but come in stacks of one per Brillouin-zone node, so
the eigensolver works on a whole (M, n, n) stack at once: the Hermitian part
of each shifted unitary has its eigenvectors, one batched ``numpy.linalg.eigh``
solves them all, the Rayleigh quotients give the phases, and phase grouping
by vectorised gap tests labels the eigenspaces, with the residual, the
separation of the Hermitian part's eigenvalues and orthonormality checked at
every node. Its output has one shape, ``(phases, vectors, labels)``; a single
matrix is a stack of one.

The public :func:`eig_unitary_batch` (and :func:`eig_unitary`) returns each
node's phases wrapped into ``(-pi, pi]`` and sorted, its eigenvector columns
in that order, and labels that join an eigenspace across the wrap at +/-pi.
The private solver behind it, which the quadrature calls for every block of
nodes, keeps the columns in the order ``eigh`` gives them and labels them by
gaps alone; only the eigenspaces, not the order of their columns, enter
``C(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, NumericalFailure

Array = np.ndarray

#: eigenphases this close (radians) form one eigenspace, for every coin dimension
DEGENERACY_TOL = 1e-9

#: the first shift a_0; with P = n (n - 1) / 2 + 1 rounds, shift j is a_0 + pi j / P
_FIRST_SHIFT = 0.7
#: two adjacent columns of distinct eigenspaces need |sin((psi_i + psi_j) / 2 - a)| at least
#: this (capped at sin(pi / 2P)), or the node is solved again with the next shift
_SEPARATION = 5e-3


def as_matrix(m) -> Array:
    """Coerce input to a 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InvalidArgument(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def is_unitary(m) -> bool:
    """True if ``m`` is square and ``m† m = I`` within 1e-10 (max-entry).

    ``m`` is one matrix or an (M, n, n) stack, whose every matrix must pass;
    an empty stack passes and one with a non-finite entry fails.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or not np.isfinite(a).all():
        return False
    residual = np.abs(a.conj().swapaxes(-1, -2) @ a - np.eye(a.shape[-1]))
    return bool(np.max(residual, initial=0.0) <= 1e-10)


def eig_unitary_batch(u) -> tuple[Array, Array, Array]:
    """Eigendecompose a stack of unitary matrices (M, n, n) with one batched solve.

    Returns ``(phases, vectors, labels)``: eigenphases (M, n) in ``(-pi, pi]``,
    ascending per node; orthonormal eigenvectors (M, n, n), column ``j``
    paired with ``phases[:, j]``; and int labels (M, n), shared by the columns
    of one eigenspace. Ascending phases whose gaps are within
    ``DEGENERACY_TOL`` form one eigenspace, also across the wrap at +/-pi.

    The solve takes no inverse: with ``V = exp(-1j a) U``, the Hermitian part
    ``(V + V^dag) / 2`` has U's eigenvectors and the eigenvalues
    ``cos(psi - a)``, so one batched ``eigh`` gives orthonormal eigenvectors,
    also inside degenerate eigenspaces. Each phase is that of the Rayleigh
    quotient ``x_j^dag U x_j``, from the ``U X`` of the 1e-9 eigenpair fit.
    Two of those eigenvalues differ by
    ``2 |sin((psi_i + psi_j) / 2 - a) sin((psi_i - psi_j) / 2)|``: they collide
    where the pair is symmetric about a (or a + pi), its collision point, and
    there ``eigh`` mixes the two eigenvectors. So a node is accepted only if
    its eigenpairs fit and every two columns next to each other in ``eigh``'s
    order are one eigenspace (a wrapped gap within ``DEGENERACY_TOL``) or have
    ``|sin((psi_i + psi_j) / 2 - a)| >= 5e-3`` (capped at ``sin(pi / 2P)``),
    which keeps the eigenvector error below about ``200 eps / gap``. Any other
    node is solved again with the next of the ``P = n (n - 1) / 2 + 1`` shifts
    ``a_j = 0.7 + pi j / P``. Collision points repeat every pi, and each of the
    ``n (n - 1) / 2`` pairs comes within ``pi / 2P`` of at most one shift, so
    some shift leaves every pair at least that far from its collision point
    and every node is done within P rounds. The Hermitian part keeps a
    deviation from unitarity at first order, so each matrix first takes one
    Newton-Schulz step ``u (3 I - u^dag u) / 2`` after the unitarity check: the
    solve is that of its polar factor, unitary to rounding also for an input
    unitary only within 1e-10, whose eigenphases are the input's within that
    deviation. (The quadrature takes the same step once, on the coin, see
    :func:`~coinwalk.characteristic._eigenspaces`.)

    Raises
    ------
    InvalidArgument
        If the stack is empty or some matrix is not unitary within 1e-10.
    NumericalFailure
        If the solver fails, if at every shift some node's eigenvector residual
        exceeds 1e-9 or two of its eigenphases are near a collision point, or
        if the eigenvectors' Gram matrix
        ``vectors^dag vectors`` deviates from the identity by more than 1e-12
        at some node.
    """
    a = np.asarray(u, dtype=np.complex128)
    if a.size == 0:
        raise InvalidArgument(f"expected a non-empty stack of matrices, got shape {a.shape}")
    if a.ndim != 3 or not is_unitary(a):
        raise InvalidArgument(f"not a stack of matrices unitary within 1e-10, shape {a.shape}")
    phases, vectors, _ = _eig_unitary_stack(_newton_schulz(a))
    phases = np.where(phases == -np.pi, np.pi, phases)  # into (-pi, pi]
    order = np.argsort(phases, axis=1, kind="stable")
    phases = np.take_along_axis(phases, order, axis=1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
    labels = _gap_labels(np.diff(phases, axis=1))
    wrap = phases[:, 0] + 2 * np.pi - phases[:, -1] <= DEGENERACY_TOL
    labels = np.where(wrap[:, None] & (labels == labels[:, -1:]), 0, labels)
    return phases, vectors, labels


def _newton_schulz(a: Array) -> Array:
    """One Newton-Schulz step ``a (3 I - a^dag a) / 2`` of a matrix or of each in a stack.

    For ``a`` unitary within ``e`` the result is its polar factor (the nearest
    unitary) within about ``e^2``, for two n x n products per matrix.
    """
    eye = np.eye(a.shape[-1])
    return a @ (1.5 * eye - 0.5 * (a.conj().swapaxes(-1, -2) @ a))


def _eig_unitary_stack(a: Array) -> tuple[Array, Array, Array]:
    """The solver of :func:`eig_unitary_batch`, which checks no input and keeps ``eigh``'s order.

    For the ``U_k`` of a walk :class:`~coinwalk.walk.WalkSpec` admitted, unitary within 1e-10.
    Returns ``(phases, vectors, labels)`` as :func:`eig_unitary_batch` does, with the same
    checks, but the columns stay in the order ``eigh`` gives them: ascending
    ``cos(psi - a)`` for the shift ``a`` that solved the node, with phases in ``[-pi, pi]``.
    A column starts a new label when its wrapped phase gap to the column before it exceeds
    ``DEGENERACY_TOL``. The separation test keeps the columns of one eigenspace next to each
    other, so the eigenspaces are those of :func:`eig_unitary_batch`; the order of their
    columns and their labels may differ.
    """
    n = a.shape[1]
    rounds = n * (n - 1) // 2 + 1
    bound = min(_SEPARATION, np.sin(np.pi / (2 * rounds)))

    def solve(b: Array, j: int) -> tuple[Array, Array, Array, Array]:
        """Round j on the stack ``b``: its phases, eigenvectors, adjacent gaps and solved nodes."""
        shift = _FIRST_SHIFT + np.pi * j / rounds
        v = np.exp(-1j * shift) * b
        try:
            _, x = np.linalg.eigh(v + v.conj().swapaxes(1, 2))  # 2 cos(psi - a)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"eigensolver failed: {exc}") from exc
        bx = b @ x
        lam = np.einsum("mij,mij->mj", x.conj(), bx)  # the Rayleigh quotients x_j^dag U x_j
        fits = np.max(np.abs(bx - x * lam[:, None, :]), axis=(1, 2)) <= 1e-9
        psi = np.angle(lam)
        gap = np.abs(np.diff(psi, axis=1))
        gap = np.minimum(gap, 2 * np.pi - gap)  # wrapped, to the column before
        # cos(psi_i - a) and cos(psi_j - a) differ by 2 |sin(mean - a) sin(gap / 2)|
        mean = 0.5 * (psi[:, 1:] + psi[:, :-1]) - shift
        apart = (gap <= DEGENERACY_TOL) | (np.abs(np.sin(mean)) >= bound)
        return psi, x, gap, fits & apart.all(axis=1)

    phases, vectors, gaps, done = solve(a, 0)  # the whole stack, with no gather
    todo = np.flatnonzero(~done)
    for j in range(1, rounds):
        if todo.size == 0:
            break
        psi, x, gap, done = solve(a[todo], j)
        solved = todo[done]
        phases[solved], vectors[solved], gaps[solved] = psi[done], x[done], gap[done]
        todo = todo[~done]
    if todo.size:
        raise NumericalFailure(
            f"{todo.size} nodes keep an eigenpair residual above 1e-9 or two eigenphases"
            f" near a collision point at each of the {rounds} shifts"
        )

    gram = np.max(np.abs(vectors.conj().swapaxes(1, 2) @ vectors - np.eye(n)), initial=0.0)
    if not gram <= 1e-12:
        raise NumericalFailure(f"eigenvector orthonormality error {gram:.3e} exceeds 1e-12")
    return phases, vectors, _gap_labels(gaps)


def _gap_labels(gaps: Array) -> Array:
    """Int labels (M, n) from the (M, n - 1) gaps between adjacent columns.

    A gap above ``DEGENERACY_TOL`` starts a new label.
    """
    labels = np.zeros((len(gaps), gaps.shape[1] + 1), dtype=np.int64)
    labels[:, 1:] = np.cumsum(gaps > DEGENERACY_TOL, axis=1)
    return labels


def eig_unitary(u) -> tuple[Array, Array, Array]:
    """Eigendecompose one unitary matrix: :func:`eig_unitary_batch` at M = 1.

    Returns ``(phases, vectors, labels)`` of shapes (n,), (n, n) and (n,),
    the one node of the batch. The columns ``vectors[:, labels == w]`` span
    eigenspace ``w``, so its projector is basis-independent. Raises as
    :func:`eig_unitary_batch` does.
    """
    phases, vectors, labels = eig_unitary_batch(as_matrix(u)[None])
    return phases[0], vectors[0], labels[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix.

    Construction raises :class:`NumericalFailure` when any of the three
    properties fails by more than 1e-10. Hermiticity is checked on the matrix
    as given; ``matrix`` then holds its exactly Hermitian part ``(m + m^dag)/2``.
    """

    matrix: Array
    # ascending; the positivity check's eigensolve, shared by eigenvalues() and the entropy
    _spectrum: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = as_matrix(self.matrix)
        if a.shape[0] != a.shape[1] or not np.max(np.abs(a - a.conj().T)) <= 1e-10:
            raise NumericalFailure("density matrix is not Hermitian within 1e-10")
        a = (a + a.conj().T) / 2
        object.__setattr__(self, "matrix", a)
        trace = np.trace(a)
        if abs(trace.real - 1.0) > 1e-10 or abs(trace.imag) > 1e-10:
            raise NumericalFailure("density matrix trace differs from 1 by more than 1e-10")
        spectrum = np.linalg.eigvalsh(a)
        if np.min(spectrum) < -1e-10:
            raise NumericalFailure("density matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "_spectrum", spectrum)

    def eigenvalues(self) -> Array:
        """Real eigenvalues, descending."""
        return self._spectrum[::-1].copy()


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits, ``-sum(l * log2(l))`` with 0*log(0) := 0.

    Input that is not a :class:`DensityMatrix` is checked by constructing one.
    Eigenvalues at or below 0 (quadrature noise down to -1e-10) are skipped,
    and the result is floored at 0 (an eigenvalue rounding to slightly above
    1 would otherwise make it negative).
    """
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    lam = rho._spectrum
    pos = lam[lam > 0]
    return max(0.0, float(-(pos * np.log2(pos)).sum()))
