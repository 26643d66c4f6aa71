"""Dense complex linear algebra for small matrices.

Everything operates on plain ``numpy`` arrays of ``complex128``. The matrices
here are tiny (n <= 64) but come in stacks of one per Brillouin-zone node, so
the eigensolver works on a whole (M, n, n) stack at once: a Cayley transform
maps each unitary to a Hermitian matrix with the same eigenvectors, one
batched ``numpy.linalg.eigh`` solves them all, and phase grouping by
vectorised gap tests labels the eigenspaces, with the residual and
orthonormality checked at every node. Its output has one shape,
``(phases, vectors, labels)``; a single matrix is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonUnitaryInput, NumericalFailure

Array = np.ndarray

#: eigenphases this close (radians) form one eigenspace, for every coin dimension
DEGENERACY_TOL = 1e-9

#: the first Cayley shift a_0; shift j is a_0 + 2 pi j / (n + 1)
_FIRST_SHIFT = 0.7
#: a node whose Cayley eigenvalue exceeds this has an eigenphase within
#: ~2/_POLE_BOUND rad of the pole and is solved again with the next shift
_POLE_BOUND = 100.0


def as_matrix(m) -> Array:
    """Coerce input to a 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def is_unitary(m) -> bool:
    """True if ``m`` is square and ``m† m = I`` within 1e-10 (max-entry).

    ``m`` is one matrix or an (M, n, n) stack, whose every matrix must pass;
    an empty stack passes.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        return False
    residual = np.abs(a.conj().swapaxes(-1, -2) @ a - np.eye(a.shape[-1]))
    return bool(np.max(residual, initial=0.0) <= 1e-10)


def _cayley(v: Array) -> tuple[Array, Array]:
    """``H = i (I + V)^-1 (I - V)`` per node of a unitary stack, made exactly Hermitian.

    An eigenvalue ``exp(1j phi)`` of V becomes ``tan(phi / 2)`` of H, with the
    same eigenvector. Also returns which nodes have an H: a node whose
    ``I + V`` is exactly singular (an eigenphase on the pole ``phi = pi``)
    has none, and its H is zero.
    """
    eye = np.eye(v.shape[1])
    regular = np.ones(len(v), dtype=bool)
    try:
        x = np.linalg.solve(eye + v, eye - v)
    except np.linalg.LinAlgError:  # one singular node fails the batched solve
        x = np.zeros_like(v)
        for m in range(len(v)):
            try:
                x[m] = np.linalg.solve(eye + v[m], eye - v[m])
            except np.linalg.LinAlgError:
                regular[m] = False
    return 0.5j * (x - x.conj().swapaxes(1, 2)), regular


def eig_unitary_batch(u) -> tuple[Array, Array, Array]:
    """Eigendecompose a stack of unitary matrices (M, n, n) with one batched solve.

    Returns ``(phases, vectors, labels)``: eigenphases (M, n) in ``(-pi, pi]``,
    ascending per node; orthonormal eigenvectors (M, n, n), column ``j``
    paired with ``phases[:, j]``; and int labels (M, n), shared by the columns
    of one eigenspace. Ascending phases whose gaps are within
    ``DEGENERACY_TOL`` form one eigenspace, also across the wrap at +/-pi.

    The solve is a shifted Cayley transform: with ``V = exp(-1j a) U``, the
    Hermitian ``H = i (I + V)^-1 (I - V)`` has U's eigenvectors and the
    eigenvalues ``w = tan((psi - a) / 2)``, so one batched ``eigh`` gives
    orthonormal eigenvectors, also inside degenerate eigenspaces, and the
    phases ``psi = a + 2 arctan(w)``. The pole ``psi = a + pi`` is avoided
    node by node: a node with some ``|w| > 100`` (an eigenphase within
    ~0.02 rad of the pole), or with an eigenvector residual above 1e-12 (an
    eigenphase on the pole), is solved again with the next of the n + 1 shifts
    ``a_j = 0.7 + 2 pi j / (n + 1)``. Its n eigenphases cannot lie near all
    n + 1 poles, so some shift leaves each of them at least ``pi / (n + 1)``
    from its pole and every node is done within n + 1 rounds. The
    eigenvector error stays below about ``2 * 100 * eps / gap``.

    Raises
    ------
    DimensionMismatch
        If the stack is empty.
    NonUnitaryInput
        If some matrix is not unitary within 1e-10.
    ConvergenceFailure
        If the solver fails, if some node's eigenvector residual exceeds 1e-12
        at every shift, or if ``V^dag V`` deviates from the identity by more
        than 1e-12 at some node.
    """
    a = np.asarray(u, dtype=np.complex128)
    if a.size == 0:
        raise DimensionMismatch(f"expected a non-empty stack of matrices, got shape {a.shape}")
    if a.ndim != 3 or not is_unitary(a):
        raise NonUnitaryInput(f"not a stack of matrices unitary within 1e-10, shape {a.shape}")
    m, n, _ = a.shape
    phases = np.empty((m, n))
    vectors = np.empty_like(a)
    todo = np.arange(m)
    for j in range(n + 1):
        shift = _FIRST_SHIFT + 2 * np.pi * j / (n + 1)
        b = a[todo]
        h, regular = _cayley(np.exp(-1j * shift) * b)
        try:
            w, x = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
        psi = shift + 2 * np.arctan(w)
        # an eigenphase on the pole itself can leave I + V singular only up to
        # rounding, and H small and wrong; the node's residual shows it
        fits = np.max(np.abs(b @ x - x * np.exp(1j * psi)[:, None, :]), axis=(1, 2)) <= 1e-12
        done = regular & (np.max(np.abs(w), axis=1) <= _POLE_BOUND) & fits
        phases[todo[done]] = psi[done]
        vectors[todo[done]] = x[done]
        todo = todo[~done]
        if todo.size == 0:
            break
    else:
        raise ConvergenceFailure(f"{todo.size} nodes keep an eigenphase on every Cayley pole")

    phases = np.mod(phases + np.pi, 2 * np.pi) - np.pi
    phases = np.where(phases <= -np.pi, phases + 2 * np.pi, phases)  # into (-pi, pi]
    order = np.argsort(phases, axis=1, kind="stable")
    phases = np.take_along_axis(phases, order, axis=1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)

    labels = np.zeros(phases.shape, dtype=np.int64)
    labels[:, 1:] = np.cumsum(np.diff(phases, axis=1) > DEGENERACY_TOL, axis=1)
    wrap = phases[:, 0] + 2 * np.pi - phases[:, -1] <= DEGENERACY_TOL
    labels = np.where(wrap[:, None] & (labels == labels[:, -1:]), 0, labels)

    gram = np.max(np.abs(vectors.conj().swapaxes(1, 2) @ vectors - np.eye(n)))
    if not gram <= 1e-12:
        raise ConvergenceFailure(f"eigenvector orthonormality error {gram:.3e} exceeds 1e-12")
    return phases, vectors, labels


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
        if abs(np.trace(a).real - 1.0) > 1e-10 or abs(np.trace(a).imag) > 1e-10:
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
