import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from coinwalk import U2Params, WalkSpec
from coinwalk.linalg import _eig_unitary_stack, _newton_schulz, is_unitary
from coinwalk.walk import build_uk

settings.register_profile(
    "coinwalk",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI selects this one with --hypothesis-profile=ci, which pytest applies after
# this file has loaded the default below
settings.register_profile("ci", settings.get_profile("coinwalk"), max_examples=200)
settings.load_profile("coinwalk")

PI = np.pi
SQUARE = [[1, 0], [-1, 0], [0, 1], [0, -1]]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def coin_kind_walk(kind: str, n: int, d: int, shifts, rng: np.random.Generator) -> WalkSpec:
    """A walk whose eigenspaces are of one kind.

    ``grover-2d`` has flat bands at +-1 and merged eigenspaces at some nodes, ``rank-2``
    (two coin states share the shift +1) one 2-d eigenspace at every node; ``pair`` is a
    Haar basis with an exactly degenerate pair of eigenphases, which U_k keeps wherever
    every shift phase is equal (k = 0, on even grids); ``haar`` is a Haar coin. The last
    two take n, d and the shifts as given.
    """
    if kind == "grover-2d":
        return WalkSpec(2, 4, SQUARE, np.full((4, 4), 0.5) - np.eye(4))
    if kind == "rank-2":
        return WalkSpec(1, 3, [[1], [1], [-1]], np.eye(3))
    coin = random_unitary(rng, n)
    if kind == "pair":
        w = rng.uniform(-PI, PI, n)
        w[1] = w[0]
        coin = coin @ np.diag(np.exp(1j * w)) @ coin.conj().T
    return WalkSpec(d, n, shifts, coin)


def boundary_coin(q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``q (I + e h)`` at the largest e in [0, 1e-9] that ``is_unitary`` admits, by bisection.

    For a unitary ``q`` and a Hermitian ``h`` its polar factor is ``q``. The
    rounding of a phase product ``diag(phi) q (I + e h)`` pushes some of its
    products past the 1e-10 to which the coin itself is unitary.
    """
    eye = np.eye(len(q))
    lo, hi = 0.0, 1e-9
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if is_unitary(q @ (eye + mid * h)) else (lo, mid)
    return q @ (eye + lo * h)


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random unit vector in C^n."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def same_bits(a, b) -> bool:
    """``np.array_equal`` of the two arrays' bits, which also tells 0.0 from -0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def c_from_involution(d) -> np.ndarray:
    """``C(k) = (I (x) I + D (x) D) / 2`` per node, (M, 4, 4), from the (2, 2, M) entries of D.

    C's rows run over (a, c) and its columns over (b, d), so its entries are
    ``(delta_ab delta_cd + D_ab D_cd) / 2``; where ``D = I`` it is exactly I.
    """
    dm = np.moveaxis(d, 2, 0)
    c = (dm[:, :, None, :, None] * dm[:, None, :, None, :]).reshape(-1, 4, 4)
    c += np.eye(4)
    c *= 0.5
    return c


def c_stack(spec, ks) -> np.ndarray:
    """``C(k) = sum_w P_w (x) P_w`` per row of ``ks``, (M, n^2, n^2), from one batched solve.

    The per-node reference that no route of the package forms: with the columns
    ``z_ij = v_i (x) v_j`` masked to the pairs of one eigenspace, C is their Gram product.
    """
    _, v, labels = _eig_unitary_stack(_newton_schulz(build_uk(spec, ks)))
    m, n, _ = v.shape
    z = v[:, :, None, :, None] * v[:, None, :, None, :]  # (node, a, c, i, j)
    z *= labels[:, None, None, :, None] == labels[:, None, None, None, :]
    z = z.reshape(m, n * n, n * n)
    return z @ z.conj().swapaxes(1, 2)


def swap_matrix(n: int) -> np.ndarray:
    """Permutation exchanging the two tensor factors of C^n (x) C^n."""
    s = np.zeros((n * n, n * n))
    for i, j in itertools.product(range(n), range(n)):
        s[i * n + j, j * n + i] = 1.0
    return s


def unitarity_error(m) -> float:
    """Largest entry of ``|m^dag m - I|``."""
    a = np.asarray(m)
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))


def partial_trace(m, which: str = "first") -> np.ndarray:
    """Trace out one tensor factor of an (n^2 x n^2) matrix.

    Viewing ``m`` as an n x n grid of n x n blocks, ``which='first'`` sums
    the diagonal blocks (traces out the first factor) and ``which='second'``
    replaces each block by its trace.
    """
    a = np.asarray(m)
    n = round(a.shape[0] ** 0.5)
    assert a.shape == (n * n, n * n), a.shape
    return np.einsum({"first": "iaib->ab", "second": "iaja->ij"}[which], a.reshape(n, n, n, n))


def format_complex(z: complex) -> str:
    """A complex literal of the walk-file grammar that parses back to ``z`` exactly."""
    re_s, im_s = format(z.real, ".17g"), format(z.imag, ".17g")
    return f"{re_s}{'' if im_s.startswith('-') else '+'}{im_s}i"


def walk_config_text(spec) -> str:
    """The walk file that ``parse_walk_config`` reads back as ``spec``."""
    lines = [f"dim {spec.lattice_dim}"]
    lines += ["coin " + ", ".join(format_complex(z) for z in row) for row in spec.coin]
    lines += ["shift " + " ".join(str(int(x)) for x in sv) for sv in spec.shifts]
    return "\n".join(lines) + "\n"


def random_interior_params(rng: np.random.Generator) -> U2Params:
    """Coin parameters safely away from the Pauli-type endpoints."""
    return U2Params(
        theta=rng.uniform(0.05, PI / 2 - 0.05),
        alpha=rng.uniform(-PI, PI),
        beta=rng.uniform(-PI, PI),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)
