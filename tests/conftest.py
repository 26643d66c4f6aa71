import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from coinwalk import U2Params
from coinwalk.linalg import is_unitary

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


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
