import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from coinwalk import U2Params

settings.register_profile(
    "coinwalk",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("coinwalk")

PI = np.pi


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def swap_matrix(n: int) -> np.ndarray:
    """Permutation exchanging the two tensor factors of C^n (x) C^n."""
    s = np.zeros((n * n, n * n))
    for i, j in itertools.product(range(n), range(n)):
        s[i * n + j, j * n + i] = 1.0
    return s


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
