#!/usr/bin/env python3
"""Time each stage of one ``characteristic_stack`` block, best of R, as JSON.

The walk is a Haar n=4 coin on the square lattice (shifts +-e1, +-e2). For
each grid (20^2, 24^2 and 96^2, as in ``perfbench``'s lattice workload) the
block is the first block of nodes the quadrature walks: the half zone of a
bipartite walk on an even grid, at most 1024 nodes for n = 4. The stages
are those of the solver's first round, at the first shift, which solves
nearly every node, then the block's ``c_local`` sum:

- ``build``: the coin's Newton-Schulz step and the ``U_k`` stack (the shift
  phases come from their memo, as in a quadrature that repeats its grid);
- ``transform``: the shift and the Hermitian part ``V + V^dag`` of ``V = e^(-ia) U_k``;
- ``eigh``: the batched Hermitian eigensolve;
- ``rayleigh_fit``: ``U X``, the Rayleigh quotients ``x_j^dag U x_j`` and the
  1e-9 eigenpair fit;
- ``separation``: the phases, the wrapped gaps of adjacent columns and the
  collision test;
- ``gram_check``: the 1e-12 orthonormality check;
- ``gram_sum``: the (n^2, M n) factor ``Z_f``, whose column (k, j) is
  ``v_j(k) (x) v_j(k)``, from one transposed copy of the eigenvectors, and
  its Gram product ``Z_f Z_f^dag``, the block's sum of C (a Haar coin has no
  shared eigenspace, so the shared pairs' term is not timed).

``characteristic_stack`` is the whole call ``c_local`` makes for the block,
``characteristic_stack(spec, ks)``, for comparison with ``stages_sum``, the
sum of the stages it runs. Times are in microseconds. Run it from the root
of a checkout::

    python3 scripts/eig_stages.py --repeats 50
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
for pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[pin] = "1"  # as perfbench pins them, before numpy is imported
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from coinwalk import QuadratureGrid, WalkSpec  # noqa: E402
from coinwalk.characteristic import _BLOCK_BYTES, characteristic_stack  # noqa: E402
from coinwalk.linalg import _FIRST_SHIFT, _SEPARATION, DEGENERACY_TOL, _newton_schulz  # noqa: E402
from coinwalk.walk import _shift_phases  # noqa: E402

SQUARE = [[1, 0], [-1, 0], [0, 1], [0, -1]]
GRIDS = (20, 24, 96)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def stages(spec: WalkSpec, ks: np.ndarray) -> dict:
    """A callable per stage, each given the inputs the stage before it produced."""
    n = spec.coin_dim
    rounds = n * (n - 1) // 2 + 1
    bound = min(_SEPARATION, np.sin(np.pi / (2 * rounds)))

    def build():
        coin = _newton_schulz(spec.coin)
        return np.multiply(_shift_phases(spec.shifts, ks).T[:, :, None], coin, order="C")

    def transform():
        v = np.exp(-1j * _FIRST_SHIFT) * u
        return v + v.conj().swapaxes(1, 2)

    def rayleigh_fit():
        ux = u @ x
        lam = np.einsum("mij,mij->mj", x.conj(), ux)
        return lam, np.max(np.abs(ux - x * lam[:, None, :]), axis=(1, 2)) <= 1e-9

    def separation():
        psi = np.angle(lam)
        gap = np.abs(np.diff(psi, axis=1))
        gap = np.minimum(gap, 2 * np.pi - gap)
        mean = 0.5 * (psi[:, 1:] + psi[:, :-1]) - _FIRST_SHIFT
        return ((gap <= DEGENERACY_TOL) | (np.abs(np.sin(mean)) >= bound)).all(axis=1)

    def gram_sum():
        w = np.ascontiguousarray(x.transpose(1, 0, 2))
        z = (w[:, None] * w[None]).reshape(n * n, -1)
        return z @ z.conj().T

    u = build()
    _, x = np.linalg.eigh(transform())
    lam, _ = rayleigh_fit()
    h = transform()
    return {
        "build": build,
        "transform": transform,
        "eigh": lambda: np.linalg.eigh(h),
        "rayleigh_fit": rayleigh_fit,
        "separation": separation,
        "gram_check": lambda: np.max(np.abs(x.conj().swapaxes(1, 2) @ x - np.eye(n)), initial=0.0),
        "gram_sum": gram_sum,
        "characteristic_stack": lambda: characteristic_stack(spec, ks),
    }


def best_us(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best * 1e6


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=50, help="best of this many calls per stage")
    ap.add_argument("--seed", type=int, default=4, help="seed of the Haar coin")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    spec = WalkSpec(2, 4, SQUARE, haar_unitary(np.random.default_rng(args.seed), 4))
    size = _BLOCK_BYTES // (16 * spec.coin_dim**4)
    blocks = {}
    for points in GRIDS:
        grid = QuadratureGrid(points, 2)
        ks = grid._first_nodes(grid.node_count // 2)[:size]
        timed = {name: best_us(fn, args.repeats) for name, fn in stages(spec, ks).items()}
        # the stages inside characteristic_stack, against the whole call
        inside = (
            "build", "transform", "eigh", "rayleigh_fit", "separation", "gram_check", "gram_sum"
        )
        timed["stages_sum"] = sum(timed[name] for name in inside)
        blocks[f"{points}^2"] = {"nodes": len(ks), "us": {k: round(t, 1) for k, t in timed.items()}}
    print(json.dumps({
        "walk": "Haar n=4 on the square lattice",
        "seed": args.seed,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blocks": blocks,
    }, indent=1))


if __name__ == "__main__":
    main()
