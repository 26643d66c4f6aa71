"""Independent reference for the long-time coin state: per-k dephasing.

The Cesaro limit of the reduced coin state is the Brillouin-zone average of
``sum_w P_w(k) P0(k) P_w(k)``, where ``P_w(k)`` are the eigenspace projectors
of ``U_k = diag_j(exp(-1j k.s_j)) C`` and ``P0(k) = |psi_k><psi_k|``. This
module evaluates that average with numpy alone (batched ``eig`` and ``inv``
over blocks of nodes) so that it shares no code with coinwalk's pipeline.
The blocks keep the reference's memory well below the pipeline's, so the
untimed checks do not set a run's peak resident memory. With ``V`` the eigenvector matrix, ``P_w = V E_w V^-1`` for the
diagonal mask ``E_w`` of the group, so the dephased matrix is
``V (mask o V^-1 P0 V) V^-1``. That form needs no orthonormalisation inside
degenerate eigenspaces, which is where flat-band walks live.
"""

from __future__ import annotations

import numpy as np

#: eigenvalues closer than this (on the unit circle) share an eigenspace;
#: equal to coinwalk's default phase tolerance so both group the same nodes
GROUP_TOL = 1e-9
#: nodes per block: a 128-site packet's phase block is 256 x 128 x 16 B = 0.5 MB
BLOCK_NODES = 256


def grid_nodes(points_per_axis: int, dim: int) -> np.ndarray:
    """Trapezoidal nodes on [-pi, pi)^dim as an (N^dim, dim) array, lexicographic."""
    axis = -np.pi + 2 * np.pi * np.arange(points_per_axis) / points_per_axis
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def dephased_rho(
    coin: np.ndarray,
    shifts: np.ndarray,
    positions: np.ndarray,
    coeffs: np.ndarray,
    points_per_axis: int,
) -> np.ndarray:
    """Grid average of ``sum_w P_w P0 P_w`` for the state ``sum_r |r> (x) coeffs[r]``.

    ``shifts`` is (n, d), ``positions`` (m, d) and ``coeffs`` (m, n).

    Raises
    ------
    ArithmeticError
        If the batched eigendecomposition fails its residual checks or the
        result is not a unit-trace Hermitian matrix.
    """
    coin = np.asarray(coin, dtype=np.complex128)
    shifts = np.asarray(shifts, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n, d = shifts.shape
    ks = grid_nodes(points_per_axis, d)

    eye = np.eye(n)
    total = np.zeros((n, n), dtype=np.complex128)
    for lo in range(0, len(ks), BLOCK_NODES):
        kb = ks[lo:lo + BLOCK_NODES]
        u = np.exp(-1j * (kb @ shifts.T))[:, :, None] * coin[None, :, :]
        lam, v = np.linalg.eig(u)
        vinv = np.linalg.inv(v)
        eig_res = float(np.max(np.abs(u @ v - v * lam[:, None, :])))
        inv_res = float(np.max(np.abs(vinv @ v - eye)))
        if eig_res > 1e-10 or inv_res > 1e-8:
            raise ArithmeticError(f"batched eig residual {eig_res:.3e}, inverse residual {inv_res:.3e}")

        psi = np.exp(-1j * (kb @ positions.T)) @ coeffs  # (block, n)
        a = np.einsum("mij,mj->mi", vinv, psi)  # V^-1 psi
        b = np.einsum("mji,mj->mi", v.conj(), psi)  # V^dag psi
        mask = np.abs(lam[:, :, None] - lam[:, None, :]) < GROUP_TOL
        inner = mask * (a[:, :, None] * b.conj()[:, None, :])
        total += (v @ inner @ vinv).sum(axis=0)
    rho = total / len(ks)

    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace_err = abs(np.trace(rho) - 1.0)
    if herm > 1e-10 or trace_err > 1e-10:
        raise ArithmeticError(f"reference not a density matrix: herm {herm:.3e}, trace {trace_err:.3e}")
    return (rho + rho.conj().T) / 2
