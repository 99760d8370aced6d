"""Dual solver for the rigid-body angular velocity equations.

Each time stage poses a two-point boundary value problem in three dual
fields lambda_i with a final-time Dirichlet condition, solved by
Newton-Raphson.  The angular velocity is recovered pointwise through a 3x3
solve (the DtP map), projected onto the stage nodes, and the trailing
elements of every stage are discarded before chaining.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from scipy import sparse
from scipy.linalg import solve_banded

from .errors import (DualFemError, InvalidArgumentError, NonconvergenceError,
                     SingularDtPError, SolverError)
from .fem import LINE_N as _N
from .mesh import TimeMesh, build_time_mesh
from .projection import l2_project_time


@dataclass
class EulerConfig:
    I: Sequence[float]
    omega0: Sequence[float]
    nu: float = 0.0
    a: float = 1.0
    T_total: float = 3.0
    T_stage: float = 0.5
    ne_per_stage: int = 20
    N_c: int = 5
    tol: float = 1e-10
    max_iter: int = 50
    lambda_T: Sequence[float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        self.I = np.asarray(self.I, dtype=float)
        self.omega0 = np.asarray(self.omega0, dtype=float)
        self.lambda_T = np.asarray(self.lambda_T, dtype=float)
        if self.I.shape != (3,) or np.any(self.I <= 0):
            raise InvalidArgumentError("inertias must be three positive values")
        if self.omega0.shape != (3,):
            raise InvalidArgumentError("omega0 must have three components")
        if self.nu < 0:
            raise InvalidArgumentError(f"damping must be non-negative, got {self.nu}")
        if self.a <= 0:
            raise InvalidArgumentError(f"potential stiffness must be positive, got {self.a}")
        if not 0 <= self.N_c < self.ne_per_stage:
            raise InvalidArgumentError(
                f"need 0 <= N_c < ne_per_stage, got {self.N_c}, {self.ne_per_stage}")

    @property
    def c(self) -> np.ndarray:
        """Inertia differences c_i = I_{i+2} - I_{i+1}, indices mod 3."""
        I = self.I
        return np.array([I[(i + 2) % 3] - I[(i + 1) % 3] for i in range(3)])


@dataclass
class StageResult:
    t_nodes: np.ndarray           # retained node times, stage-local
    omega_nodes: np.ndarray       # (3, n_retained)
    lam: np.ndarray               # converged dual field, (3, n_nodes)
    newton_iters: int
    increments: list = field(default_factory=list)


# 2-point Gauss rate table on the reference element, [q, a], per unit
# element length (divided by h)
_NDOT = np.array([[-1.0, 1.0], [-1.0, 1.0]])
# flat [i, k] positions of the six distinct adjugate entries
# (d0, d1, d2, K01, K02, K12), and of the component 3 - i - k for i != k
_SYM = [0, 3, 4, 3, 1, 5, 4, 5, 2]
_OTHER = [0, 2, 1, 2, 0, 0, 1, 0, 0]
_OFFDIAG = 1.0 - np.eye(3)


def _inv3(lam: np.ndarray, c: np.ndarray, a: float) -> np.ndarray:
    """Closed-form inverse of the batched DtP matrices K(lambda), lam (..., 3).

    K = [[a, p, q], [p, a, r], [q, r, a]] with p = c2 lam2, q = c1 lam1,
    r = c0 lam0; det K = a^3 + 2pqr - a(p^2 + q^2 + r^2).
    """
    x = lam[..., ::-1] * c[::-1]                                # (p, q, r)
    det = a * (a * a - np.sum(x * x, axis=-1)) + 2 * np.prod(x, axis=-1)
    bad = np.abs(det) < 1e-12 * a ** 3
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise SingularDtPError(
            f"DtP matrix singular at quadrature point {idx}, det={det.flat[idx]:.3e}")
    adj = np.concatenate([a * a - x[..., ::-1] ** 2,              # a^2 - (r^2, q^2, p^2)
                          x[..., [1, 0, 0]] * x[..., [2, 2, 1]] - a * x], axis=-1)
    return adj[..., _SYM].reshape(lam.shape + (3,)) / det[..., None, None]


def dtp_euler(lam, lamdot, base, config: EulerConfig):
    """DtP map and its derivatives at one or many quadrature points.

    All arguments broadcast with trailing axis 3.  Returns
    (omega, domega_dlam, domega_dlamdot) where the derivative arrays have
    shape (..., 3, 3) indexed [i, k] = d omega_i / d lambda_k.
    """
    lam = np.asarray(lam, dtype=float)
    I, c, nu = config.I, config.c, config.nu

    Kinv = _inv3(lam, c, config.a)
    w = (Kinv @ (I * lamdot - nu * I * lam)[..., None])[..., 0]     # omega - base
    omega = base + w

    # d omega / d lambda_k = Kinv f_k, f[i, k] = -nu I_k delta_ik - c_k w_{3-i-k}:
    # the dK/dlambda_k cross terms acting on (omega - base)
    f = -(w[..., _OTHER].reshape(w.shape + (3,)) * (c * _OFFDIAG) + np.diag(nu * I))
    return omega, Kinv @ f, Kinv * I


def _dtp_at_gauss(mesh: TimeMesh, lam: np.ndarray, base, config: EulerConfig):
    """:func:`dtp_euler` at the two Gauss points of each element.

    Returns (omega, domega_dlam, domega_dlamdot, Ndot) with omega of shape
    (ne, 2 q, 3) and the rate table Ndot of shape (2 q, 2 a).
    """
    Ndot = _NDOT / mesh.h
    lam_e = np.stack([lam[:, :-1].T, lam[:, 1:].T], axis=1)       # (ne, 2a, 3)
    return dtp_euler(_N @ lam_e, Ndot @ lam_e, base, config) + (Ndot,)


def residual(lam: np.ndarray, config: EulerConfig, mesh: TimeMesh,
             base: np.ndarray, omega0: np.ndarray) -> np.ndarray:
    """Discrete weak-form residual, shape (3, n_nodes), all dofs included."""
    I, c, nu = config.I, config.c, config.nu
    omega, _, _, Ndot = _dtp_at_gauss(mesh, lam, base, config)

    # integrands against Ndot and N; Gauss weights are 1
    dot = -I * omega
    val = c * omega[..., [1, 2, 0]] * omega[..., [2, 0, 1]] + nu * I * omega
    contrib = 0.5 * mesh.h * (Ndot.T @ dot + _N.T @ val)          # (ne, 2a, 3)
    R = np.zeros((mesh.n_nodes, 3))
    R[:-1] += contrib[:, 0]
    R[1:] += contrib[:, 1]
    R[0] -= I * omega0
    return R.T


def jacobian(lam: np.ndarray, config: EulerConfig, mesh: TimeMesh,
             base: np.ndarray) -> sparse.csr_matrix:
    """Discrete Jacobian over all dofs, sparse of shape (3*n_nodes, 3*n_nodes).

    Dof ordering matches the residual flattened as i * n_nodes + A.
    """
    I, c, nu = config.I, config.c, config.nu
    n, ne = mesh.n_nodes, mesh.ne
    omega, dwl, dwld, Ndot = _dtp_at_gauss(mesh, lam, base, config)

    # test side [e, i, A, q, m]: how d omega_m at Gauss point q enters
    # equation i at node A, directly (m = i) and through the product
    # c_i omega_{i+1} omega_{i+2}
    cross = omega[..., _OTHER].reshape(omega.shape + (3,)) * (c[:, None] * _OFFDIAG)
    test = (np.diag(I)[:, None, None, :] * (nu * _N - Ndot).T[:, :, None]
            + cross.transpose(0, 2, 1, 3)[:, :, None] * _N.T[:, :, None])
    # trial side [e, q, m, j, B]: d omega_m / d lambda_jB at Gauss point q
    trial = (dwl[..., None] * _N[:, None, None, :]
             + dwld[..., None] * Ndot[:, None, None, :])
    ke = 0.5 * mesh.h * (test.reshape(ne, 6, 6) @ trial.reshape(ne, 6, 6))   # [e, iA, jB]

    node = np.arange(ne)[:, None, None] + np.arange(2)            # [e, ., A]
    dof = (np.arange(3)[:, None] * n + node).reshape(ne, 6)       # [e, iA]
    rows = np.repeat(dof, 6, axis=1).ravel()
    cols = np.tile(dof, 6).ravel()
    return sparse.csr_matrix((ke.ravel(), (rows, cols)), shape=(3 * n, 3 * n))


def _newton_step(J: sparse.csr_matrix, R: np.ndarray) -> np.ndarray:
    """Newton step of shape (3, n_nodes), zero at lambda(T), checked against J.

    In node-major order 3 A + i the free block of J is block-tridiagonal
    with five sub- and five super-diagonals: one banded LU solve.
    """
    n = R.shape[1]
    m = 3 * (n - 1)
    node_major = (3 * np.arange(n) + np.arange(3)[:, None]).ravel()   # i * n + A -> 3 A + i
    r = np.repeat(node_major, np.diff(J.indptr))
    col = node_major[J.indices]
    keep = (r < m) & (col < m)
    ab = np.zeros((11, m))
    ab[5 + r[keep] - col[keep], col[keep]] = J.data[keep]
    try:
        step = solve_banded((5, 5), ab, -R.T[:-1].ravel(), check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Newton matrix is singular: {exc}") from exc
    dlam = np.zeros((3, n))
    dlam[:, :-1] = step.reshape(n - 1, 3).T
    lin_res = np.linalg.norm((J @ dlam.ravel()).reshape(3, n)[:, :-1] + R[:, :-1])
    bound = 1e-8 * np.linalg.norm(R[:, :-1])
    if not lin_res <= bound:                    # a non-finite step fails too
        raise SolverError(
            f"Newton step residual {lin_res:.3e} exceeds 1e-8 |R| = {bound:.3e}")
    return dlam


def newton_stage(config: EulerConfig, omega0_stage: np.ndarray,
                 mesh: TimeMesh | None = None) -> StageResult:
    """Solve one stage: Newton on the dual fields, DtP, projection, discard."""
    if mesh is None:
        mesh = build_time_mesh(config.T_stage, config.ne_per_stage)
    n = mesh.n_nodes
    omega0_stage = np.asarray(omega0_stage, dtype=float)
    base = omega0_stage                         # piecewise-constant base state

    lam = np.zeros((3, n))
    lam[:, -1] = config.lambda_T

    increments = []
    grow = 0
    for it in range(config.max_iter):
        R = residual(lam, config, mesh, base, omega0_stage)
        dlam = _newton_step(jacobian(lam, config, mesh, base), R)
        lam = lam + dlam
        d = float(np.max(np.abs(dlam)))
        increments.append(d)
        if d < config.tol:
            break
        if len(increments) >= 2 and d > increments[-2]:
            grow += 1
            if grow >= 3:
                raise NonconvergenceError(
                    f"Newton diverging after {it + 1} iterations", increments)
        else:
            grow = 0
    else:
        raise NonconvergenceError(
            f"Newton did not converge in {config.max_iter} iterations", increments)

    omega_g = _dtp_at_gauss(mesh, lam, base, config)[0]           # (ne, 2q, 3)
    samples = np.moveaxis(omega_g, -1, 0)                        # (3, ne, 2q)
    omega_nodes = l2_project_time(mesh, samples,
                                  pinned=([0], omega0_stage[:, None]))
    n_keep = mesh.ne - config.N_c
    return StageResult(t_nodes=mesh.nodes[:n_keep + 1],
                       omega_nodes=omega_nodes[:, :n_keep + 1],
                       lam=lam,
                       newton_iters=len(increments),
                       increments=increments)


@dataclass
class EulerRun:
    t: np.ndarray            # (n,) global retained node times
    omega: np.ndarray        # (3, n)
    stages: list             # StageResult per stage


def run_euler(config: EulerConfig) -> EulerRun:
    """Chain stages until the accumulated retained time covers T_total."""
    mesh = build_time_mesh(config.T_stage, config.ne_per_stage)
    times = [np.array([0.0])]
    omegas = [np.asarray(config.omega0, dtype=float)[:, None]]
    stages = []
    t_f = 0.0
    omega_f = np.asarray(config.omega0, dtype=float)
    while t_f < config.T_total - 1e-12:
        try:
            res = newton_stage(config, omega_f, mesh)
        except DualFemError as exc:
            # re-raise the same object: its type and Newton history survive
            exc.args = (f"stage {len(stages) + 1} failed: {exc}",) + exc.args[1:]
            raise
        stages.append(res)
        times.append(t_f + res.t_nodes[1:])
        omegas.append(res.omega_nodes[:, 1:])
        t_f += res.t_nodes[-1]
        omega_f = res.omega_nodes[:, -1]
    return EulerRun(t=np.concatenate(times),
                    omega=np.concatenate(omegas, axis=1),
                    stages=stages)


def kinetic_energy(I, omega) -> np.ndarray:
    """E = 1/2 sum_i I_i omega_i^2; omega of shape (3, ...)."""
    I = np.asarray(I, dtype=float)
    return 0.5 * np.einsum("i,i...->...", I, np.asarray(omega) ** 2)


def momentum_magnitude(I, omega) -> np.ndarray:
    """|I omega| with principal inertias I."""
    I = np.asarray(I, dtype=float)
    return np.sqrt(np.einsum("i,i...->...", I ** 2, np.asarray(omega) ** 2))
