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

from .errors import (InvalidArgumentError, NonconvergenceError, SingularDtPError)
from .fem import gauss_rule
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
    final_increment: float
    increments: list = field(default_factory=list)


def _kmat(lam: np.ndarray, c: np.ndarray, a: float) -> np.ndarray:
    """Batched 3x3 DtP matrices for lambda of shape (..., 3)."""
    K = np.zeros(lam.shape[:-1] + (3, 3))
    K[..., 0, 0] = K[..., 1, 1] = K[..., 2, 2] = a
    K[..., 0, 1] = K[..., 1, 0] = c[2] * lam[..., 2]
    K[..., 0, 2] = K[..., 2, 0] = c[1] * lam[..., 1]
    K[..., 1, 2] = K[..., 2, 1] = c[0] * lam[..., 0]
    return K


def _inv3(K: np.ndarray, a: float) -> np.ndarray:
    """Explicit adjugate inverse of batched 3x3 matrices with a det guard."""
    det = np.linalg.det(K)
    bad = np.abs(det) < 1e-12 * a ** 3
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise SingularDtPError(
            f"DtP matrix singular at quadrature point {idx}, det={det.flat[idx]:.3e}")
    adj = np.empty_like(K)
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(K, i, axis=-2), j, axis=-1)
            adj[..., j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj / det[..., None, None]


def dtp_euler(lam, lamdot, base, config: EulerConfig):
    """DtP map and its derivatives at one or many quadrature points.

    All arguments broadcast with trailing axis 3.  Returns
    (omega, domega_dlam, domega_dlamdot) where the derivative arrays have
    shape (..., 3, 3) indexed [i, k] = d omega_i / d lambda_k.
    """
    lam = np.asarray(lam, dtype=float)
    lamdot = np.asarray(lamdot, dtype=float)
    base = np.broadcast_to(np.asarray(base, dtype=float), lam.shape)
    I, c, a, nu = config.I, config.c, config.a, config.nu

    K = _kmat(lam, c, a)
    Kinv = _inv3(K, a)
    rhs = I * lamdot - nu * I * lam
    w = np.einsum("...ij,...j->...i", Kinv, rhs)      # omega - base
    omega = base + w

    # d omega / d lambda_k = Kinv f_k with the dK/dlambda_k cross terms
    # acting on (omega - base)
    f = np.zeros(lam.shape[:-1] + (3, 3))             # [..., component, k]
    for k in range(3):
        f[..., k, k] = -nu * I[k]
        f[..., (k + 1) % 3, k] += -c[k] * w[..., (k + 2) % 3]
        f[..., (k + 2) % 3, k] += -c[k] * w[..., (k + 1) % 3]
    dw_dlam = np.einsum("...ij,...jk->...ik", Kinv, f)
    g = np.zeros((3, 3))
    np.fill_diagonal(g, I)
    dw_dlamdot = np.einsum("...ij,jk->...ik", Kinv, g)
    return omega, dw_dlam, dw_dlamdot


def _gauss_eval(mesh: TimeMesh, lam: np.ndarray):
    """lambda and its rate at the two Gauss points of each element.

    Returns (lam_g, lamdot_g, N, Ndot) with lam_g of shape (ne, 2, 3) and
    the shape tables N, Ndot of shape (2 q, 2 a).
    """
    rule = gauss_rule(1)
    N = np.stack([[0.5 * (1 - xi), 0.5 * (1 + xi)] for xi in rule.points])
    Ndot = np.tile(np.array([-1.0, 1.0]) / mesh.h, (2, 1))
    lam_e = np.stack([lam[:, :-1], lam[:, 1:]], axis=-1)    # (3, ne, 2a)
    lam_g = np.einsum("qa,iea->eqi", N, lam_e)
    lamdot_g = np.einsum("qa,iea->eqi", Ndot, lam_e)
    return lam_g, lamdot_g, N, Ndot


def residual(lam: np.ndarray, config: EulerConfig, mesh: TimeMesh,
             base: np.ndarray, omega0: np.ndarray) -> np.ndarray:
    """Discrete weak-form residual, shape (3, n_nodes), all dofs included."""
    I, c, nu = config.I, config.c, config.nu
    lam_g, lamdot_g, N, Ndot = _gauss_eval(mesh, lam)
    omega, _, _ = dtp_euler(lam_g, lamdot_g, base, config)    # (ne, 2q, 3)

    w_half_h = 0.5 * mesh.h    # Gauss weights are 1
    R = np.zeros((3, mesh.n_nodes))
    for i in range(3):
        integrand_dot = -I[i] * omega[..., i]                       # vs Ndot
        integrand_val = (c[i] * omega[..., (i + 1) % 3] * omega[..., (i + 2) % 3]
                         + nu * I[i] * omega[..., i])               # vs N
        contrib = w_half_h * (np.einsum("eq,qa->ea", integrand_dot, Ndot)
                              + np.einsum("eq,qa->ea", integrand_val, N))
        np.add.at(R[i], np.arange(mesh.ne), contrib[:, 0])
        np.add.at(R[i], np.arange(1, mesh.ne + 1), contrib[:, 1])
    R[:, 0] -= I * omega0
    return R


def jacobian(lam: np.ndarray, config: EulerConfig, mesh: TimeMesh,
             base: np.ndarray) -> np.ndarray:
    """Discrete Jacobian over all dofs, shape (3*n_nodes, 3*n_nodes).

    Dof ordering matches the residual flattened as i * n_nodes + A.
    """
    I, c, nu = config.I, config.c, config.nu
    lam_g, lamdot_g, N, Ndot = _gauss_eval(mesh, lam)
    omega, dwl, dwld = dtp_euler(lam_g, lamdot_g, base, config)

    n = mesh.n_nodes
    w_half_h = 0.5 * mesh.h
    J = np.zeros((3, n, 3, n))
    conn = np.stack([np.arange(mesh.ne), np.arange(1, mesh.ne + 1)], axis=1)

    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            # test-side factors per Gauss point: (q, A)
            test1 = -I[i] * Ndot + nu * I[i] * N                    # (2q, 2a)
            ke = np.zeros((mesh.ne, 2, 2))
            # group 1
            ke += w_half_h * np.einsum(
                "qA,eqB->eAB", test1,
                dwl[..., i, j][..., None] * N[None, :, :] +
                dwld[..., i, j][..., None] * Ndot[None, :, :])
            # groups 2 and 3 (cross-product terms)
            ke += w_half_h * np.einsum(
                "qA,eq,eqB->eAB", N, c[i] * omega[..., i2],
                dwl[..., i1, j][..., None] * N[None, :, :] +
                dwld[..., i1, j][..., None] * Ndot[None, :, :])
            ke += w_half_h * np.einsum(
                "qA,eq,eqB->eAB", N, c[i] * omega[..., i1],
                dwl[..., i2, j][..., None] * N[None, :, :] +
                dwld[..., i2, j][..., None] * Ndot[None, :, :])
            for a_loc in range(2):
                for b_loc in range(2):
                    np.add.at(J[i, :, j, :],
                              (conn[:, a_loc], conn[:, b_loc]),
                              ke[:, a_loc, b_loc])
    return J.reshape(3 * n, 3 * n)


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

    free = np.concatenate([i * n + np.arange(n - 1) for i in range(3)])
    increments = []
    grow = 0
    for it in range(config.max_iter):
        R = residual(lam, config, mesh, base, omega0_stage).ravel()
        J = jacobian(lam, config, mesh, base)
        dlam = np.zeros(3 * n)
        dlam[free] = np.linalg.solve(J[np.ix_(free, free)], -R[free])
        lam = lam + dlam.reshape(3, n)
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

    lam_g, lamdot_g, _, _ = _gauss_eval(mesh, lam)
    omega_g, _, _ = dtp_euler(lam_g, lamdot_g, base, config)     # (ne, 2q, 3)
    samples = np.moveaxis(omega_g, -1, 0)                        # (3, ne, 2q)
    omega_nodes = l2_project_time(mesh, samples,
                                  pinned=([0], omega0_stage[:, None]))
    n_keep = mesh.ne - config.N_c
    return StageResult(t_nodes=mesh.nodes[:n_keep + 1],
                       omega_nodes=omega_nodes[:, :n_keep + 1],
                       lam=lam,
                       newton_iters=len(increments),
                       final_increment=increments[-1],
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
        except Exception as exc:
            raise type(exc)(f"stage {len(stages) + 1} failed: {exc}") from exc
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
