"""Dual solver for the rigid-body angular velocity equations.

Each time stage poses a two-point boundary value problem in three dual
fields lambda_i with the final-time condition lambda(T) = 0, solved by
Newton-Raphson.  The angular velocity is recovered pointwise through a 3x3
solve (the DtP map), projected onto the stage nodes, and the trailing
elements of every stage are discarded before chaining.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._lapack import dgbmv, dgbsv
from .errors import (InvalidArgumentError, NonconvergenceError, SingularDtPError,
                     SolverError, in_stage)
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
    # inertia differences c_i = I_{i+2} - I_{i+1}, indices mod 3
    c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.I = np.asarray(self.I, dtype=float)
        self.omega0 = np.asarray(self.omega0, dtype=float)
        if self.I.shape != (3,) or np.any(self.I <= 0):
            raise InvalidArgumentError("inertias must be three positive values")
        if self.omega0.shape != (3,):
            raise InvalidArgumentError("omega0 must have three components")
        if self.nu < 0:
            raise InvalidArgumentError(f"damping must be non-negative, got {self.nu}")
        if self.a <= 0:
            raise InvalidArgumentError(f"potential stiffness must be positive, got {self.a}")
        if not self.T_total > 0:
            raise InvalidArgumentError(f"need T_total > 0, got T_total={self.T_total}")
        if not self.tol > 0:
            raise InvalidArgumentError(f"Newton tolerance must be positive, got tol={self.tol}")
        if not 0 <= self.N_c < self.ne_per_stage:
            raise InvalidArgumentError(
                f"need 0 <= N_c < ne_per_stage, got {self.N_c}, {self.ne_per_stage}")
        self.c = np.roll(self.I, 1) - np.roll(self.I, 2)


@dataclass
class StageResult:
    t_nodes: np.ndarray           # retained node times, stage-local
    omega_nodes: np.ndarray       # (3, n_retained)
    newton_iters: int
    increments: list = field(default_factory=list)


# flat [i, k] positions of the six distinct adjugate entries
# (d0, d1, d2, K01, K02, K12), and of the component 3 - i - k for i != k
_SYM = np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])
_OTHER = np.array([0, 2, 1, 2, 0, 0, 1, 0, 0])
# components i + 1 and i + 2, indices mod 3
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])
_OFFDIAG = 1.0 - np.eye(3)
# element entry [a, b, i, j] of the node-major Jacobian lies in column
# 3 (e + b) + j, band row 5 + row - column (LAPACK band storage)
_A, _B, _I, _J = np.ix_(range(2), range(2), range(3), range(3))
_ELEM_COL, _ELEM_BAND = (3 * _B + _J)[..., None], (5 + 3 * (_A - _B) + _I - _J)[..., None]


def _inv3(lam: np.ndarray, c: np.ndarray, a: float) -> np.ndarray:
    """Closed-form inverse of the batched DtP matrices K(lambda).

    lam has shape (3, m); returns (3, 3, m) indexed [i, k, point].
    K = [[a, p, q], [p, a, r], [q, r, a]] with p = c2 lam2, q = c1 lam1,
    r = c0 lam0; det K is expanded along row 0.
    """
    x = lam[::-1] * c[::-1, None]                               # (p, q, r)
    adj = np.empty((6,) + x.shape[1:])
    np.square(x[::-1], out=adj[:3])
    np.subtract(a * a, adj[:3], out=adj[:3])                    # a^2 - (r^2, q^2, p^2)
    np.multiply(x[1::-1], x[2], out=adj[3:5])                   # q r, p r
    np.multiply(x[0], x[1], out=adj[5])                         # p q
    np.subtract(adj[3:], a * x, out=adj[3:])                    # K01, K02, K12
    det = a * adj[0] + x[0] * adj[3] + x[1] * adj[4]
    bad = np.abs(det) < 1e-12 * a ** 3
    if bad.any():
        raise SingularDtPError(f"DtP matrix singular at quadrature point "
                               f"{np.argmax(bad)}, det={det[bad][0]:.3e}")
    np.divide(adj, det, out=adj)
    return adj.take(_SYM, axis=0).reshape((3, 3) + lam.shape[1:])


def dtp_euler(lam, lamdot, base, config: EulerConfig):
    """DtP map and its derivatives at one or many quadrature points.

    lam and lamdot have shape (3, ...), base (3,) or (3, ...); lamdot and
    base are arrays.  Returns
    (omega, domega_dlam, domega_dlamdot), omega shaped like lam and the
    derivatives (3, 3, ...) indexed [i, k] = d omega_i / d lambda_k.
    """
    lam = np.asarray(lam, dtype=float)
    shape, tail = lam.shape, lam.shape[1:]
    lam, lamdot, base = lam.reshape(3, -1), lamdot.reshape(3, -1), base.reshape(3, -1)
    I, c, nu = config.I[:, None], config.c, config.nu

    Kinv = _inv3(lam, c, config.a)
    w = np.einsum("ikm,km->im", Kinv, I * (lamdot - nu * lam))   # omega - base

    # d omega / d lambda_k = Kinv f_k, f[i, k] = -nu I_k delta_ik - c_k w_{3-i-k}:
    # the dK/dlambda_k cross terms acting on (omega - base)
    dwld = Kinv * I
    F = w.take(_OTHER, axis=0).reshape(3, 3, -1)
    F *= (c * _OFFDIAG)[..., None]
    dwl = np.einsum("ijm,jkm->ikm", Kinv, F)
    np.negative(dwl, out=dwl)
    dwl -= nu * dwld
    w += base
    return w.reshape(shape), dwl.reshape((3, 3) + tail), dwld.reshape((3, 3) + tail)


@lru_cache(maxsize=8)
def _mesh_tables(ne: int, h: float):
    """Per-mesh constants of the Gauss-point integrals, built once per (ne, h).

    Returns the rate table Ndot [q, a], the Jacobian's shape-function weights
    W [a b, s t q] (N for (val, lambda), Ndot for (dot, lambdadot)) and the
    flat index column * 11 + band row of every element entry [a, b, i, j, e]
    for ``np.bincount``.
    """
    Ndot = np.array([[-1.0, 1.0], [-1.0, 1.0]]) / h              # [q, a]
    phi = np.stack([_N, Ndot])                                    # [s, q, a]
    W = np.einsum("sqa,tqb->abstq", phi, phi).reshape(4, 8)
    band = ((_ELEM_COL + 3 * np.arange(ne)) * 11 + _ELEM_BAND).ravel()
    for table in (Ndot, W, band):
        table.flags.writeable = False
    return Ndot, W, band


def _dtp_at_gauss(mesh: TimeMesh, lam: np.ndarray, base, config: EulerConfig):
    """:func:`dtp_euler` at the two Gauss points of each element.

    Returns the Gauss-point state (omega, domega_dlam, domega_dlamdot, Ndot)
    that :func:`residual` and :func:`jacobian` read, omega of shape
    (3, 2 q, ne) and the rate table Ndot of shape (2 q, 2 a).
    """
    Ndot = _mesh_tables(mesh.ne, mesh.h)[0]
    # np.stack(axis=1) builds the same array in twice the time
    lam_e = np.empty((3, 2, mesh.ne))                             # (3, 2a, ne)
    lam_e[:, 0], lam_e[:, 1] = lam[:, :-1], lam[:, 1:]
    return dtp_euler(_N @ lam_e, Ndot @ lam_e, base, config) + (Ndot,)


def residual(gauss: tuple, config: EulerConfig, mesh: TimeMesh,
             omega0: np.ndarray) -> np.ndarray:
    """Discrete weak-form residual, shape (3, n_nodes), all dofs included.

    ``gauss`` is the Gauss-point state returned by :func:`_dtp_at_gauss`.
    """
    I, c, nu = config.I[:, None, None], config.c[:, None, None], config.nu
    omega, _, _, Ndot = gauss

    # integrands against Ndot and N; Gauss weights are 1
    val = c * omega.take(_NEXT, axis=0) * omega.take(_AFTER, axis=0) + nu * I * omega
    contrib = 0.5 * mesh.h * (Ndot.T @ (-I * omega) + _N.T @ val)   # (3, 2a, ne)
    R = np.zeros((3, mesh.n_nodes))
    R[:, :-1] += contrib[:, 0]
    R[:, 1:] += contrib[:, 1]
    R[:, 0] -= config.I * omega0
    return R


def jacobian(gauss: tuple, config: EulerConfig, mesh: TimeMesh) -> np.ndarray:
    """Discrete Jacobian over all dofs, in LAPACK band storage.

    ``gauss`` is the Gauss-point state returned by :func:`_dtp_at_gauss`.
    Dofs are node-major, 3 A + i, the order of ``R.T.ravel()``.  Returns the
    (11, 3 n_nodes) band of the block-tridiagonal matrix, Fortran-ordered:
    entry (row, col) sits at [5 + row - col, col], offsets 5 .. -5 from the
    top row down.
    """
    I, c, nu, n, ne = config.I, config.c, config.nu, mesh.n_nodes, mesh.ne
    omega, dwl, dwld, _ = gauss
    _, W, band = _mesh_tables(ne, mesh.h)

    # d val_i / d omega_m = nu I_i delta_im + c_i omega_{3-i-m} (i != m) and
    # d dot_i / d omega_m = -I_i delta_im, each applied to the trial
    # derivatives d omega_m / d(lambda_j, lambdadot_j): M[s, t, q, i, j, e]
    dval = omega.take(_OTHER, axis=0).reshape(3, 3, 2, ne)
    dval *= (c[:, None] * _OFFDIAG)[..., None, None]
    dval += np.diag(nu * I)[..., None, None]
    # np.array stacks as np.stack does, in a third of its time
    trial = np.array([dwl, dwld])                                 # [t, m, j, q, e]
    M = np.empty((2, 2, 2, 3, 3, ne))
    np.einsum("imqe,tmjqe->tqije", dval, trial, out=M[0])
    np.multiply(-I[:, None, None], trial.transpose(0, 3, 1, 2, 4), out=M[1])
    ke = W @ M.reshape(8, -1)                                     # [a b, i j e]
    ke *= 0.5 * mesh.h

    return np.bincount(band, ke.ravel(), minlength=11 * 3 * n).reshape(3 * n, 11).T


def _newton_step(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Newton step of shape (3, n_nodes), zero at lambda(T), checked against J.

    J is the node-major (dof 3 A + i) band of :func:`jacobian`.  Its first
    m = 3 (n - 1) rows and columns, the free block, go to one LAPACK
    ``dgbsv``: the first m band columns, placed in rows 5 .. 15 of a zeroed
    (16, m) array (the five extra rows hold the LU fill-in).  One BLAS
    ``dgbmv`` on the same m band columns checks the step; they are the first
    11 m entries of the Fortran-ordered band, so no copy is made.  Band
    entries of the lambda(T) rows fall below the m x m block, where LAPACK
    never reads.
    """
    m = R.size - 3
    ab = np.zeros((16, m), order="F")
    ab[5:] = J[:, :m]
    rhs = R.T.ravel()[:m]
    _, _, step, info = dgbsv(5, 5, ab, -rhs, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise SolverError(f"Newton matrix is singular: zero pivot at free dof "
                          f"{info - 1} of {m}")
    r = dgbmv(m, m, 5, 5, 1.0, J[:, :m], step) + rhs
    lin_res = math.sqrt(r @ r)                  # np.linalg.norm, bitwise
    bound = 1e-8 * math.sqrt(rhs @ rhs)
    if not lin_res <= bound:                    # a non-finite step fails too
        raise SolverError(
            f"Newton step residual {lin_res:.3e} exceeds 1e-8 |R| = {bound:.3e}")
    out = np.zeros(R.size)
    out[:m] = step
    return out.reshape(-1, 3).T


def newton_stage(config: EulerConfig, omega0_stage: np.ndarray,
                 mesh: TimeMesh) -> StageResult:
    """Solve one stage on ``mesh``: Newton on the dual fields, DtP,
    projection, discard."""
    omega0_stage = np.asarray(omega0_stage, dtype=float)
    base = omega0_stage                         # piecewise-constant base state

    lam = np.zeros((3, mesh.n_nodes))
    increments = []
    grow = 0
    for it in range(config.max_iter):
        gauss = _dtp_at_gauss(mesh, lam, base, config)
        R = residual(gauss, config, mesh, omega0_stage)
        dlam = _newton_step(jacobian(gauss, config, mesh), R)
        lam += dlam
        d = float(np.abs(dlam).max())
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

    samples = _dtp_at_gauss(mesh, lam, base, config)[0].transpose(0, 2, 1)   # (3, ne, 2q)
    omega_nodes = l2_project_time(mesh, samples, nodes={0: omega0_stage})
    n_keep = mesh.ne - config.N_c
    return StageResult(t_nodes=mesh.nodes[:n_keep + 1],
                       omega_nodes=omega_nodes[:, :n_keep + 1],
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
        with in_stage(len(stages) + 1):
            res = newton_stage(config, omega_f, mesh)
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
