"""Dual formulation of the 1-D linear transport equation with time slicing.

A single scalar dual field lambda is solved per stage on a space-time mesh;
the primal field is recovered as u = d_t lambda + c d_x lambda at Gauss
points and projected.  Long-time runs chain stages: each stage is solved
past the outflow boundary, keeps only an initial sub-interval of (0, L) and
feeds its last retained row to the next stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, SolverError
from .fem import FactoredSystem, assemble_uniform, boundary_load, gradient_tables, pin
from .heat import _ZERO
from .mesh import BOTTOM, LEFT, RIGHT, TOP, SpaceTimeMesh, build_space_time_mesh
from .projection import l2_project


@dataclass
class TransportProblem:
    c: float
    L: float
    T_total: float
    u0: Callable             # initial datum, may be discontinuous
    u_left: Callable         # inflow datum u(0, t)
    lambda_top: Callable = _ZERO
    lambda_right: Callable = _ZERO

    def __post_init__(self):
        if self.c <= 0:
            raise InvalidArgumentError(f"wave speed must be positive, got c={self.c}")


@dataclass(frozen=True)
class StagePlan:
    """Per-stage length, retained length, and the derived stage count."""

    T_stage: float
    T_keep: float
    n_stages: int

    @classmethod
    def cover(cls, T_stage: float, T_keep: float, T_total: float) -> "StagePlan":
        if not 0 < T_keep < T_stage:
            raise InvalidArgumentError(
                f"need 0 < T_keep < T_stage, got {T_keep}, {T_stage}")
        n = int(np.ceil(T_total / T_keep - 1e-12))
        return cls(T_stage=float(T_stage), T_keep=float(T_keep), n_stages=n)


@dataclass
class StitchedField:
    """Retained primal field rows over global time."""

    x: np.ndarray          # (nx+1,)
    t: np.ndarray          # (n_rows,) global times, increasing
    u: np.ndarray          # (n_rows, nx+1) nodal values
    lambda_stages: list    # per-stage nodal dual fields on the widened stage mesh


def transport_local_matrix(mesh: SpaceTimeMesh, c: float) -> np.ndarray:
    """Negative Gram matrix of the characteristic derivatives d_t N + c d_x N."""
    _, gx, gt = gradient_tables(mesh)
    d = gt + c * gx
    return -0.25 * mesh.hx * mesh.ht * (d.T @ d)


def transport_load(problem: TransportProblem, mesh: SpaceTimeMesh,
                   u0: Callable) -> np.ndarray:
    """Right-hand side R of one stage: the inflow and initial (``u0``) loads.

    The inflow boundary term carries the wave speed factor so that the
    natural boundary condition enforces u(0, t) = u_left(t); see the notes
    in the package README on this point.
    """
    rhs = problem.c * boundary_load(
        mesh, LEFT, lambda t: np.asarray(problem.u_left(t), dtype=float))
    rhs += boundary_load(mesh, BOTTOM, u0)
    return rhs


def assemble_transport(problem: TransportProblem, mesh: SpaceTimeMesh):
    """The stage matrix K of K lambda = R and its pinned dofs, ``(K, pinned)``.

    K and the dual conditions on the top and right edges are the same for
    every stage on one mesh; only R (:func:`transport_load`) depends on the
    stage's initial datum.
    """
    if not np.isclose(mesh.L, problem.L):
        raise InvalidArgumentError(
            f"mesh length {mesh.L} does not match problem length {problem.L}")
    matrix = assemble_uniform(mesh, transport_local_matrix(mesh, problem.c), n_fields=1)
    pinned = pin((mesh.boundary_nodes(TOP), problem.lambda_top(mesh.x_coords())),
                 (mesh.boundary_nodes(RIGHT), problem.lambda_right(mesh.t_coords())))
    return matrix, pinned


def dtp_transport(mesh: SpaceTimeMesh, lam: np.ndarray, c: float) -> np.ndarray:
    """u = d_t lambda + c d_x lambda at the Gauss points, shape (n_elems, 4)."""
    _, gx, gt = gradient_tables(mesh)
    le = lam[mesh.elements]
    return le @ gt.T + c * (le @ gx.T)


def solve_transport_stage(problem: TransportProblem, mesh: SpaceTimeMesh,
                          dual: FactoredSystem, u0: Callable, u0_nodal: np.ndarray):
    """Solve one stage; returns (lambda nodal, projected u nodal grid).

    ``dual`` is the stage matrix of ``assemble_transport(problem, mesh)`` as
    a :class:`FactoredSystem`.  The initial datum ``u0`` enters the weak
    initial term, and its nodal values ``u0_nodal`` are pinned at the bottom
    nodes of the projection.
    """
    lam = dual.solve(transport_load(problem, mesh, u0))
    u_q = dtp_transport(mesh, lam, problem.c)

    # the inflow column takes the corner node (0, 0)
    pinned = pin((mesh.boundary_nodes(BOTTOM)[1:], u0_nodal[1:]),
                 (mesh.boundary_nodes(LEFT), problem.u_left(mesh.t_coords())))
    u = l2_project(mesh, u_q, pinned).reshape(mesh.nt + 1, mesh.nx + 1)
    return lam, u


def initial_nodal_values(problem: TransportProblem, x: np.ndarray,
                         jump_x: float | None = None,
                         jump_avg: float | None = None) -> np.ndarray:
    """Nodal initial data; a node coinciding with a jump takes the average."""
    vals = np.asarray(problem.u0(x), dtype=float)
    if jump_x is not None and jump_avg is not None:
        hit = np.isclose(x, jump_x, rtol=0, atol=1e-12)
        vals[hit] = jump_avg
    return vals


def run_time_sliced(problem: TransportProblem, plan: StagePlan,
                    nx: int, nt: int,
                    jump_x: float | None = None,
                    jump_avg: float | None = None) -> StitchedField:
    """Chain stage solves and stitch retained rows into a global field.

    Each stage discards a band in time and one in space.  Rows past
    ``T_keep`` are dropped because the final-time dual condition perturbs
    them.  In space, each stage is solved on (0, L + delta) with
    delta = (ceil(c * T_stage / h) + 2) * h, so that the layer the dual
    condition at the right edge leaves behind lies outside (0, L); the next
    stage starts from the whole retained row, band included, and the
    stitched field keeps the nx + 1 columns of (0, L).  ``lambda_top`` and
    ``lambda_right`` apply on the widened stage domain.
    """
    # the layer reaches back to the characteristic through the stage's
    # top-right corner, c * T_stage; two more elements cover its smearing
    h = problem.L / nx
    pad = int(np.ceil(problem.c * plan.T_stage / h - 1e-9)) + 2
    stage_problem = replace(problem, L=problem.L + pad * h)
    mesh = build_space_time_mesh(stage_problem.L, plan.T_stage, nx + pad, nt)
    t_rows = mesh.t_coords()
    keep_rows = int(np.sum(t_rows <= plan.T_keep + 1e-12)) - 1   # retained element rows
    if keep_rows < 1:
        raise InvalidArgumentError("T_keep shorter than one element row")

    x = mesh.x_coords()
    u_init = initial_nodal_values(problem, x, jump_x, jump_avg)
    # the stage matrix and its dual conditions do not change between stages:
    # eliminate and factor once, then each stage only builds its load
    dual = FactoredSystem(*assemble_transport(stage_problem, mesh))

    rows_t = [np.array([0.0])]
    rows_u = [u_init[None, :nx + 1].copy()]
    lambdas = []
    t_offset = 0.0
    # the first stage's weak term takes the exact (possibly discontinuous)
    # datum and its projection pins the jump-averaged nodal values; each
    # later stage starts from the interpolant of the last retained row
    u0 = problem.u0
    for s in range(plan.n_stages):
        # the inflow datum is read at global time: stage time t is t_offset + t
        stage = replace(stage_problem, u_left=lambda t, t0=t_offset: problem.u_left(t0 + t))
        try:
            lam, u = solve_transport_stage(stage, mesh, dual, u0, u_init)
        except SolverError as exc:
            raise SolverError(f"stage {s + 1} failed: {exc}") from exc
        lambdas.append(lam)
        rows_t.append(t_offset + t_rows[1:keep_rows + 1])
        rows_u.append(u[1:keep_rows + 1, :nx + 1])
        u_init = u[keep_rows].copy()
        u0 = partial(np.interp, xp=x, fp=u_init)
        t_offset += t_rows[keep_rows]
    return StitchedField(x=np.linspace(0.0, problem.L, nx + 1),
                         t=np.concatenate(rows_t),
                         u=np.vstack(rows_u), lambda_stages=lambdas)


def track_jump(field: StitchedField, x_jump: Callable,
               lo: float = 2.0, hi: float = 4.0,
               window_elems: int = 10):
    """Overshoot/undershoot around a moving jump locus.

    For each retained time level: h_t = max(0, max u - hi) and
    h_b = max(0, lo - min u), over a window of +/- ``window_elems``
    elements around x_jump(t); a level whose window holds no node gives 0.
    ``x_jump`` is called once with the array of times and may return a
    scalar.
    """
    h = field.x[1] - field.x[0]
    xj = np.broadcast_to(np.asarray(x_jump(field.t), dtype=float), field.t.shape)
    window = np.abs(field.x[None, :] - xj[:, None]) <= window_elems * h + 1e-12
    # outside the window u reads -inf for the max and +inf for the min, so an
    # empty window gives 0; fmax also gives 0 where the window holds a NaN
    top = np.where(window, field.u, -np.inf).max(axis=1)
    bottom = np.where(window, field.u, np.inf).min(axis=1)
    return np.fmax(0.0, top - hi), np.fmax(0.0, lo - bottom)
