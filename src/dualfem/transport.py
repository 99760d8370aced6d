"""Dual formulation of the 1-D linear transport equation with time slicing.

A single scalar dual field lambda is solved per stage on a space-time mesh;
the primal field is recovered as u = d_t lambda + c d_x lambda at Gauss
points and projected, and the stage matrix is the negative Gram matrix of
that map.  Long-time runs chain stages: each stage is solved past the
outflow boundary, keeps only an initial sub-interval of (0, L) and feeds
its last retained row to the next stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, in_stage
from .fem import (FactoredSystem, assemble_uniform, boundary_load, dtp, gradient_tables,
                  gram_matrix, pin)
from .mesh import NodalGrid, SpaceTimeMesh, build_space_time_mesh
from .projection import l2_project

#: half-width, in elements, of the window around the jump that track_jump reads
JUMP_WINDOW_ELEMS = 10


@dataclass
class TransportProblem:
    c: float
    L: float
    T_total: float
    u0: Callable             # initial datum, may be discontinuous; its nodal values are pinned
    u_left: Callable         # inflow datum u(0, t)

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
        if not T_total > 0:
            raise InvalidArgumentError(f"need T_total > 0, got T_total={T_total}")
        n = int(np.ceil(T_total / T_keep - 1e-12))
        return cls(T_stage=float(T_stage), T_keep=float(T_keep), n_stages=n)


def dtp_table(mesh: SpaceTimeMesh, c: float) -> np.ndarray:
    """[component, q, local dof] table, (1, 4, 4), of u = d_t lambda + c d_x lambda."""
    _, gx, gt = gradient_tables(mesh)
    return (gt + c * gx)[None]


def transport_load(problem: TransportProblem, mesh: SpaceTimeMesh,
                   u0: Callable) -> np.ndarray:
    """Right-hand side R of one stage: the inflow and initial (``u0``) loads.

    The inflow boundary term carries the wave speed factor so that the
    natural boundary condition enforces u(0, t) = u_left(t); see the notes
    in the package README on this point.
    """
    inflow = lambda t: problem.c * np.asarray(problem.u_left(t), dtype=float)
    return boundary_load(mesh, ({0: u0}, {0: inflow}))


def assemble_transport(problem: TransportProblem, mesh: SpaceTimeMesh):
    """The stage matrix K of K lambda = R and its pinned dofs, ``(K, pinned)``.

    K and the dual conditions, lambda = 0 on the top and right edges, are
    the same for every stage on one mesh; only R (:func:`transport_load`)
    depends on the stage's initial datum.
    """
    if not np.isclose(mesh.L, problem.L):
        raise InvalidArgumentError(
            f"mesh length {mesh.L} does not match problem length {problem.L}")
    matrix = assemble_uniform(mesh, gram_matrix(mesh, dtp_table(mesh, problem.c)))
    pinned = pin((mesh.nt + 1, mesh.nx + 1), ({mesh.nt: 0.0}, {mesh.nx: 0.0}))
    return matrix, pinned


def dtp_transport(mesh: SpaceTimeMesh, lam: np.ndarray, c: float) -> np.ndarray:
    """u at the Gauss points (:func:`dtp_table`), shape (n_elems, 4)."""
    return dtp(mesh, dtp_table(mesh, c), lam)[0]


def solve_transport_stage(problem: TransportProblem, mesh: SpaceTimeMesh,
                          dual: FactoredSystem, u0: Callable, u0_nodal: np.ndarray):
    """Solve one stage; returns (lambda nodal, projected u nodal grid).

    ``dual`` is the stage matrix of ``assemble_transport(problem, mesh)`` as
    a :class:`FactoredSystem` on ``mesh``.  The initial datum ``u0`` enters the weak
    initial term, and its nodal values ``u0_nodal`` are pinned on the
    initial row of the projection; the inflow column takes the corner node
    (0, 0).
    """
    lam = dual.solve(transport_load(problem, mesh, u0))
    u_q = dtp_transport(mesh, lam, problem.c)
    u = l2_project(mesh, u_q, rows={0: u0_nodal}, cols={0: problem.u_left(mesh.t_coords())})
    return lam, u


def retained_grid(problem: TransportProblem, plan: StagePlan, nx: int, nt: int):
    """(x, t) of the field :func:`run_time_sliced` returns, known before any
    solve: the nx + 1 nodes of (0, L) and the global times of the retained
    rows, 0 and then each stage's rows past its start up to T_keep.  Stage
    s starts at the time of the last row stage s - 1 keeps."""
    if not (problem.L > 0 and nx >= 1 and nt >= 1):
        raise InvalidArgumentError(f"need L > 0, nx >= 1 and nt >= 1, got L={problem.L}, "
                                   f"nx={nx}, nt={nt}")
    t_rows = np.linspace(0.0, plan.T_stage, nt + 1)
    keep = int(np.sum(t_rows <= plan.T_keep + 1e-12)) - 1       # retained element rows
    if keep < 1:
        raise InvalidArgumentError("T_keep shorter than one element row")
    starts = np.cumsum(np.r_[0.0, np.full(plan.n_stages - 1, t_rows[keep])])
    t = np.concatenate([[0.0], (starts[:, None] + t_rows[1:keep + 1]).ravel()])
    return np.linspace(0.0, problem.L, nx + 1), t


def run_time_sliced(problem: TransportProblem, plan: StagePlan,
                    nx: int, nt: int) -> NodalGrid:
    """Chain stage solves and stitch retained rows into a global field.

    Each stage discards a band in time and one in space.  Rows past
    ``T_keep`` are dropped because the final-time dual condition perturbs
    them.  In space, each stage is solved on (0, L + delta) with
    delta = (ceil(c * T_stage / h) + 2) * h, so that the layer the dual
    condition at the right edge leaves behind lies outside (0, L); the next
    stage starts from the whole retained row, band included, and the
    stitched field keeps the nx + 1 columns of (0, L), on the grid of
    :func:`retained_grid`.
    """
    x_out, t_out = retained_grid(problem, plan, nx, nt)
    keep_rows = (t_out.size - 1) // plan.n_stages               # retained element rows
    # the layer reaches back to the characteristic through the stage's
    # top-right corner, c * T_stage; two more elements cover its smearing
    h = problem.L / nx
    pad = int(np.ceil(problem.c * plan.T_stage / h - 1e-9)) + 2
    stage_problem = replace(problem, L=problem.L + pad * h)
    mesh = build_space_time_mesh(stage_problem.L, plan.T_stage, nx + pad, nt)

    x = mesh.x_coords()
    u_init = np.asarray(problem.u0(x), dtype=float)
    # the stage matrix and its dual conditions do not change between stages:
    # pin and factor once, then each stage only builds its load
    dual = FactoredSystem(*assemble_transport(stage_problem, mesh))

    rows_u = [u_init[None, :nx + 1].copy()]
    # the first stage's weak term takes the exact (possibly discontinuous)
    # datum and its projection pins that datum's nodal values; each later
    # stage starts from the interpolant of the last retained row
    u0 = problem.u0
    for s in range(plan.n_stages):
        # the inflow datum is read at global time: stage time t is t0 + t
        t0 = t_out[s * keep_rows]
        stage = replace(stage_problem, u_left=lambda t, t0=t0: problem.u_left(t0 + t))
        with in_stage(s + 1):
            _, u = solve_transport_stage(stage, mesh, dual, u0, u_init)
        rows_u.append(u[1:keep_rows + 1, :nx + 1])
        u_init = u[keep_rows].copy()
        u0 = partial(np.interp, xp=x, fp=u_init)
    return NodalGrid(x_out, t_out, np.vstack(rows_u))


def track_jump(field: NodalGrid, x_jump: Callable, lo: float, hi: float):
    """Overshoot/undershoot around a moving jump locus.

    For each retained time level: h_t = max(0, max u - hi) and
    h_b = max(0, lo - min u), over a window of +/- ``JUMP_WINDOW_ELEMS``
    elements around x_jump(t); a level whose window holds no node gives 0.
    ``x_jump`` is called once with the array of times and may return a
    scalar.
    """
    h = field.x[1] - field.x[0]
    xj = np.broadcast_to(np.asarray(x_jump(field.t), dtype=float), field.t.shape)
    window = np.abs(field.x[None, :] - xj[:, None]) <= JUMP_WINDOW_ELEMS * h + 1e-12
    # outside the window u reads -inf for the max and +inf for the min, so an
    # empty window gives 0; fmax also gives 0 where the window holds a NaN
    top = np.where(window, field.values, -np.inf).max(axis=1)
    bottom = np.where(window, field.values, np.inf).min(axis=1)
    return np.fmax(0.0, top - hi), np.fmax(0.0, lo - bottom)
