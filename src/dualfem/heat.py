"""Dual formulation of the 1-D heat equation on a space-time mesh.

The two dual fields (p, l) satisfy a degenerate elliptic boundary value
problem; the primal temperature and flux are recovered pointwise via

    theta = d_x p + d_t l,      pi = p - k d_x l,

evaluated at the Gauss points and then L2-projected onto the nodal basis.
The dual element matrix is the negative Gram matrix of the same map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError
from .fem import (assemble_uniform, boundary_load, dtp, gradient_tables, gram_matrix,
                  pin, solve_system)
from .mesh import SpaceTimeMesh
from .projection import l2_project

NEUMANN_PI = "neumann_pi"
DIRICHLET_THETA = "dirichlet_theta"

_ZERO = lambda s: np.zeros_like(np.asarray(s, dtype=float))


@dataclass
class HeatProblem:
    """Primal data plus the arbitrarily chosen dual Dirichlet traces."""

    k: float
    L: float
    T: float
    theta0: Callable          # initial temperature theta(x, 0)
    theta_left: Callable      # Dirichlet theta(0, t)
    right_mode: str = NEUMANN_PI
    pi_right: Callable = _ZERO      # Neumann flux pi(L, t), neumann_pi mode
    theta_right: Callable = _ZERO   # Dirichlet theta(L, t), dirichlet_theta mode
    l_left: Callable = _ZERO        # dual trace l(0, t)
    l_top: Callable = _ZERO         # dual trace l(x, T)
    p_right: Callable = _ZERO       # dual trace p(L, t), neumann_pi mode
    l_right: Callable = _ZERO       # dual trace l(L, t), dirichlet_theta mode

    def __post_init__(self):
        if self.k <= 0:
            raise InvalidArgumentError(f"conductivity must be positive, got k={self.k}")
        if self.right_mode not in (NEUMANN_PI, DIRICHLET_THETA):
            raise InvalidArgumentError(f"unknown right-boundary mode {self.right_mode!r}")
        if not np.isclose(float(self.l_top(0.0)), float(self.l_left(self.T)),
                          rtol=1e-12, atol=1e-12):
            raise InvalidArgumentError(
                "corner compatibility l_top(0) == l_left(T) violated")
        if self.right_mode == DIRICHLET_THETA and not np.isclose(
                float(self.l_top(self.L)), float(self.l_right(self.T)),
                rtol=1e-12, atol=1e-12):
            raise InvalidArgumentError(
                "corner compatibility l_top(L) == l_right(T) violated")


def _check_mesh(problem: HeatProblem, mesh: SpaceTimeMesh) -> None:
    if not (np.isclose(mesh.L, problem.L) and np.isclose(mesh.T, problem.T)):
        raise InvalidArgumentError(
            f"mesh extents ({mesh.L}, {mesh.T}) do not match problem "
            f"({problem.L}, {problem.T})")


def dtp_table(mesh: SpaceTimeMesh, k: float) -> np.ndarray:
    """[component, q, local dof] table, (2, 4, 8), of theta = d_x p + d_t l and
    pi = p - k d_x l at the Gauss points; local dofs [p0..p3, l0..l3]."""
    N, gx, gt = gradient_tables(mesh)
    return np.array([np.hstack([gx, gt]), np.hstack([N, -k * gx])])


def assemble_heat(problem: HeatProblem, mesh: SpaceTimeMesh):
    """Assemble the two-field dual system including boundary data terms;
    returns ``(matrix, rhs, pinned)``, ``pinned`` the :func:`pin` set of the
    dual traces: l on the top row and the left column, and the right column
    of p (neumann_pi) or of l (dirichlet_theta)."""
    _check_mesh(problem, mesh)
    matrix = assemble_uniform(mesh, gram_matrix(mesh, dtp_table(mesh, problem.k)))

    # field 0 = p, field 1 = l
    p_loads, l_loads = {0: problem.theta_left}, {}
    t = mesh.t_coords()
    p_cols, l_cols = {}, {0: problem.l_left(t)}
    if problem.right_mode == NEUMANN_PI:
        l_loads[mesh.nx] = lambda t: problem.k * np.asarray(problem.pi_right(t))
        p_cols[mesh.nx] = problem.p_right(t)
    else:
        p_loads[mesh.nx] = lambda t: -np.asarray(problem.theta_right(t), dtype=float)
        l_cols[mesh.nx] = problem.l_right(t)
    rhs = boundary_load(mesh, ({}, p_loads), ({0: problem.theta0}, l_loads))

    pinned = pin((mesh.nt + 1, mesh.nx + 1), ({}, p_cols),
                 ({mesh.nt: problem.l_top(mesh.x_coords())}, l_cols))
    return matrix, rhs, pinned


def solve_heat(problem: HeatProblem, mesh: SpaceTimeMesh) -> np.ndarray:
    return solve_system(*assemble_heat(problem, mesh))


def dtp_heat(mesh: SpaceTimeMesh, sol: np.ndarray, k: float) -> np.ndarray:
    """theta and pi at the Gauss points of a dual vector [p, l], (2, n_elems, 4)."""
    return dtp(mesh, dtp_table(mesh, k), sol)


def solve_heat_primal(problem: HeatProblem, mesh: SpaceTimeMesh):
    """Dual solve, DtP, then projection of theta onto a continuous nodal field
    with its Dirichlet boundary columns pinned; returns ``(sol, theta)``, sol
    the dual vector [p, l] and theta the (nt + 1, nx + 1) nodal grid.

    The initial condition enters the dual solve weakly (it is a natural
    condition of the dual problem) and is left free in the recovery, so the
    reported initial-row values reflect the scheme's actual resolution of
    the initial data rather than an exact re-imposition.
    """
    sol = solve_heat(problem, mesh)
    theta_q, _ = dtp_heat(mesh, sol, problem.k)
    t = mesh.t_coords()
    cols = {0: problem.theta_left(t)}
    if problem.right_mode == DIRICHLET_THETA:
        cols[mesh.nx] = problem.theta_right(t)
    return sol, l2_project(mesh, theta_q, rows={}, cols=cols)


def steady_dual_family(k: float = 1.0, C: float = 0.0, D: float = 0.0):
    """A closed-form steady dual pair mapping to theta = 3x + 1, pi = 3.

    p = 3x^2/2 + x + C and l = x^3/2 + x^2/2 + (C - 3)x + D satisfy both
    dual field equations for k = 1 and map to the steady primal pair under
    the DtP relations.  Returns (p(x), l(x)).
    """
    if not np.isclose(k, 1.0):
        raise InvalidArgumentError("closed-form steady dual family derived for k=1")

    def p(x):
        x = np.asarray(x, dtype=float)
        return 1.5 * x ** 2 + x + C

    def l(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x ** 3 + 0.5 * x ** 2 + (C - 3.0) * x + D

    return p, l
