"""L2 projection of Gauss-point samples onto the C0 nodal basis.

The mass-matrix right-hand side is integrated with the same 2x2 (or
2-point) rule that produced the samples; known primal data is pinned and
moved to the right-hand side.  The pins are grid lines, a :func:`fem.pin`
set as in the dual solves: time rows and space columns of the space-time
grid, and node columns of the (component, node) grid of the 1-D projection.

Both projections rest on one per-axis table, :func:`_axis`, built once per
(ne, h, pinned node ids): the tridiagonal mass matrix of the axis, the
same matrix with identity lines at the pinned nodes, made as the dual
solves make theirs (:func:`fem.identity_lines`), and the LAPACK ``dpbtrf``
Cholesky factor of the latter.  The 1-D projection solves with that factor
directly, without a residual check.  On the uniform space-time grid the
mass matrix is exactly kron(M_t, M_x); the kron of the two identity-line
axes is never assembled: it is applied as M_t V M_x on the node grid V,
for the residual check of :func:`fem.solve_linear`, and solved by one
``dpbtrs`` solve along each axis with the axis's cached factor (Lynch,
Rice & Thomas, Numer. Math. 6, 1964).  Its free nodes couple only with
each other, so the pinned values are written back after the solve.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np

from ._lapack import dpbtrf, dpbtrs
from .errors import InvalidArgumentError
from .fem import LINE_N, QUAD_N, corner_slices, identity_lines, pin, solve_linear
# solve_system is re-exported only for the alias test of bench/test_bench.py;
# it goes with that test, in the next change to the benchmark
from .fem import solve_system  # noqa: F401
from .mesh import SpaceTimeMesh, TimeMesh


def _mass_band(ne: int, h: float) -> np.ndarray:
    """Tridiagonal mass matrix of an ne-element linear axis of step h in
    LAPACK's lower band storage: row 0 the diagonal, row 1 the subdiagonal
    M[j + 1, j], 0 in the last column."""
    edge = h * 2.0 / 6.0
    ab = np.full((2, ne + 1), h * 1.0 / 6.0)
    ab[0] = 2 * edge
    ab[0, [0, -1]] = edge
    ab[1, -1] = 0.0
    return ab


def _band_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v for the lower band of a symmetric tridiagonal M; v has shape
    (n, k)."""
    y = ab[0, :, None] * v
    y[:-1] += ab[1, :-1, None] * v[1:]
    y[1:] += ab[1, :-1, None] * v[:-1]
    return y


_Axis = namedtuple("_Axis", "band lines factor")


@lru_cache(maxsize=8)
def _axis(ne: int, h: float, pinned: tuple) -> _Axis:
    """Read-only constants of an ne-element axis of step h with the
    sorted node ids ``pinned``, built once per (ne, h, pinned) for both
    projections: the mass band of the whole axis, the band with the pinned
    rows and columns replaced by identity lines, and the LAPACK ``dpbtrf``
    factor of the latter, all in lower band storage.  A node id outside
    0..ne is an :class:`InvalidArgumentError`."""
    bad = [i for i in pinned if not 0 <= i <= ne]
    if bad:
        raise InvalidArgumentError(f"pinned node ids {bad} out of range 0..{ne}")
    band = _mass_band(ne, h)
    lines = band.copy()
    identity_lines(lines.T, np.asarray(pinned, dtype=np.int64))
    factor, _ = dpbtrf(lines, lower=1)
    for table in (band, lines, factor):
        table.flags.writeable = False
    return _Axis(band, lines, factor)


def _kron_matvec(mt: np.ndarray, mx: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M_t V M_x for the bands of M_t and M_x and a (t, x) node grid V."""
    return _band_matvec(mt, _band_matvec(mx, V.T).T)


class _KronMass:
    """kron(M_t, M_x) of the identity-line bands of two :func:`_axis`
    tables, applied and solved without assembling it.

    A vector is the row-major (t, x) node grid V; ``@`` gives M_t V M_x and
    :meth:`solve` a solve along each axis with its cached factor.  ``shape``
    and ``nnz`` are those of the assembled kron matrix.
    """

    def __init__(self, t: _Axis, x: _Axis):
        self.t, self.x = t, x
        self.grid = (t.lines.shape[1], x.lines.shape[1])
        n = self.grid[0] * self.grid[1]
        self.shape = (n, n)

    @property
    def nnz(self) -> int:
        # a symmetric band stores each off-diagonal pair once
        t, x = (np.count_nonzero(ab[0]) + 2 * np.count_nonzero(ab[1])
                for ab in (self.t.lines, self.x.lines))
        return t * x

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return _kron_matvec(self.t.lines, self.x.lines, v.reshape(self.grid)).ravel()

    def solve(self, b: np.ndarray) -> np.ndarray:
        X, _ = dpbtrs(self.t.factor, b.reshape(self.grid), lower=1)   # M_t^-1 B
        return dpbtrs(self.x.factor, X.T, lower=1)[0].T.ravel()       # ... M_x^-1


def l2_project(mesh: SpaceTimeMesh, samples: np.ndarray, rows: dict, cols: dict) -> np.ndarray:
    """Project element Gauss-point samples (n_elems, 4) onto the (nt + 1,
    nx + 1) grid of nodal values.

    ``rows`` maps a time-row index to the nx + 1 values pinned on that row,
    ``cols`` a space-column index to its nt + 1 values; a scalar
    broadcasts, ``{}`` pins none, and a node on a pinned row and a pinned
    column takes the column's value.  Heat pins its lateral columns,
    transport its initial row and its inflow column.  Pinned values are
    exact in the output: their rows and columns of the mass matrix are
    identity lines in the solve, and their values are written back after it.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (mesh.n_elements, 4):
        raise InvalidArgumentError(
            f"samples shape {samples.shape}, expected {(mesh.n_elements, 4)}")
    t = _axis(mesh.nt, mesh.ht, tuple(sorted(rows)))
    x = _axis(mesh.nx, mesh.hx, tuple(sorted(cols)))
    shape = (mesh.nt + 1, mesh.nx + 1)
    (mask,), (U,) = pin(shape, (rows, cols))

    # rhs_A = sum_e sum_q w detJ N^A(q) u(q), by corner slices in the order
    # 2, 3, 1, 0 in which a node's element contributions come in element order
    contrib = (0.25 * mesh.hx * mesh.ht * samples @ QUAD_N).reshape(mesh.nt, mesh.nx, 4)
    rhs = np.zeros((1,) + shape)
    corners = corner_slices(mesh)
    for a in (2, 3, 1, 0):
        rhs[corners[a]] += contrib[..., a]
    b = rhs[0] - _kron_matvec(t.band, x.band, U)             # move the pins to the rhs
    b[mask] = U[mask]                                        # the identity lines
    M = _KronMass(t, x)
    V = solve_linear(M, b.ravel(), lu=M).reshape(shape)
    V[mask] = U[mask]
    return V


def l2_project_time(mesh: TimeMesh, samples: np.ndarray, nodes: dict) -> np.ndarray:
    """1-D analogue of :func:`l2_project` for stage time meshes.

    ``samples`` has shape (n_comp, ne, 2); all components are solved
    together.  ``nodes`` maps a node index to its pinned value, or to one
    value per component; ``{}`` pins none.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or samples.shape[1:] != (mesh.ne, 2):
        raise InvalidArgumentError(
            f"samples shape {samples.shape}, expected (n_comp, {mesh.ne}, 2)")

    h = mesh.h
    axis = _axis(mesh.ne, h, tuple(sorted(nodes)))
    contrib = 0.5 * h * samples @ LINE_N         # (n_comp, ne, 2a)
    rhs = np.zeros((len(samples), mesh.n_nodes))
    rhs[:, :-1] += contrib[..., 0]
    rhs[:, 1:] += contrib[..., 1]

    (mask,), (out,) = pin(rhs.shape, ({}, nodes), col_name="node")
    rhs = rhs - _band_matvec(axis.band, out.T).T
    rhs[mask] = out[mask]                        # the identity lines give them back bitwise
    return dpbtrs(axis.factor, rhs.T, lower=1)[0].T
