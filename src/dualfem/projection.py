"""L2 projection of Gauss-point samples onto the C0 nodal basis.

The mass-matrix right-hand side is integrated with the same 2x2 (or
2-point) rule that produced the samples; known primal data is pinned and
moved to the right-hand side.  The space-time projection pins whole grid
lines, time rows and space columns given by index; the 1-D projection pins
nodes.

Both projections rest on one per-axis table, :func:`_axis`, built once per
(ne, h, pinned node ids): the tridiagonal mass matrix of the axis, the
same matrix with identity lines at the pinned nodes, as the dual solves
pin, and the LAPACK ``dpbtrf`` Cholesky factor of the latter.  The 1-D
projection solves with that factor directly, without a residual check.  On
the uniform space-time grid the mass matrix is exactly kron(M_t, M_x); the
kron of the two identity-line axes is never assembled: it is applied as
M_t V M_x on the node grid V, for the residual check of
:func:`fem.solve_linear`, and solved by one ``dpbtrs`` solve along each
axis with the axis's cached factor (Lynch, Rice & Thomas, Numer. Math. 6,
1964).  Its free nodes couple only with each other, so the pinned values
are written back after the solve.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np

from ._lapack import dpbtrf, dpbtrs
from .errors import InvalidArgumentError
# solve_system is re-exported only for the alias test of bench/test_bench.py;
# it goes with that test, in the next change to the benchmark
from .fem import LINE_N, QUAD_N, corner_slices, solve_linear, solve_system  # noqa: F401
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


def _band_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve with an :func:`_axis` factor for each column of b (n, k)."""
    return dpbtrs(factor, b, lower=1)[0]


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
    p = np.asarray(pinned, dtype=np.int64)
    lines[0, p] = 1.0
    lines[1, p] = 0.0                          # column p below the diagonal
    lines[1, p[p > 0] - 1] = 0.0               # row p left of the diagonal
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
        X = _band_solve(self.t.factor, b.reshape(self.grid))   # M_t^-1 B
        return _band_solve(self.x.factor, X.T).T.ravel()       # ... M_x^-1


def _pinned_grid(shape: tuple, rows: dict, cols: dict, col_name: str = "column") -> np.ndarray:
    """Zero grid of ``shape`` holding the pinned rows, then the pinned
    columns, so that a node on both takes its column's value.  A line pins
    one value, or all of its own (a row shape[1], a column shape[0]); other
    lengths are an :class:`InvalidArgumentError` naming the line."""
    for lines, name, n in ((rows, "row", shape[1]), (cols, col_name, shape[0])):
        for i, values in lines.items():
            if np.ndim(values) and np.shape(values) != (n,):
                raise InvalidArgumentError(f"pinned {name} {i} has shape "
                                           f"{np.shape(values)}, expected {n} values")
    U = np.zeros(shape)
    for i, values in rows.items():
        U[i] = values
    for j, values in cols.items():
        U[:, j] = values
    return U


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
    r, c = sorted(rows), sorted(cols)
    t = _axis(mesh.nt, mesh.ht, tuple(r))
    x = _axis(mesh.nx, mesh.hx, tuple(c))
    shape = (mesh.nt + 1, mesh.nx + 1)
    U = _pinned_grid(shape, rows, cols)

    # rhs_A = sum_e sum_q w detJ N^A(q) u(q), by corner slices in the order
    # 2, 3, 1, 0 in which a node's element contributions come in element order
    contrib = (0.25 * mesh.hx * mesh.ht * samples @ QUAD_N).reshape(mesh.nt, mesh.nx, 4)
    rhs = np.zeros((1,) + shape)
    corners = corner_slices(mesh)
    for a in (2, 3, 1, 0):
        rhs[corners[a]] += contrib[..., a]
    b = rhs[0] - _kron_matvec(t.band, x.band, U)             # move the pins to the rhs
    b[r], b[:, c] = U[r], U[:, c]                            # the identity lines
    M = _KronMass(t, x)
    V = solve_linear(M, b.ravel(), lu=M).reshape(shape)
    V[r], V[:, c] = U[r], U[:, c]
    return V


def l2_project_time(mesh: TimeMesh, samples: np.ndarray, nodes: dict) -> np.ndarray:
    """1-D analogue of :func:`l2_project` for stage time meshes.

    ``samples`` has shape (ne, 2) or (n_comp, ne, 2); all components are
    solved together.  ``nodes`` maps a node index to its pinned value, or to
    one value per component; ``{}`` pins none.
    """
    samples = np.asarray(samples, dtype=float)
    S = samples[None] if samples.ndim == 2 else samples
    if S.ndim != 3 or S.shape[1:] != (mesh.ne, 2):
        raise InvalidArgumentError(
            f"samples shape {samples.shape}, expected {(mesh.ne, 2)} "
            f"with optional leading components")

    h = mesh.h
    p = sorted(nodes)
    axis = _axis(mesh.ne, h, tuple(p))
    contrib = 0.5 * h * S @ LINE_N               # (n_comp, ne, 2a)
    rhs = np.zeros((S.shape[0], mesh.n_nodes))
    rhs[:, :-1] += contrib[..., 0]
    rhs[:, 1:] += contrib[..., 1]

    out = _pinned_grid(rhs.shape, {}, nodes, col_name="node")
    rhs = rhs - _band_matvec(axis.band, out.T).T
    rhs[:, p] = out[:, p]                        # the identity lines give them back bitwise
    out = _band_solve(axis.factor, rhs.T).T
    return out[0] if samples.ndim == 2 else out
