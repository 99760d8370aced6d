"""L2 projection of Gauss-point samples onto the C0 nodal basis.

The mass-matrix right-hand side is integrated with the same 2x2 (or
2-point) rule that produced the samples; known primal data is pinned and
moved to the right-hand side.  The space-time projection pins whole grid
lines, time rows and space columns given by index, so its free nodes are
always a Cartesian product; the 1-D projection pins nodes.

Both projections rest on one per-axis table, :func:`_axis`, built once per
(ne, h, pinned node ids): the tridiagonal mass matrix of the axis, its free
nodes and the LAPACK ``dgbtrf`` factor of its free block.  The 1-D
projection of the rigid-body stages solves with that factor directly,
without a residual check.  On the uniform space-time grid the mass matrix
is exactly kron(M_t, M_x), and its free block is never assembled: it is
applied as M_t V M_x on the node grid V, for the residual check of
:func:`fem.solve_linear`, and solved by one ``dgbtrs`` solve along each
axis with the axis's cached factor (Lynch, Rice & Thomas, Numer. Math. 6,
1964).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import InvalidArgumentError
# solve_system stays importable from here for existing callers
from .fem import LINE_N, QUAD_N, solve_linear, solve_system  # noqa: F401
from .mesh import SpaceTimeMesh, TimeMesh


def _mass_bands(ne: int, h: float) -> np.ndarray:
    """Tridiagonal mass matrix of ne linear elements of length h, stored by
    diagonals aligned on columns: rows super, main, sub (M[j-1, j], M[j, j],
    M[j+1, j]), LAPACK's band layout (below the fill row that
    :func:`_axis` adds) and the DIA format's."""
    edge = h * 2.0 / 6.0
    ab = np.full((3, ne + 1), h * 1.0 / 6.0)
    ab[1] = 2 * edge
    ab[1, [0, -1]] = edge
    ab[0, 0] = ab[2, -1] = 0.0
    return ab


def _band_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v for the bands of M; v has shape (n, k)."""
    y = ab[1, :, None] * v
    y[:-1] += ab[0, 1:, None] * v[1:]
    y[1:] += ab[2, :-1, None] * v[:-1]
    return y


def _band_solve(factor, b: np.ndarray) -> np.ndarray:
    """Solve with an :func:`_axis` factor for each column of b (n, k)."""
    if b.size == 0:                  # LAPACK's wrapper rejects empty arrays
        return b.copy()
    lu, piv = factor
    return dgbtrs(lu, 1, 1, b, piv)[0]


_Axis = namedtuple("_Axis", "bands free free_bands factor")


@lru_cache(maxsize=8)
def _axis(ne: int, h: float, pinned: tuple) -> _Axis:
    """Read-only constants of an axis of ne elements of length h with the
    sorted node ids ``pinned``, built once per (ne, h, pinned) for both
    projections: the mass bands of the whole axis, the free node ids
    (increasing), the bands of the free block M[free][:, free] and their
    LAPACK ``dgbtrf`` factor (lu, piv), taken with kl = ku = 1 and a zero
    row on top for the fill.  A node id outside 0..ne is an
    :class:`InvalidArgumentError`."""
    bad = [i for i in pinned if not 0 <= i <= ne]
    if bad:
        raise InvalidArgumentError(f"pinned node ids {bad} out of range 0..{ne}")
    ab = _mass_bands(ne, h)
    is_free = np.ones(ne + 1, dtype=bool)
    is_free[list(pinned)] = False
    free = np.flatnonzero(is_free)
    # couplings survive only between free neighbours that stay adjacent; the
    # ends count as gaps, so the storage corners outside the block are zero
    ab_f = ab[:, free]
    gap = np.diff(free, prepend=-2, append=ne + 3) != 1
    ab_f[0][gap[:-1]] = ab_f[2][gap[1:]] = 0.0
    lu, piv, _ = dgbtrf(np.vstack([np.zeros((1, free.size)), ab_f]), 1, 1,
                        overwrite_ab=True)
    for table in (ab, free, ab_f, lu, piv):
        table.flags.writeable = False
    return _Axis(ab, free, ab_f, (lu, piv))


def _kron_matvec(mt: np.ndarray, mx: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M_t V M_x for the bands of M_t and M_x and a (t, x) node grid V."""
    return _band_matvec(mt, _band_matvec(mx, V.T).T)


class _KronMass:
    """The free block kron(M_t[fr, fr], M_x[fc, fc]) of two :func:`_axis`
    tables, applied and solved without assembling it.

    A vector is the row-major (t, x) grid V of the free nodes; ``@`` gives
    M_t V M_x and :meth:`solve` a solve along each axis with its cached
    factor.  ``shape`` and ``nnz`` are those of the assembled kron matrix.
    """

    def __init__(self, t: _Axis, x: _Axis):
        self.t, self.x = t, x
        n = t.free.size * x.free.size
        self.shape = (n, n)

    @property
    def nnz(self) -> int:
        return np.count_nonzero(self.t.free_bands) * np.count_nonzero(self.x.free_bands)

    def _grid(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v).reshape(self.t.free.size, self.x.free.size)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return _kron_matvec(self.t.free_bands, self.x.free_bands, self._grid(v)).ravel()

    def solve(self, b: np.ndarray) -> np.ndarray:
        X = _band_solve(self.t.factor, self._grid(b))          # M_t^-1 B
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
    exact in the output and eliminated from the solve, whose free nodes are
    the Cartesian product of the free rows and columns.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (mesh.n_elements, 4):
        raise InvalidArgumentError(
            f"samples shape {samples.shape}, expected {(mesh.n_elements, 4)}")
    t = _axis(mesh.nt, mesh.ht, tuple(sorted(rows)))
    x = _axis(mesh.nx, mesh.hx, tuple(sorted(cols)))
    shape = (mesh.nt + 1, mesh.nx + 1)
    U = _pinned_grid(shape, rows, cols)

    # rhs_A = sum_e sum_q w detJ N^A(q) u(q)
    contrib = 0.25 * mesh.hx * mesh.ht * samples @ QUAD_N    # (ne, 4a)
    rhs = np.bincount(mesh.elements.ravel(), weights=contrib.ravel(),
                      minlength=mesh.n_nodes).reshape(shape)
    rhs = rhs - _kron_matvec(t.bands, x.bands, U)            # move the pins to the rhs
    M_f = _KronMass(t, x)
    free = np.ix_(t.free, x.free)
    U[free] = solve_linear(M_f, rhs[free].ravel(), lu=M_f).reshape(t.free.size, x.free.size)
    return U


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
    axis = _axis(mesh.ne, h, tuple(sorted(nodes)))
    contrib = 0.5 * h * S @ LINE_N               # (n_comp, ne, 2a)
    rhs = np.zeros((S.shape[0], mesh.n_nodes))
    rhs[:, :-1] += contrib[..., 0]
    rhs[:, 1:] += contrib[..., 1]

    out = _pinned_grid(rhs.shape, {}, nodes, col_name="node")
    rhs = rhs - _band_matvec(axis.bands, out.T).T
    out[:, axis.free] = _band_solve(axis.factor, rhs[:, axis.free].T).T
    return out[0] if samples.ndim == 2 else out
