"""L2 projection of Gauss-point samples onto the C0 nodal basis.

The mass-matrix right-hand side is integrated with the same 2x2 (or
2-point) rule that produced the samples; known primal data is pinned at
nodes and moved to the right-hand side.

On the uniform space-time grid the mass matrix is exactly kron(M_t, M_x),
the product of the two 1-D (tridiagonal) mass matrices.  On a Cartesian
free set its free block is never assembled: it is applied as M_t V M_x on
the node grid V, for the residual check of :func:`fem.solve_linear`, and
solved by one tridiagonal solve along each axis (Lynch, Rice & Thomas,
Numer. Math. 6, 1964).  The 1-D projection of the rigid-body stages
factors the free block of its tridiagonal mass matrix once per mesh and
pin set, and each call solves with that factor, without the check.  Every
tridiagonal solve is one LAPACK ``dgbtrf`` / ``dgbtrs`` pair.
"""

from __future__ import annotations

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
    :func:`_band_factor` adds) and the DIA format's."""
    edge = h * 2.0 / 6.0
    ab = np.full((3, ne + 1), h * 1.0 / 6.0)
    ab[1] = 2 * edge
    ab[1, [0, -1]] = edge
    ab[0, 0] = ab[2, -1] = 0.0
    return ab


def _restrict(ab: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Bands of M[idx][:, idx] for increasing idx: a coupling survives only
    between neighbours that stay adjacent."""
    sub = ab[:, idx]
    gap = np.diff(idx) != 1
    sub[0, 1:][gap] = 0.0
    sub[2, :-1][gap] = 0.0
    return sub


def _band_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v for the bands of M; v has shape (n, k)."""
    y = ab[1, :, None] * v
    y[:-1] += ab[0, 1:, None] * v[1:]
    y[1:] += ab[2, :-1, None] * v[:-1]
    return y


def _band_factor(ab: np.ndarray):
    """LU factor of the tridiagonal matrix with bands ``ab`` (LAPACK
    ``dgbtrf``, kl = ku = 1, with a zero row on top for the fill)."""
    lu, piv, _ = dgbtrf(np.vstack([np.zeros((1, ab.shape[1])), ab]), 1, 1,
                        overwrite_ab=True)
    return lu, piv


def _band_solve(factor, b: np.ndarray) -> np.ndarray:
    """Solve with a :func:`_band_factor` factor for each column of b (n, k)."""
    if b.size == 0:                  # LAPACK's wrapper rejects empty arrays
        return b.copy()
    lu, piv = factor
    return dgbtrs(lu, 1, 1, b, piv)[0]


def _band_nnz(ab: np.ndarray) -> int:
    """Nonzeros of M inside the matrix: the storage corners ab[0, 0] and
    ab[2, -1] lie outside it and are not counted."""
    return int(np.count_nonzero(ab[1]) + np.count_nonzero(ab[0, 1:])
               + np.count_nonzero(ab[2, :-1]))


class _KronMass:
    """kron(M_t, M_x), given the bands of M_t and M_x, applied and solved
    without assembling it.

    A vector is the row-major (t, x) node grid V; ``@`` gives M_t V M_x and
    :meth:`solve` a tridiagonal solve along each axis.  ``shape`` and
    ``nnz`` are those of the assembled kron matrix.
    """

    def __init__(self, mt: np.ndarray, mx: np.ndarray):
        self.mt, self.mx = mt, mx
        n = mt.shape[1] * mx.shape[1]
        self.shape = (n, n)

    @property
    def nnz(self) -> int:
        return _band_nnz(self.mt) * _band_nnz(self.mx)

    def _grid(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v).reshape(self.mt.shape[1], self.mx.shape[1])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        V = self._grid(v)
        return _band_matvec(self.mt, _band_matvec(self.mx, V.T).T).ravel()

    def solve(self, b: np.ndarray) -> np.ndarray:
        X = _band_solve(_band_factor(self.mt), self._grid(b))     # M_t^-1 B
        X = _band_solve(_band_factor(self.mx), X.T).T             # ... M_x^-1
        return X.ravel()


def _pin_mask(nodes: np.ndarray, n: int) -> np.ndarray:
    """Mask (n,) of the pinned node ids, each in range and pinned once."""
    if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
        raise InvalidArgumentError("pinned node out of range")
    if np.unique(nodes).size != nodes.size:
        raise InvalidArgumentError("a node is pinned more than once")
    mask = np.zeros(n, dtype=bool)
    mask[nodes] = True
    return mask


def _pin_values(nodes: np.ndarray, values, n: int, lead: tuple = ()) -> np.ndarray:
    """Nodal values (*lead, n), zero but at the pinned nodes; the values
    broadcast to (*lead, n_pins)."""
    out = np.zeros(lead + (n,))
    out[..., nodes] = np.broadcast_to(np.asarray(values, dtype=float), lead + nodes.shape)
    return out


def l2_project(mesh: SpaceTimeMesh, samples: np.ndarray, pinned) -> np.ndarray:
    """Project element Gauss-point samples (n_elems, 4) onto nodal values.

    ``pinned`` is a pair (node ids, values) of known nodal data; those
    values are exact in the output and eliminated from the solve.  The
    pinned nodes must fill whole time rows and whole space columns (heat
    pins the lateral columns, transport the initial row and the inflow
    column), so that the free nodes form a Cartesian product; any other pin
    set raises :class:`InvalidArgumentError`.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (mesh.n_elements, 4):
        raise InvalidArgumentError(
            f"samples shape {samples.shape}, expected {(mesh.n_elements, 4)}")
    shape = (mesh.nt + 1, mesh.nx + 1)
    nodes, values = pinned
    nodes = np.asarray(nodes, dtype=np.int64)
    mask = _pin_mask(nodes, mesh.n_nodes)
    out = _pin_values(nodes, values, mesh.n_nodes)
    pin_rows = mask.reshape(shape).all(axis=1)
    pin_cols = mask.reshape(shape).all(axis=0)
    if not np.array_equal(mask.reshape(shape), pin_rows[:, None] | pin_cols[None, :]):
        raise InvalidArgumentError(
            "pinned nodes must fill whole time rows and space columns")

    # rhs_A = sum_e sum_q w detJ N^A(q) u(q)
    contrib = 0.25 * mesh.hx * mesh.ht * samples @ QUAD_N    # (ne, 4a)
    rhs = np.bincount(mesh.elements.ravel(), weights=contrib.ravel(),
                      minlength=mesh.n_nodes).reshape(shape)

    mt, mx = _mass_bands(mesh.nt, mesh.ht), _mass_bands(mesh.nx, mesh.hx)
    rhs = rhs - (_KronMass(mt, mx) @ out).reshape(shape)     # move the pins to the rhs
    fr, fc = np.nonzero(~pin_rows)[0], np.nonzero(~pin_cols)[0]
    M_f = _KronMass(_restrict(mt, fr), _restrict(mx, fc))
    U = out.reshape(shape)                       # a view: solved values land in out
    free = np.ix_(fr, fc)
    U[free] = solve_linear(M_f, rhs[free].ravel(), lu=M_f).reshape(fr.size, fc.size)
    return out


@lru_cache(maxsize=8)
def _time_mass(ne: int, h: float, nodes: tuple):
    """Per-mesh constants of :func:`l2_project_time`, built once per (ne, h,
    pinned node ids): the mass bands, the free node ids and the factor of
    the free block."""
    ab = _mass_bands(ne, h)
    free = np.nonzero(~_pin_mask(np.array(nodes, dtype=np.int64), ne + 1))[0]
    lu, piv = _band_factor(_restrict(ab, free))
    for table in (ab, free, lu, piv):
        table.flags.writeable = False
    return ab, free, (lu, piv)


def l2_project_time(mesh: TimeMesh, samples: np.ndarray, pinned) -> np.ndarray:
    """1-D analogue of :func:`l2_project` for stage time meshes.

    ``samples`` has shape (ne, 2) or (n_comp, ne, 2); all components are
    solved together.  ``pinned`` is a pair (node ids, values), the values
    of shape (n_pins,) or (n_comp, n_pins).
    """
    samples = np.asarray(samples, dtype=float)
    S = samples[None] if samples.ndim == 2 else samples
    if S.ndim != 3 or S.shape[1:] != (mesh.ne, 2):
        raise InvalidArgumentError(
            f"samples shape {samples.shape}, expected {(mesh.ne, 2)} "
            f"with optional leading components")

    h = mesh.h
    n = mesh.n_nodes
    contrib = 0.5 * h * S @ LINE_N               # (n_comp, ne, 2a)
    rhs = np.zeros((S.shape[0], n))
    rhs[:, :-1] += contrib[..., 0]
    rhs[:, 1:] += contrib[..., 1]

    nodes, values = pinned
    nodes = np.asarray(nodes, dtype=np.int64)
    ab, free, factor = _time_mass(mesh.ne, h, tuple(nodes.ravel().tolist()))
    out = _pin_values(nodes, values, n, (S.shape[0],))
    rhs = rhs - _band_matvec(ab, out.T).T
    out[:, free] = _band_solve(factor, rhs[:, free].T).T
    return out[0] if samples.ndim == 2 else out
