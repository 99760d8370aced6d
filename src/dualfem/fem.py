"""Shared finite element machinery.

One reference-element table of linear (interval) and bilinear (space-time)
shape functions at the 2-point and 2x2 Gauss points, the dual element
matrix of a dual-to-primal (DtP) table and its Gauss-point values, the
matrix of one shared element matrix on a uniform mesh, applied and written
into a band without assembly (:class:`UniformMatrix`), boundary loads,
pinned grid lines as ``(mask, values)`` node grids (:func:`pin`), which
become identity lines of the band, and a residual-checked linear solve by
a factorization that serves every right-hand side.

Global degrees of freedom are blocked by field: dof = field * n_nodes + node,
the row-major (field, t, x) node grid.  Local element dofs follow the same
ordering, dof = field * 4 + local_node.  A factorization numbers them by a
transpose of that grid (:func:`_band_axes`): the mesh's long axis slowest,
its short axis next and the fields innermost, so every dual is a band,
which :class:`BandCholesky` factors.

The mesh stores no connectivity.  Over every element at once, local dof
field * 4 + corner is one corner slice of the (field, t, x) node grid
(:func:`corner_slices`); the DtP values, the matrix product and the band
are computed from these slices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._lapack import dpbtrf, dpbtrs
from .errors import AssemblyError, InvalidArgumentError, SolverError
from .mesh import BOTTOM, TOP, SpaceTimeMesh

#: 2-point Gauss abscissa on [-1, 1]; both weights are 1
GAUSS_1D = 1.0 / np.sqrt(3.0)

#: linear shapes at the two Gauss points of an interval, [q, a]
LINE_N = np.array([[0.5 * (1 - xi), 0.5 * (1 + xi)] for xi in (-GAUSS_1D, GAUSS_1D)])

# (x, t) indices of the four corners, and of the 2x2 Gauss points, in the
# counter-clockwise order of the mesh connectivity; a bilinear table entry
# [q, a] is the product of the x and t line-table entries
_CCW = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
_QX, _QT = _CCW[:, None, 0], _CCW[:, None, 1]
_AX, _AT = _CCW[None, :, 0], _CCW[None, :, 1]

#: bilinear shapes at the 2x2 Gauss points of a quadrilateral, [q, a]
QUAD_N = LINE_N[_QX, _AX] * LINE_N[_QT, _AT]


def gradient_tables(mesh: SpaceTimeMesh):
    """(QUAD_N, d/dx, d/dt) of the uniform hx-by-ht element, each [q, a]."""
    dline = np.array([-1.0, 1.0])
    return (QUAD_N, dline[_AX] / mesh.hx * LINE_N[_QT, _AT],
            LINE_N[_QX, _AX] * dline[_AT] / mesh.ht)


def pin(shape, *fields, col_name: str = "column"):
    """The ``(mask, values)`` pin set of grid lines: two node grids of shape
    (n_fields,) + ``shape``, True and the pinned value on a pinned node,
    False and 0 elsewhere.

    Each field gives a ``(rows, cols)`` pair: ``rows`` maps a row index of
    the ``shape`` grid to the shape[1] values pinned on that row, ``cols`` a
    column index to its shape[0] values; a scalar broadcasts and ``{}`` pins
    none.  A node on a pinned row and a pinned column takes the column's
    value.  A line of another length is an :class:`InvalidArgumentError`
    naming it.
    """
    mask = np.zeros((len(fields),) + tuple(shape), dtype=bool)
    values = np.zeros(mask.shape)
    for f, (rows, cols) in enumerate(fields):
        # rows first, so that a column overwrites the nodes it shares with a row
        for lines, name, M, V in ((rows, "row", mask[f], values[f]),
                                  (cols, col_name, mask[f].T, values[f].T)):
            for i, line in lines.items():
                if np.ndim(line) and np.shape(line) != V.shape[1:]:
                    raise InvalidArgumentError(f"pinned {name} {i} has shape {np.shape(line)}, "
                                               f"expected {V.shape[1]} values")
                M[i], V[i] = True, line
    return mask, values


def gram_matrix(mesh: SpaceTimeMesh, table: np.ndarray) -> np.ndarray:
    """The dual element matrix, -(hx ht / 4) sum_{component, q} B^T B: the
    negative Gram matrix of a DtP table B, ``[component, q, local dof]``."""
    B = table.reshape(-1, table.shape[-1])
    return -0.25 * mesh.hx * mesh.ht * (B.T @ B)


def corner_slices(mesh: SpaceTimeMesh, n_fields: int = 1) -> list:
    """The (field, t, x) slice of the node grid that each local dof takes
    over every element, in local dof order: field * 4 + corner, the corners
    counter-clockwise.  Element (jt, ix) is entry [jt, ix] of every slice."""
    nx, nt = mesh.nx, mesh.nt
    return [(f, slice(dt, dt + nt), slice(dx, dx + nx))
            for f in range(n_fields) for dx, dt in _CCW]


def dtp(mesh: SpaceTimeMesh, table: np.ndarray, sol: np.ndarray) -> np.ndarray:
    """(n_comp, n_elems, 4) Gauss-point values of a DtP table on a dual vector:
    one matmul of the table with the stacked corner slices of the dual's
    (field, t, x) node grid."""
    n_comp, n_q, ndof_e = table.shape
    X = sol.reshape(ndof_e // 4, mesh.nt + 1, mesh.nx + 1)
    gathered = np.stack([X[c] for c in corner_slices(mesh, len(X))])
    values = table.reshape(n_comp * n_q, ndof_e) @ gathered.reshape(ndof_e, -1)
    return values.reshape(n_comp, n_q, -1).transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class UniformMatrix:
    """The global matrix of one local matrix repeated over every element of
    a uniform mesh, kept as the mesh and that local matrix.

    ``shape`` and ``nnz`` are those of the assembled matrix, each coupled
    (row, column) pair counted once.  ``@`` applies the local matrix to the
    four corner slices of the node grid and adds the products back, with no
    index arrays; :meth:`lower_band` writes the lower band of -A.  A
    ``pinned`` mask, the (field, t, x) grid of a :func:`pin` set (default
    False: none), replaces the rows and columns of the pinned dofs by those
    of -I, giving the matrix :class:`FactoredSystem` factors.
    """

    mesh: SpaceTimeMesh
    local: np.ndarray
    pinned: np.ndarray | bool = False

    @property
    def n_fields(self) -> int:
        return len(self.local) // 4

    @property
    def shape(self) -> tuple:
        n = self.n_fields * self.mesh.n_nodes
        return (n, n)

    @property
    def nnz(self) -> int:
        # a node couples with its neighbours, itself included, in every field
        return self.n_fields ** 2 * (3 * self.mesh.nx + 1) * (3 * self.mesh.nt + 1)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        m = self.mesh
        x = np.asarray(x, dtype=float)
        X = x.reshape(self.n_fields, m.nt + 1, m.nx + 1)
        free = X.copy()
        free[self.pinned] = 0.0
        corners = corner_slices(m, self.n_fields)
        gathered = np.stack([free[c] for c in corners]).reshape(len(corners), -1)
        products = (self.local @ gathered).reshape(len(corners), m.nt, m.nx)
        Y = np.zeros_like(X)
        for c, p in zip(corners, products):
            Y[c] += p
        Y[self.pinned] = -X[self.pinned]
        return Y.reshape(-1)

    def lower_band(self) -> np.ndarray:
        """The lower band of -A in band order, (n, kd + 1): row j holds
        column j, band[j, i - j] = -A[i, j] for i >= j, the dofs numbered as
        the node grid transposed by :func:`_band_axes`.

        An element's local dofs sit at fixed band offsets from each other,
        so each local pair (a, b) with a non-negative offset adds
        -local[b, a] to one strided slice of the band, viewed as (long
        nodes, short nodes, fields, kd + 1): that slot of every element at
        once.  ``pinned`` is ignored; :func:`apply_dirichlet` pins the band.

        The local dofs are taken in decreasing (t, x) corner offset, so that
        each entry sums its element contributions in element order, as an
        assembled matrix does: the band equals the assembled one entry by
        entry.
        """
        n_long, n_short, step, _ = _band_axes(self.mesh)
        nf = self.n_fields
        field_of, corner = np.divmod(np.arange(4 * nf), 4)
        # band position of each local dof, less that of the element's first
        pos = (step[corner, 0] * n_short + step[corner, 1]) * nf + field_of
        offset = pos[None, :] - pos[:, None]
        kd = int(offset.max())
        band = np.zeros((n_long, n_short, nf, kd + 1))
        for a in np.lexsort((-_CCW[corner, 0], -_CCW[corner, 1])):
            dl, ds = step[corner[a]]
            for b in np.flatnonzero(offset[a] >= 0):
                band[dl:dl + n_long - 1, ds:ds + n_short - 1, field_of[a], offset[a, b]] \
                    -= self.local[b, a]
        return band.reshape(-1, kd + 1)


def assemble_uniform(mesh: SpaceTimeMesh, local_matrix: np.ndarray) -> UniformMatrix:
    """The matrix of one shared local matrix over every element.

    Valid for constant-coefficient kernels on uniform meshes, where all
    element matrices coincide.  The local matrix has four dofs per field.
    Nothing is scattered: the :class:`UniformMatrix` keeps the mesh and a
    read-only copy of the local matrix.
    """
    local_matrix = np.array(local_matrix, dtype=float)
    ndof_e = 4 * (len(local_matrix) // 4)
    if ndof_e == 0 or local_matrix.shape != (ndof_e, ndof_e):
        raise AssemblyError(f"local matrix shape {local_matrix.shape}")
    if not np.all(np.isfinite(local_matrix)):
        raise AssemblyError("non-finite local matrix entries")
    local_matrix.flags.writeable = False
    return UniformMatrix(mesh, local_matrix)


def boundary_load(mesh: SpaceTimeMesh, tag: str, func) -> np.ndarray:
    """Line integral of N^A * func along a tagged boundary, per node.

    ``func`` takes the coordinate that varies along the edge (x on
    bottom/top, t on left/right) and may be vectorized.  Uses 2-point Gauss
    on each edge segment.
    """
    bnodes = mesh.boundary_nodes(tag)
    s = mesh.x_coords() if tag in (BOTTOM, TOP) else mesh.t_coords()
    h = s[1:] - s[:-1]

    edge = np.zeros(s.size)
    for n0, n1 in LINE_N:
        g = np.asarray(func(s[:-1] + n1 * h), dtype=float)
        edge[:-1] += 0.5 * h * n0 * g
        edge[1:] += 0.5 * h * n1 * g
    load = np.zeros(mesh.n_nodes)
    load[bnodes] = edge
    return load


def apply_dirichlet(A: UniformMatrix, pinned, band: np.ndarray):
    """Pin the dofs of a :func:`pin` set in ``band``, the
    :meth:`UniformMatrix.lower_band` of A: zero their rows and columns and
    put 1 on their diagonal, so that they are identity lines of -A.

    Returns the lift -A v, v the pinned values grid, zero off the pins,
    which every right-hand side shares on the free dofs.
    """
    mask, values = pinned
    grid = (A.n_fields, A.mesh.nt + 1, A.mesh.nx + 1)
    if mask.shape != grid:
        raise InvalidArgumentError(f"pin grid of shape {mask.shape}, expected {grid}")
    rows = np.flatnonzero(mask.transpose(_band_axes(A.mesh)[-1]))
    band[rows] = 0.0
    band[rows, 0] = 1.0
    # row p of -A left of the diagonal: entry (p, p - k) is band[p - k, k]
    k = np.arange(1, band.shape[1])
    above = rows[:, None] - k
    inside = above >= 0
    band[above[inside], np.broadcast_to(k, above.shape)[inside]] = 0.0
    return -(A @ values)


def _band_axes(mesh: SpaceTimeMesh):
    """(long nodes, short nodes, the (long, short) offsets of the four
    corners in counter-clockwise order, the transpose that takes the
    (field, t, x) node grid to (long, short, field)) of the banded
    numbering; the x axis is long when nx >= nt.

    A matrix coupling all dofs of each element then has half-bandwidth
    (s + 2) n_fields - 1, s being the number of nodes across the short
    axis.
    """
    if mesh.nx >= mesh.nt:
        return mesh.nx + 1, mesh.nt + 1, _CCW, (2, 1, 0)
    return mesh.nt + 1, mesh.nx + 1, _CCW[:, ::-1], (1, 2, 0)


class BandCholesky:
    """Cholesky factor of -A, a symmetric matrix, from its lower band in the
    numbering of a node grid of ``shape`` transposed by ``axes``: row j of
    ``band`` holds column j of -A, band[j, i - j] = -A[dof i, dof j] for
    i >= j, dof j the j-th entry of the transposed grid.  :meth:`solve`
    works in A's own numbering, the grid's row-major order.

    The band is factored in place by LAPACK ``dpbtrf`` and solved by
    ``dpbtrs``; it takes (kd + 1) n 8 bytes.  A matrix whose negative is
    not definite is a :class:`SolverError` naming the failed pivot.
    """

    def __init__(self, band: np.ndarray, shape: tuple, axes: tuple):
        # band.T is LAPACK's (kd + 1, n) lower band storage
        self.band, info = dpbtrf(band.T, lower=1, overwrite_ab=1)
        if info > 0:
            raise SolverError(f"band Cholesky of -A failed at pivot {info} of {len(band)}: "
                              f"the matrix is not negative definite")
        if info < 0:
            raise SolverError(f"dpbtrf rejected argument {-info}")
        self.shape, self.axes = shape, axes

    def solve(self, b: np.ndarray) -> np.ndarray:
        B = b.reshape(self.shape).transpose(self.axes)
        y, _ = dpbtrs(self.band, B.reshape(-1), lower=1)
        x = np.empty(self.shape)
        x.transpose(self.axes)[...] = -y.reshape(B.shape)      # A x = b is (-A) x = -b
        return x.reshape(-1)


def solve_linear(A, b, lu) -> np.ndarray:
    """Direct solve of A x = b by ``lu``, checking the relative residual to 1e-8.

    ``A`` is anything with ``shape`` and ``@``: an array, or an operator
    that applies the matrix without assembling it, such as a
    :class:`UniformMatrix`.  ``lu`` is a factorization of A (anything with
    ``solve(b)``, such as a :class:`BandCholesky`).  The residual is always
    measured against A itself, so a factorization of a different matrix is
    caught.
    """
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
        raise InvalidArgumentError(f"shape mismatch: A {A.shape}, b {b.shape}")
    if A.shape[0] == 0:
        return np.zeros(0)
    with np.errstate(all="ignore"):
        x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("singular matrix: direct factorization produced non-finite values")
    resid = np.linalg.norm(A @ x - b)
    scale = np.linalg.norm(b)
    rel = resid / scale if scale > 0 else resid
    if rel > 1e-8:
        raise SolverError(f"linear solve residual too large: {rel:.3e} > 1e-8")
    return x


class FactoredSystem:
    """A :class:`UniformMatrix` whose pinned dofs are identity lines of -A,
    factored once.

    Every matrix factored here is a heat or transport dual: a negative Gram
    matrix, so symmetric, and negative definite once its pinned dofs are
    fixed.  Its band (:meth:`UniformMatrix.lower_band`) takes the pins
    (:func:`apply_dirichlet`) and is factored whole by :class:`BandCholesky`
    in the band order of A's mesh.
    :meth:`solve` then takes any full-length right-hand side and returns
    the full solution, the pinned values inserted bitwise; its residual is
    checked against ``matrix``, A with the same identity lines.
    """

    def __init__(self, A: UniformMatrix, pinned):
        mask, values = pinned
        band = A.lower_band()
        self._lift = apply_dirichlet(A, pinned, band)
        self._mask, self._values = mask, values[mask]
        self.matrix = replace(A, pinned=mask)
        self.lu = BandCholesky(band, mask.shape, _band_axes(A.mesh)[-1])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b = np.asarray(rhs, dtype=float) + self._lift
        b.reshape(self._mask.shape)[self._mask] = -self._values   # the identity lines of -A
        x = solve_linear(self.matrix, b, self.lu)
        x.reshape(self._mask.shape)[self._mask] = self._values
        return x


def solve_system(A: UniformMatrix, rhs: np.ndarray, pinned) -> np.ndarray:
    """Solve A x = rhs with the dofs of a :func:`pin` set fixed to their
    values, and return the full dof vector."""
    return FactoredSystem(A, pinned).solve(rhs)


def q_dual_heat(F: np.ndarray, k: float):
    """Principal-part quadratic form of the dual heat system.

    ``F`` holds 2x2 gradient matrices in the trailing axes, with rows
    (grad p, grad l) in (x, t) order; leading axes broadcast.
    """
    F = np.asarray(F, dtype=float)
    return (F[..., 0, 0] + F[..., 1, 1]) ** 2 + k ** 2 * F[..., 1, 0] ** 2


def q_dual_wave(g: np.ndarray, c: float):
    """Principal-part quadratic form of the dual transport equation.

    ``g`` holds gradient vectors (d_x lambda, d_t lambda) in the trailing
    axis; leading axes broadcast.
    """
    g = np.asarray(g, dtype=float)
    return (g[..., 1] + c * g[..., 0]) ** 2
