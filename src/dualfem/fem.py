"""Shared finite element machinery.

One reference-element table of linear (interval) and bilinear (space-time)
shape functions at the 2-point and 2x2 Gauss points, the dual element
matrix of a dual-to-primal (DtP) table and its Gauss-point values, the
uniform-mesh scatter of one shared element matrix, boundary loads, prescribed
dofs as sorted ``(dofs, values)`` arrays (:func:`pin`), their symmetric
elimination by row and column slices of the CSR matrix, and a
residual-checked linear solve by a factorization that serves every
right-hand side.

Global degrees of freedom are blocked by field: dof = field * n_nodes + node.
Local element dofs follow the same ordering, dof = field * 4 + local_node.
A factorization numbers them differently: :func:`band_key` numbers the
mesh's long axis slowest, its short axis next and the fields innermost, so
every dual is a band, which :func:`factor` factors by band Cholesky.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

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


def pin(*pairs):
    """Merge ``(dofs, values)`` pairs into one ``(dofs, values)`` pin set,
    sorted by dof; the values of a pair broadcast to its dofs.

    A dof given more than once keeps its last value, and all its values
    must agree to 1e-12.
    """
    dofs = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.atleast_1d(np.asarray(d, dtype=np.int64)) for d, _ in pairs])
    values = np.concatenate([np.zeros(0)] + [
        np.broadcast_to(np.asarray(v, dtype=float), np.shape(np.atleast_1d(d)))
        for d, v in pairs])
    order = np.argsort(dofs, kind="stable")
    dofs, values = dofs[order], values[order]
    repeat = dofs[1:] == dofs[:-1]
    clash = repeat & ~np.isclose(values[1:], values[:-1], rtol=1e-12, atol=1e-12)
    if clash.any():
        i = int(np.argmax(clash))
        raise InvalidArgumentError(f"conflicting constraints on dof {dofs[i]}: "
                                   f"{values[i]} vs {values[i + 1]}")
    last = np.ones(dofs.size, dtype=bool)      # the last entry of each dof
    last[:-1] = ~repeat
    return dofs[last], values[last]


def gram_matrix(mesh: SpaceTimeMesh, table: np.ndarray) -> np.ndarray:
    """The dual element matrix, -(hx ht / 4) sum_{component, q} B^T B: the
    negative Gram matrix of a DtP table B, ``[component, q, local dof]``."""
    B = table.reshape(-1, table.shape[-1])
    return -0.25 * mesh.hx * mesh.ht * (B.T @ B)


def element_dofs(mesh: SpaceTimeMesh, n_fields: int) -> np.ndarray:
    """(n_elems, 4 n_fields) global dofs of every element's local dofs."""
    fields = mesh.n_nodes * np.arange(n_fields)[:, None]        # (n_fields, 1) offsets
    return (mesh.elements[:, None] + fields).reshape(mesh.n_elements, 4 * n_fields)


def dtp(mesh: SpaceTimeMesh, table: np.ndarray, sol: np.ndarray) -> np.ndarray:
    """(n_comp, n_elems, 4) Gauss-point values of a DtP table on a dual vector.
    The transposed table is copied to C order, which halves the matmul's time."""
    return sol[element_dofs(mesh, table.shape[-1] // 4)] @ table.transpose(0, 2, 1).copy()


def assemble_uniform(mesh: SpaceTimeMesh, local_matrix: np.ndarray) -> sp.csr_matrix:
    """Fast scatter of one shared local matrix over every element.

    Valid for constant-coefficient kernels on uniform meshes, where all
    element matrices coincide.  The local matrix has four dofs per field.
    """
    local_matrix = np.asarray(local_matrix, dtype=float)
    n_nodes, n_fields = mesh.n_nodes, len(local_matrix) // 4
    ndof_e = 4 * n_fields
    if n_fields == 0 or local_matrix.shape != (ndof_e, ndof_e):
        raise AssemblyError(f"local matrix shape {local_matrix.shape}")
    if not np.all(np.isfinite(local_matrix)):
        raise AssemblyError("non-finite local matrix entries")

    edofs = element_dofs(mesh, n_fields)
    rows = np.repeat(edofs, ndof_e, axis=1).ravel()
    cols = np.tile(edofs, (1, ndof_e)).ravel()
    data = np.tile(local_matrix.ravel(), mesh.n_elements)
    n = n_fields * n_nodes
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def boundary_load(mesh: SpaceTimeMesh, tag: str, func) -> np.ndarray:
    """Line integral of N^A * func along a tagged boundary, per node.

    ``func`` takes the coordinate that varies along the edge (x on
    bottom/top, t on left/right) and may be vectorized.  Uses 2-point Gauss
    on each edge segment.
    """
    bnodes = mesh.boundary_nodes(tag)
    coords = mesh.nodes[bnodes]
    s = coords[:, 0] if tag in (BOTTOM, TOP) else coords[:, 1]
    h = s[1:] - s[:-1]

    load = np.zeros(mesh.n_nodes)
    for n0, n1 in LINE_N:
        g = np.asarray(func(s[:-1] + n1 * h), dtype=float)
        np.add.at(load, bnodes[:-1], 0.5 * h * n0 * g)
        np.add.at(load, bnodes[1:], 0.5 * h * n1 * g)
    return load


def apply_dirichlet(A, pinned):
    """Symmetric elimination of the pinned dofs of the CSR matrix A, a
    :func:`pin` set.

    Returns (A_ff, lift, free): the free-free block, sliced from A by rows
    and then by columns without a change of format, the lift
    -A[free, pinned] @ values that every right-hand side shares, and the
    free dofs.
    """
    n = A.shape[0]
    cdofs, cvals = pinned
    if cdofs.size and (cdofs.min() < 0 or cdofs.max() >= n):
        raise InvalidArgumentError("constraint dof out of range")
    free = np.setdiff1d(np.arange(n), cdofs, assume_unique=True)
    A_f = A[free]
    return A_f[:, free], -(A_f[:, cdofs] @ cvals), free


def band_key(mesh: SpaceTimeMesh, n_fields: int) -> np.ndarray:
    """Position of every dof in the banded numbering: the mesh's long axis
    slowest, its short axis next and the fields innermost.

    Sorting a set of dofs by it, ``np.argsort(band_key(mesh, f)[dofs])``,
    gives the ``order`` :func:`factor` takes.  A matrix coupling all dofs of
    each element then has half-bandwidth (s + 2) n_fields - 1, s being the
    number of nodes across the short axis.
    """
    nx1, nt1 = mesh.nx + 1, mesh.nt + 1
    node = np.arange(mesh.n_nodes)
    if mesh.nx >= mesh.nt:                       # x long: t numbered fastest
        node = node % nx1 * nt1 + node // nx1
    return (node * n_fields + np.arange(n_fields)[:, None]).ravel()


def _lower_band(A, order):
    """The lower band of -A, for a symmetric CSR matrix A in the numbering
    ``order``: row j holds column j, band[j, i - j] = -A[i, j] for i >= j,
    kd being A's half-bandwidth there.

    The stored (row, col) pairs are permuted once, and both kd and each
    entry's band slot are read from them; an entry and its mirror land on
    the same slot, so no mask is needed.
    """
    n = A.shape[0]
    rank = np.empty(n, dtype=np.intp)          # the position of each dof in order
    rank[order] = np.arange(n)
    r = np.repeat(rank, np.diff(A.indptr))
    c = rank[A.indices]
    off = np.abs(r - c)
    kd = int(off.max(initial=0))
    band = np.zeros((n, kd + 1))
    band.ravel()[np.minimum(r, c) * (kd + 1) + off] = -A.data
    return band


class BandCholesky:
    """Cholesky factor of -A, a symmetric matrix, from its :func:`_lower_band`
    in the numbering ``order``; :meth:`solve` works in A's own numbering."""

    def __init__(self, band: np.ndarray, order):
        # band.T is LAPACK's (kd + 1, n) lower band storage
        self.band, info = dpbtrf(band.T, lower=1, overwrite_ab=1)
        if info > 0:
            raise SolverError(f"band Cholesky of -A failed at pivot {info} of {len(band)}: "
                              f"the matrix is not negative definite")
        if info < 0:
            raise SolverError(f"dpbtrf rejected argument {-info}")
        self.order = order

    def solve(self, b: np.ndarray) -> np.ndarray:
        y, _ = dpbtrs(self.band, b[self.order], lower=1)
        x = np.empty_like(y)
        x[self.order] = -y                               # A x = b is (-A) x = -b
        return x


def factor(A, order):
    """Band Cholesky factorization of a square CSR matrix A in the dof
    numbering ``order`` (a permutation, as from :func:`band_key`), reusable
    by :func:`solve_linear`.

    Every matrix factored here is a heat or transport dual: a negative Gram
    matrix, so symmetric and, after Dirichlet elimination, negative
    definite.  The lower band of -A (:func:`_lower_band`) is factored by
    LAPACK ``dpbtrf`` and solved by ``dpbtrs``.  A matrix whose negative is
    not definite is a :class:`SolverError` naming the failed pivot, and A
    is read as symmetric (the residual check of :func:`solve_linear`
    catches one that is not).  The band takes (kd + 1) n 8 bytes.
    """
    return BandCholesky(_lower_band(A, order), order)


def solve_linear(A, b, lu) -> np.ndarray:
    """Direct solve of A x = b by ``lu``, checking the relative residual to 1e-8.

    ``A`` is anything with ``shape`` and ``@`` (a sparse matrix, or an
    operator that applies the matrix without assembling it).  ``lu`` is a
    factorization of A (anything with ``solve(b)``, such as the result of
    :func:`factor`).  The residual is always measured against A itself, so
    a factorization of a different matrix is caught.
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
    """A matrix with its pinned dofs eliminated and the rest factored once.

    The free dofs are factored in the :func:`band_key` order of the
    ``mesh`` the matrix was assembled on.  :meth:`solve` then takes any
    full-length right-hand side and returns the full solution, the pinned
    values inserted bitwise.
    """

    def __init__(self, A, pinned, mesh: SpaceTimeMesh):
        n_fields, extra = divmod(A.shape[0], mesh.n_nodes)
        if extra or n_fields == 0:
            raise InvalidArgumentError(f"a matrix of {A.shape[0]} dofs on a mesh "
                                       f"of {mesh.n_nodes} nodes")
        self.matrix, self._lift, self._free = apply_dirichlet(A, pinned)
        self._n, self._pinned = A.shape[0], pinned
        order = np.argsort(band_key(mesh, n_fields)[self._free])
        self.lu = factor(self.matrix, order) if self.matrix.shape[0] else None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b_red = np.asarray(rhs, dtype=float)[self._free] + self._lift
        full = np.empty(self._n)
        full[self._free] = solve_linear(self.matrix, b_red, self.lu)
        full[self._pinned[0]] = self._pinned[1]
        return full


def solve_system(A, rhs: np.ndarray, pinned, mesh: SpaceTimeMesh) -> np.ndarray:
    """Eliminate the pinned dofs of A x = rhs, a :func:`pin` set, solve, and
    recover the full dof vector; ``mesh`` as for :class:`FactoredSystem`."""
    return FactoredSystem(A, pinned, mesh).solve(rhs)


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
