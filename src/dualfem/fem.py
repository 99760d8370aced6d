"""Shared finite element machinery.

One reference-element table of linear (interval) and bilinear (space-time)
shape functions at the 2-point and 2x2 Gauss points, the uniform-mesh
scatter of one shared element matrix, boundary loads, symmetric Dirichlet
elimination, and a checked direct linear solve that can reuse a
factorization across right-hand sides.

Global degrees of freedom are blocked by field: dof = field * n_nodes + node.
Local element dofs follow the same ordering, dof = field * 4 + local_node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

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


@dataclass
class BlockLinearSystem:
    """Assembled matrix/rhs over (field, node) dofs with constraint bookkeeping."""

    n_fields: int
    n_nodes: int
    matrix: sp.csr_matrix
    rhs: np.ndarray
    constrained: dict = field(default_factory=dict)

    @property
    def n_dofs(self) -> int:
        return self.n_fields * self.n_nodes

    def dof(self, field_idx: int, node: int) -> int:
        return field_idx * self.n_nodes + node

    def constrain(self, field_idx: int, nodes, values) -> None:
        """Prescribe dof values; re-prescribing with a different value is an error."""
        nodes = np.atleast_1d(np.asarray(nodes))
        values = np.broadcast_to(np.asarray(values, dtype=float), nodes.shape)
        for n, v in zip(nodes, values):
            d = self.dof(field_idx, int(n))
            if d in self.constrained and not np.isclose(self.constrained[d], v,
                                                        rtol=1e-12, atol=1e-12):
                raise InvalidArgumentError(
                    f"conflicting constraints on dof {d}: "
                    f"{self.constrained[d]} vs {v}")
            self.constrained[d] = float(v)


def assemble_uniform(mesh: SpaceTimeMesh, local_matrix: np.ndarray,
                     n_fields: int) -> BlockLinearSystem:
    """Fast scatter of one shared local matrix over every element.

    Valid for constant-coefficient kernels on uniform meshes, where all
    element matrices coincide.
    """
    n_nodes = mesh.n_nodes
    ndof_e = 4 * n_fields
    local_matrix = np.asarray(local_matrix, dtype=float)
    if local_matrix.shape != (ndof_e, ndof_e):
        raise AssemblyError(f"local matrix shape {local_matrix.shape}")
    if not np.all(np.isfinite(local_matrix)):
        raise AssemblyError("non-finite local matrix entries")

    conn = mesh.elements
    edofs = np.concatenate([f * n_nodes + conn for f in range(n_fields)], axis=1)
    rows = np.repeat(edofs, ndof_e, axis=1).ravel()
    cols = np.tile(edofs, (1, ndof_e)).ravel()
    data = np.tile(local_matrix.ravel(), mesh.n_elements)
    n = n_fields * n_nodes
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    return BlockLinearSystem(n_fields=n_fields, n_nodes=n_nodes, matrix=mat,
                             rhs=np.zeros(n))


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


def apply_dirichlet(system: BlockLinearSystem):
    """Symmetric elimination of constrained dofs.

    Returns (A_red, b_red, free_idx, recover) where ``recover(u_red)``
    rebuilds the full solution vector with prescribed values inserted.
    """
    n = system.n_dofs
    cdofs = np.array(sorted(system.constrained), dtype=np.int64)
    if cdofs.size and (cdofs.min() < 0 or cdofs.max() >= n):
        raise InvalidArgumentError("constraint dof out of range")
    cvals = np.array([system.constrained[d] for d in cdofs])
    mask = np.ones(n, dtype=bool)
    mask[cdofs] = False
    free = np.nonzero(mask)[0]

    A = system.matrix.tocsc()
    A_red = A[free][:, free]
    b_red = system.rhs[free]
    if cdofs.size:
        b_red = b_red - A[free][:, cdofs] @ cvals

    def recover(u_red):
        full = np.empty(n)
        full[free] = u_red
        full[cdofs] = cvals
        return full

    return A_red.tocsr(), b_red, free, recover


def factor(A):
    """Sparse LU factorization of a square matrix, reusable by :func:`solve_linear`."""
    try:
        return splu(sp.csc_matrix(A))
    except RuntimeError as exc:          # SuperLU: "Factor is exactly singular"
        raise SolverError(f"singular matrix: {exc}") from exc


def solve_linear(A, b, rtol: float = 1e-8, lu=None) -> np.ndarray:
    """Direct solve of A x = b with a relative residual check.

    ``lu`` is a factorization of A (anything with ``solve(b)``, such as the
    result of :func:`factor`); A is factored here when it is not given.  The
    residual is always measured against A itself, so a factorization of a
    different matrix is caught.
    """
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
        raise InvalidArgumentError(f"shape mismatch: A {A.shape}, b {b.shape}")
    if A.shape[0] == 0:
        return np.zeros(0)
    if lu is None:
        lu = factor(A)
    with np.errstate(all="ignore"):
        x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("singular matrix: direct factorization produced non-finite values")
    resid = np.linalg.norm(A @ x - b)
    scale = np.linalg.norm(b)
    rel = resid / scale if scale > 0 else resid
    if rel > rtol:
        raise SolverError(f"linear solve residual too large: {rel:.3e} > {rtol:.1e}")
    return x


class FactoredSystem:
    """A block system with its constraints eliminated and its matrix factored once.

    :meth:`solve` then takes any full-length right-hand side; the matrix and
    the prescribed values are those of the system given here.
    """

    def __init__(self, system: BlockLinearSystem, rtol: float = 1e-8):
        # eliminating with a zero load leaves -A[free, c] @ values, the lift
        # that every right-hand side shares
        self.matrix, self._lift, self._free, self._recover = apply_dirichlet(
            replace(system, rhs=np.zeros(system.n_dofs)))
        self._lu = factor(self.matrix) if self.matrix.shape[0] else None
        self.rtol = rtol

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b_red = np.asarray(rhs, dtype=float)[self._free] + self._lift
        return self._recover(solve_linear(self.matrix, b_red, self.rtol, self._lu))


def solve_system(system: BlockLinearSystem, rtol: float = 1e-8) -> np.ndarray:
    """Constrain, solve, and recover the full dof vector."""
    return FactoredSystem(system, rtol).solve(system.rhs)


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
