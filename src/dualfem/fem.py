"""Shared finite element machinery.

Bilinear quadrilateral / linear interval shape functions, 2-point Gauss
quadrature, element-to-global assembly of block systems, symmetric
Dirichlet elimination, and a checked direct linear solve that can reuse a
factorization across right-hand sides.

Global degrees of freedom are blocked by field: dof = field * n_nodes + node.
Local element dofs follow the same ordering, dof = field * 4 + local_node
(or field * 2 + local_node on intervals).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import AssemblyError, InvalidArgumentError, SolverError
from .mesh import SpaceTimeMesh

#: parent coordinates of the four local nodes, counter-clockwise
PARENT_NODES = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])

GAUSS_1D = 1.0 / np.sqrt(3.0)


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (n_pts,) in 1-D, (n_pts, 2) in 2-D
    weights: np.ndarray


def gauss_rule(dim: int) -> QuadratureRule:
    """Two-point Gauss rule on [-1,1], tensorized in 2-D."""
    if dim == 1:
        return QuadratureRule(points=np.array([-GAUSS_1D, GAUSS_1D]),
                              weights=np.array([1.0, 1.0]))
    if dim == 2:
        g = GAUSS_1D
        pts = np.array([[-g, -g], [g, -g], [g, g], [-g, g]])
        return QuadratureRule(points=pts, weights=np.ones(4))
    raise InvalidArgumentError(f"quadrature dimension must be 1 or 2, got {dim}")


@dataclass(frozen=True)
class ShapeEval:
    """Shape function values and physical-space gradients at one point."""

    values: np.ndarray
    grad_x: np.ndarray
    grad_t: np.ndarray


def shape_values_quad(xi: float, eta: float) -> np.ndarray:
    return 0.25 * np.array([(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                            (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)])


def shape_gradients_parent(xi: float, eta: float) -> np.ndarray:
    """d N / d(xi, eta), shape (4, 2)."""
    return 0.25 * np.array([
        [-(1 - eta), -(1 - xi)],
        [(1 - eta), -(1 + xi)],
        [(1 + eta), (1 + xi)],
        [-(1 + eta), (1 - xi)],
    ])


def eval_shapes_quad(coords: np.ndarray, parent_point) -> ShapeEval:
    """Evaluate bilinear shapes on an element with corner ``coords`` (4, 2)."""
    xi, eta = parent_point
    vals = shape_values_quad(xi, eta)
    dparent = shape_gradients_parent(xi, eta)
    jac = coords.T @ dparent          # (2, 2), d(x,t)/d(xi,eta)
    det = np.linalg.det(jac)
    if det <= 0 or not np.isfinite(det):
        raise SolverError(f"degenerate element Jacobian, det={det}")
    grads = dparent @ np.linalg.inv(jac)
    return ShapeEval(values=vals, grad_x=grads[:, 0], grad_t=grads[:, 1])


def eval_shapes_line(h: float, xi: float) -> ShapeEval:
    """Linear shapes on an interval of length h at parent coordinate xi."""
    vals = np.array([0.5 * (1 - xi), 0.5 * (1 + xi)])
    grads = np.array([-1.0 / h, 1.0 / h])
    return ShapeEval(values=vals, grad_x=grads, grad_t=np.zeros(2))


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


def element_dofs(conn: np.ndarray, n_fields: int, n_nodes: int) -> np.ndarray:
    """Global dofs of one element, local ordering field-major."""
    return np.concatenate([f * n_nodes + conn for f in range(n_fields)])


def assemble(mesh: SpaceTimeMesh, element_kernel, n_fields: int = 1,
             element_order=None) -> BlockLinearSystem:
    """Scatter-add per-element contributions into a global block system.

    ``element_kernel(e, shapes, wdets)`` receives the element index, the list
    of ShapeEval objects at the 2x2 Gauss points, and the quadrature weights
    multiplied by the Jacobian determinant.  It returns a (4*n_fields,
    4*n_fields) matrix, a (4*n_fields,) vector, or a tuple of both (either
    entry may be None).
    """
    rule = gauss_rule(2)
    n_nodes = mesh.n_nodes
    ndof_e = 4 * n_fields

    order = np.arange(mesh.n_elements) if element_order is None else np.asarray(element_order)

    rows, cols, data = [], [], []
    rhs = np.zeros(n_fields * n_nodes)

    # cache shape evaluations per distinct geometry; uniform meshes have one
    shapes_cache = {}

    def shapes_for(e):
        coords = mesh.nodes[mesh.elements[e]]
        key = (round(coords[0, 0] - coords[1, 0], 15), round(coords[0, 1] - coords[3, 1], 15))
        if key not in shapes_cache:
            evals, wdets = [], []
            for pt, w in zip(rule.points, rule.weights):
                se = eval_shapes_quad(coords, pt)
                jac = coords.T @ shape_gradients_parent(*pt)
                evals.append(se)
                wdets.append(w * np.linalg.det(jac))
            shapes_cache[key] = (evals, np.array(wdets))
        return shapes_cache[key]

    for e in order:
        evals, wdets = shapes_for(e)
        out = element_kernel(e, evals, wdets)
        if isinstance(out, tuple):
            ke, fe = out
        else:
            ke, fe = out, None
        edofs = element_dofs(mesh.elements[e], n_fields, n_nodes)
        if ke is not None:
            ke = np.asarray(ke, dtype=float)
            if ke.shape != (ndof_e, ndof_e):
                raise AssemblyError(f"element {e}: kernel matrix shape {ke.shape}")
            if not np.all(np.isfinite(ke)):
                raise AssemblyError(f"element {e}: non-finite kernel matrix entries")
            rows.append(np.repeat(edofs, ndof_e))
            cols.append(np.tile(edofs, ndof_e))
            data.append(ke.ravel())
        if fe is not None:
            fe = np.asarray(fe, dtype=float)
            if not np.all(np.isfinite(fe)):
                raise AssemblyError(f"element {e}: non-finite kernel rhs entries")
            np.add.at(rhs, edofs, fe)

    n = n_fields * n_nodes
    if rows:
        mat = sp.coo_matrix((np.concatenate(data),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(n, n)).tocsr()
    else:
        mat = sp.csr_matrix((n, n))
    return BlockLinearSystem(n_fields=n_fields, n_nodes=n_nodes, matrix=mat, rhs=rhs)


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
    from .mesh import BOTTOM, TOP

    bnodes = mesh.boundary_nodes(tag)
    coords = mesh.nodes[bnodes]
    s = coords[:, 0] if tag in (BOTTOM, TOP) else coords[:, 1]
    h = s[1:] - s[:-1]
    rule = gauss_rule(1)

    load = np.zeros(mesh.n_nodes)
    for xi, w in zip(rule.points, rule.weights):
        n0 = 0.5 * (1 - xi)
        n1 = 0.5 * (1 + xi)
        sg = s[:-1] + 0.5 * (1 + xi) * h
        g = np.asarray(func(sg), dtype=float)
        np.add.at(load, bnodes[:-1], w * 0.5 * h * n0 * g)
        np.add.at(load, bnodes[1:], w * 0.5 * h * n1 * g)
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
