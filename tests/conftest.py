import numpy as np
import pytest

from dualfem.mesh import TimeMesh

# the 2x2 Gauss points of [-1, 1]^2 in the counter-clockwise order of the
# element corners
_GAUSS_2D = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(3.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def gauss_legendre_integrate(f, a, b, n=12):
    """High-order quadrature used as an independent check on hand-coded
    element integrals."""
    pts, wts = np.polynomial.legendre.leggauss(n)
    xm, xr = 0.5 * (a + b), 0.5 * (b - a)
    return xr * np.sum(wts * f(xm + xr * pts))


def gauss_legendre_integrate_2d(f, ax, bx, at, bt, n=12):
    pts, wts = np.polynomial.legendre.leggauss(n)
    xm, xr = 0.5 * (ax + bx), 0.5 * (bx - ax)
    tm, tr = 0.5 * (at + bt), 0.5 * (bt - at)
    acc = 0.0
    for pi, wi in zip(pts, wts):
        for pj, wj in zip(pts, wts):
            acc += wi * wj * f(xm + xr * pi, tm + tr * pj)
    return xr * tr * acc


def nodes_and_elements(mesh):
    """Reference geometry of a space-time mesh, which the mesh itself does
    not store: the (x, t) of every node, shape (n_nodes, 2), row-major with
    x fastest, and the counter-clockwise corner nodes of every element,
    element e = jt * nx + ix, shape (n_elems, 4), from the lower-left one."""
    X, T = np.meshgrid(mesh.x_coords(), mesh.t_coords())
    nodes = np.column_stack([X.ravel(), T.ravel()])
    nx1 = mesh.nx + 1
    JT, IX = np.meshgrid(np.arange(mesh.nt), np.arange(mesh.nx), indexing="ij")
    n00 = (JT * nx1 + IX).ravel()
    return nodes, np.column_stack([n00, n00 + 1, n00 + nx1 + 1, n00 + nx1])


def gauss_points(mesh):
    """Physical Gauss points of every element: (x, t) of the 2x2 points of a
    space-time mesh, shape (n_elems, 4, 2), or the two times of each
    element of a time mesh, shape (ne, 2)."""
    if isinstance(mesh, TimeMesh):
        return mesh.nodes[:-1, None] + 0.5 * (1 + _GAUSS_2D[:2, 0]) * mesh.h
    nodes, elements = nodes_and_elements(mesh)
    lower_left = nodes[elements[:, 0]]
    return lower_left[:, None, :] + 0.5 * (1 + _GAUSS_2D) * [mesh.hx, mesh.ht]


def dense_band(band):
    """The square matrix of a LAPACK band with equal upper and lower
    bandwidth u: entry (i, j) is band[u + i - j, j], zero off the band."""
    u, n = band.shape[0] // 2, band.shape[1]
    r, j = np.indices(band.shape)
    i = j + r - u
    inside = (i >= 0) & (i < n)
    A = np.zeros((n, n))
    A[i[inside], j[inside]] = band[inside]
    return A


def dense(A):
    """The dense matrix of an operator with ``shape`` and ``@``, applied to
    each unit vector in turn."""
    return np.column_stack([A @ e for e in np.eye(A.shape[1])])
