import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from conftest import gauss_points
from dualfem import projection
from dualfem.errors import InvalidArgumentError, SolverError
from dualfem.fem import LINE_N, QUAD_N, assemble_uniform
from dualfem.mesh import build_space_time_mesh, build_time_mesh
from dualfem.projection import (_KronMass, _axis,
                                l2_project, l2_project_time)


def sample_function(mesh, f):
    """Evaluate f(x, t) at every element Gauss point, shape (ne, 4)."""
    pts = gauss_points(mesh)
    return f(pts[..., 0], pts[..., 1])


def mass_local(mesh):
    """Element mass matrix integrated by the 2x2 Gauss rule."""
    return 0.25 * mesh.hx * mesh.ht * QUAD_N.T @ QUAD_N


def nodal_rms(mesh, nodal):
    return float(np.sqrt(np.mean(nodal ** 2)))


def test_mass_local_is_exact():
    m = build_space_time_mesh(0.9, 1.4, 3, 2)
    hx, ht = m.hx, m.ht                              # 0.3, 0.7
    M = mass_local(m)
    # the exact mass matrix of the bilinear element
    exact = hx * ht / 36 * np.array([[4.0, 2, 1, 2], [2, 4, 2, 1],
                                     [1, 2, 4, 2], [2, 1, 2, 4]])
    assert np.abs(M - exact).max() < 1e-16
    # total mass = element area
    assert M.sum() == pytest.approx(hx * ht, rel=1e-14)


def test_quad_points_inside_elements():
    m = build_space_time_mesh(2.0, 1.0, 3, 2)
    pts = gauss_points(m)
    assert pts.shape == (6, 4, 2)
    corners = m.nodes[m.elements]
    lo = corners.min(axis=1, keepdims=True)
    hi = corners.max(axis=1, keepdims=True)
    assert np.all(pts > lo) and np.all(pts < hi)


@pytest.mark.parametrize("pin_rows, pin_cols", [
    ((), ()), ((0,), ()), ((), (0,)), ((0,), (0, 6)), (tuple(range(6)), ()),
], ids=["none", "bottom-row", "left-column", "bottom-row-lateral-columns", "every-row"])
def test_identity_on_fe_space(rng, pin_rows, pin_cols):
    # samples of a field already in the FE space are recovered exactly, with
    # its own values pinned on any set of whole lines
    m = build_space_time_mesh(1.0, 1.0, 6, 5)
    grid = rng.standard_normal((m.nt + 1, m.nx + 1))
    samples = grid.ravel()[m.elements] @ QUAD_N.T
    rows = {i: grid[i].copy() for i in pin_rows}
    cols = {j: grid[:, j] for j in pin_cols}
    if rows and cols:       # the row disagrees at a shared corner; the column wins
        rows[pin_rows[0]][pin_cols[0]] += 1.0
    out = l2_project(m, samples, rows, cols)
    assert out.shape == grid.shape
    assert np.abs(out - grid).max() < 1e-10
    assert np.array_equal(out[list(pin_rows)], grid[list(pin_rows)])
    assert np.array_equal(out[:, list(pin_cols)], grid[:, list(pin_cols)])


def test_constant_samples_with_pins():
    m = build_space_time_mesh(1.0, 1.0, 4, 4)
    samples = np.full((m.n_elements, 4), 7.0)
    out = l2_project(m, samples, rows={}, cols={0: 7.0})
    assert np.abs(out - 7.0).max() < 1e-12


def test_pinned_values_exact():
    m = build_space_time_mesh(1.0, 1.0, 4, 4)
    samples = np.full((m.n_elements, 4), 1.0)
    value = 0.1 + 0.2
    out = l2_project(m, samples, rows={0: value}, cols={m.nx: value})
    assert np.all(out[0] == value) and np.all(out[:, m.nx] == value)


def reference_projection(mesh, samples, nodes, values):
    """Assembled 2-D mass matrix, pinned values moved to the right-hand
    side, and a sparse direct solve on the free nodes."""
    M = assemble_uniform(mesh, mass_local(mesh))
    rhs = np.zeros(mesh.n_nodes)
    np.add.at(rhs, mesh.elements.ravel(), (0.25 * mesh.hx * mesh.ht * samples @ QUAD_N).ravel())
    out = np.zeros(mesh.n_nodes)
    out[nodes] = values
    free = np.setdiff1d(np.arange(mesh.n_nodes), nodes)
    b = rhs[free] - M[free][:, nodes] @ out[nodes]
    out[free] = spsolve(sp.csc_matrix(M[free][:, free]), b)
    return out


@pytest.mark.parametrize("pins", ["none", "heat", "transport"])
def test_kronecker_solve_matches_assembled_mass_matrix(rng, pins):
    m = build_space_time_mesh(1.3, 0.6, 7, 4)        # nt != nx, hx != ht
    samples = rng.standard_normal((m.n_elements, 4))
    row = lambda: rng.standard_normal(m.nx + 1)
    col = lambda: rng.standard_normal(m.nt + 1)
    rows, cols = {
        "none": ({}, {}),
        "heat": ({}, {0: col(), m.nx: col()}),       # the lateral columns
        "transport": ({0: row()}, {0: col()}),       # the initial row, the inflow column
    }[pins]
    # the pinned node ids and values, a shared corner taking the column's
    pinned, values = np.zeros((m.nt + 1, m.nx + 1), dtype=bool), np.zeros((m.nt + 1, m.nx + 1))
    for i, v in rows.items():
        pinned[i], values[i] = True, v
    for j, v in cols.items():
        pinned[:, j], values[:, j] = True, v
    nodes = np.flatnonzero(pinned)
    ref = reference_projection(m, samples, nodes, values.ravel()[nodes])
    out = l2_project(m, samples, rows, cols).ravel()
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(out[nodes], values.ravel()[nodes])


def band_matrix(ab):
    return sp.dia_matrix((ab, [1, 0, -1]), shape=(ab.shape[1], ab.shape[1]))


@pytest.mark.parametrize("free_rows, free_cols", [
    (np.arange(1, 8), np.arange(1, 5)),       # transport: initial row, inflow column
    (np.arange(8), np.arange(1, 4)),          # heat: the two lateral columns
    (np.array([1, 2, 5, 6, 7]), np.array([0, 1, 3, 4])),   # interior gaps
], ids=["transport", "heat", "gaps"])
def test_kron_mass_operator_matches_assembled_kron(rng, free_rows, free_cols):
    # the matrix-free free block applies and counts like sp.kron of its bands
    t = _axis(7, 0.15, tuple(np.setdiff1d(np.arange(8), free_rows).tolist()))
    x = _axis(4, 0.325, tuple(np.setdiff1d(np.arange(5), free_cols).tolist()))
    assert np.array_equal(t.free, free_rows) and np.array_equal(x.free, free_cols)
    op = _KronMass(t, x)
    K = sp.kron(band_matrix(t.free_bands), band_matrix(x.free_bands), format="coo")
    v = rng.standard_normal(K.shape[0])
    ref = K @ v
    assert op.shape == K.shape
    assert np.abs(op @ v - ref).max() <= 1e-14 * np.abs(ref).max()
    assert op.nnz == K.nnz
    assert np.abs(K @ op.solve(ref) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_projection_residual_guard_fires_without_an_assembled_matrix(rng, monkeypatch):
    # a solve that misses the mass matrix is caught by solve_linear's check
    m = build_space_time_mesh(1.0, 1.0, 5, 4)
    samples = rng.standard_normal((m.n_elements, 4))
    exact_solve = _KronMass.solve
    monkeypatch.setattr(_KronMass, "solve",
                        lambda self, b: exact_solve(self, b) * (1 + 1e-6))
    with pytest.raises(SolverError, match="residual"):
        l2_project(m, samples, {}, {})


def test_out_of_range_pins_rejected_before_any_solve(monkeypatch):
    solves = []
    monkeypatch.setattr(projection, "solve_linear", lambda *args, **kw: solves.append(args))
    m = build_space_time_mesh(1.0, 1.0, 4, 3)
    samples = np.ones((m.n_elements, 4))
    for rows, cols in (({m.nt + 1: 1.0}, {}), ({-1: 1.0}, {}),
                       ({}, {m.nx + 1: 1.0}), ({0: 1.0}, {-1: 1.0})):
        with pytest.raises(InvalidArgumentError, match="out of range"):
            l2_project(m, samples, rows, cols)
    tm = build_time_mesh(1.0, 4)
    for node in (tm.n_nodes, -1):
        with pytest.raises(InvalidArgumentError, match="out of range"):
            l2_project_time(tm, np.ones((tm.ne, 2)), {node: 1.0})
    assert solves == []


@pytest.mark.parametrize("line, message", [
    ("row", "pinned row 0 has shape (3,), expected 5 values"),
    ("column", "pinned column 4 has shape (5,), expected 4 values"),
    ("time-node", "pinned node 2 has shape (2,), expected 3 values"),
], ids=["row", "column", "time-node"])
def test_wrong_length_pins_rejected_before_any_solve(monkeypatch, line, message):
    # nx = 4, nt = 3: a row holds 5 values and a column 4; a rigid-body
    # node holds one value per component
    solves = []
    monkeypatch.setattr(projection, "solve_linear", lambda *args, **kw: solves.append(args))
    monkeypatch.setattr(projection, "_band_solve", lambda *args: solves.append(args))
    m = build_space_time_mesh(1.0, 1.0, 4, 3)
    samples = np.ones((m.n_elements, 4))
    with pytest.raises(InvalidArgumentError) as info:
        if line == "row":
            l2_project(m, samples, rows={0: np.ones(3)}, cols={})
        elif line == "column":
            l2_project(m, samples, rows={}, cols={4: np.ones(5)})
        else:
            tm = build_time_mesh(1.0, 4)
            l2_project_time(tm, np.ones((3, tm.ne, 2)), {2: [1.0, 2.0]})
    assert str(info.value) == message
    assert solves == []


def test_smooth_field_second_order():
    f = lambda x, t: np.sin(0.5 * np.pi * x) + 1.0 + 0.0 * t
    errs = []
    for nx, nt in ((10, 11), (20, 22), (40, 44)):
        m = build_space_time_mesh(1.0, 1.1, nx, nt)
        out = l2_project(m, sample_function(m, f), {}, {})
        exact = f(m.x_coords(), 0.0)
        errs.append(np.abs(out - exact).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.8


def test_best_approximation_property(rng):
    # projection minimizes the L2 distance among FE fields with matching pins
    m = build_space_time_mesh(1.0, 1.0, 5, 4)
    f = lambda x, t: np.cos(2 * x + t) + x * t
    samples = sample_function(m, f)
    proj = l2_project(m, samples, {}, {}).ravel()
    wdet = 0.25 * m.hx * m.ht

    def dist(nodal):
        vals = nodal[m.elements] @ QUAD_N.T
        return np.sqrt(wdet * np.sum((vals - samples) ** 2))

    d0 = dist(proj)
    for _ in range(10):
        other = proj + rng.standard_normal(m.n_nodes) * 0.1
        assert dist(other) >= d0 - 1e-12


def test_shape_mismatch_rejected():
    m = build_space_time_mesh(1.0, 1.0, 2, 2)
    with pytest.raises(InvalidArgumentError):
        l2_project(m, np.zeros((3, 4)), {}, {})


def test_time_projection_identity(rng):
    m = build_time_mesh(0.5, 10)
    nodal = rng.standard_normal(m.n_nodes)
    pts = gauss_points(m)
    # linear interpolation at the Gauss points of each interval
    samples = np.empty((m.ne, 2))
    for e in range(m.ne):
        samples[e] = np.interp(pts[e], m.nodes, nodal)
    out = l2_project_time(m, samples, {})
    assert np.abs(out - nodal).max() < 1e-10


def test_time_projection_identity_with_end_pins():
    # a linear field is recovered exactly with its first and last node pinned
    m = build_time_mesh(0.5, 10)
    f = lambda t: 2.0 - 3.0 * t
    out = l2_project_time(m, f(gauss_points(m)), {0: f(m.nodes[0]), m.ne: f(m.nodes[-1])})
    assert np.abs(out - f(m.nodes)).max() < 1e-12
    assert out[0] == f(m.nodes[0]) and out[-1] == f(m.nodes[-1])


def test_time_projection_with_pin_and_components():
    m = build_time_mesh(1.0, 8)
    pts = gauss_points(m)
    samples = np.stack([np.sin(pts), np.cos(pts), pts ** 2])
    out = l2_project_time(m, samples, {0: [0.0, 1.0, 0.0]})
    assert out.shape == (3, 9)
    assert out[0, 0] == 0.0 and out[1, 0] == 1.0 and out[2, 0] == 0.0
    assert np.abs(out[0] - np.sin(m.nodes)).max() < 2e-3


def test_time_projection_matches_dense_solve(rng):
    # the dense element loop the tridiagonal solve replaced, per component
    m = build_time_mesh(0.7, 9)
    samples = rng.standard_normal((3, m.ne, 2))
    pin_values = rng.standard_normal(3)
    out = l2_project_time(m, samples, nodes={0: pin_values})

    h, n = m.h, m.n_nodes
    M = np.zeros((n, n))
    Nq = np.array([[0.5 * (1 + 1 / np.sqrt(3)), 0.5 * (1 - 1 / np.sqrt(3))],
                   [0.5 * (1 - 1 / np.sqrt(3)), 0.5 * (1 + 1 / np.sqrt(3))]])
    for e in range(m.ne):
        M[e:e + 2, e:e + 2] += h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    for i in range(3):
        rhs = np.zeros(n)
        for e in range(m.ne):
            rhs[e:e + 2] += 0.5 * h * samples[i, e] @ Nq
        ref = np.empty(n)
        ref[0] = pin_values[i]
        ref[1:] = np.linalg.solve(M[1:, 1:], rhs[1:] - M[1:, 0] * pin_values[i])
        assert np.abs(out[i] - ref).max() <= 1e-13 * np.abs(ref).max()
        assert out[i, 0] == pin_values[i]


def dense_time_projection(m, samples, nodes, values):
    """Per-component dense solve of the 1-D projection, pins eliminated."""
    n = m.n_nodes
    M = np.zeros((n, n))
    rhs = np.zeros((samples.shape[0], n))
    for e in range(m.ne):
        M[e:e + 2, e:e + 2] += m.h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        rhs[:, e:e + 2] += 0.5 * m.h * samples[:, e] @ LINE_N
    free = np.setdiff1d(np.arange(n), nodes)
    out = np.zeros((samples.shape[0], n))
    out[:, nodes] = values
    rhs -= out @ M
    out[:, free] = np.linalg.solve(M[np.ix_(free, free)], rhs[:, free].T).T
    return out


@pytest.mark.parametrize("ne", [1, 2, 9])
def test_time_projection_factor_is_kept_per_mesh_and_pin_set(rng, ne):
    # one factor per (ne, h, pinned nodes): alternating pin sets on one mesh
    # each solve with their own, and a repeated call builds nothing new
    m = build_time_mesh(0.7, ne)
    _axis.cache_clear()
    seen = set()
    for nodes in ([0], [], [0, ne], [0], []):
        samples = rng.standard_normal((3, ne, 2))
        values = rng.standard_normal((3, len(nodes)))
        hits = _axis.cache_info().hits
        out = l2_project_time(m, samples, dict(zip(nodes, values.T)))
        ref = dense_time_projection(m, samples, nodes, values)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(out[:, nodes], values)
        assert _axis.cache_info().hits == hits + (tuple(nodes) in seen)
        seen.add(tuple(nodes))
