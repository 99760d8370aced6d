import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_order, dense, gauss_points, nodes_and_elements
from dualfem import cli, heat, transport
from dualfem.cli import make_initial
from dualfem.errors import AssemblyError, InvalidArgumentError, SolverError
from dualfem.fem import (GAUSS_1D, LINE_N, QUAD_N, BandCholesky, FactoredSystem, _band_axes,
                         apply_dirichlet, assemble_uniform, boundary_load, dtp,
                         gradient_tables, gram_matrix, pin, q_dual_heat, q_dual_wave,
                         solve_linear, solve_system)
from dualfem.heat import DIRICHLET_THETA, HeatProblem, assemble_heat
from dualfem.heat import dtp_table as heat_dtp_table
from dualfem.mesh import build_space_time_mesh
from dualfem.presets import get_preset
from dualfem.transport import TransportProblem, assemble_transport

STRETCHED = build_space_time_mesh(1.3, 0.6, 5, 4)      # hx = 0.26, ht = 0.15
ONE = build_space_time_mesh(1.0, 1.0, 1, 1)            # one element, four nodes


def test_partition_of_unity():
    N, gx, gt = gradient_tables(STRETCHED)
    assert N is QUAD_N
    assert np.abs(LINE_N.sum(axis=1) - 1.0).max() < 1e-15
    assert np.abs(QUAD_N.sum(axis=1) - 1.0).max() < 1e-15
    assert np.abs(gx.sum(axis=1)).max() < 1e-14
    assert np.abs(gt.sum(axis=1)).max() < 1e-14


def test_shape_values_at_corners():
    # points and nodes share the counter-clockwise corner order: each shape
    # peaks at the Gauss point next to its own corner and is smallest at
    # the opposite one
    near, far = 0.5 * (1 + GAUSS_1D), 0.5 * (1 - GAUSS_1D)
    assert np.abs(np.diag(QUAD_N) - near ** 2).max() < 1e-15
    assert np.abs(np.diag(QUAD_N[[2, 3, 0, 1]]) - far ** 2).max() < 1e-15


def test_gauss_rule_integrates_cubics_exactly():
    # two points +-GAUSS_1D with unit weights on [-1, 1]
    for p in range(4):
        num = (-GAUSS_1D) ** p + GAUSS_1D ** p
        exact = (1 - (-1) ** (p + 1)) / (p + 1)
        assert num == pytest.approx(exact, abs=1e-14)


def test_physical_gradients_on_stretched_element(rng):
    # the tables reproduce u = a + bx + ct + dxt and its gradient exactly at
    # the Gauss points of an hx != ht element
    a, b, c, d = rng.standard_normal(4)
    u = lambda x, t: a + b * x + c * t + d * x * t
    N, gx, gt = gradient_tables(STRETCHED)
    nodes, elements = nodes_and_elements(STRETCHED)
    nodal = u(nodes[:, 0], nodes[:, 1])[elements]
    pts = gauss_points(STRETCHED)
    x, t = pts[..., 0], pts[..., 1]
    assert np.abs(nodal @ N.T - u(x, t)).max() < 1e-14
    assert np.abs(nodal @ gx.T - (b + d * t)).max() < 1e-13
    assert np.abs(nodal @ gt.T - (c + d * x)).max() < 1e-13


def test_line_shapes():
    # interpolation of 1 and xi at the Gauss points of [-1, 1]
    assert np.abs(LINE_N @ [1.0, 1.0] - 1.0).max() < 1e-15
    assert np.abs(LINE_N @ [-1.0, 1.0] - [-GAUSS_1D, GAUSS_1D]).max() < 1e-15


def element_dofs(mesh, n_fields):
    """(n_elems, 4 n_fields) global dofs of every element's local dofs,
    field-major, through the reference connectivity."""
    elements = nodes_and_elements(mesh)[1]
    return np.hstack([f * mesh.n_nodes + elements for f in range(n_fields)])


def test_element_dofs_field_major():
    # local dof field * 4 + corner lands on global dof field * n_nodes + node
    one = build_space_time_mesh(1.0, 1.0, 1, 1)
    assert np.array_equal(element_dofs(one, 1)[0], [0, 1, 3, 2])
    local = np.arange(64.0).reshape(8, 8) + 1.0     # every entry distinct
    A = dense(assemble_uniform(one, local))
    dofs = [0, 1, 3, 2, 4, 5, 7, 6]
    assert np.array_equal(A[np.ix_(dofs, dofs)], local)
    # on four elements in a row (10 nodes) the right edge, local corners 1
    # and 2 of the last element, is nodes 4 and 9, dofs 4, 9, 14, 19
    m = build_space_time_mesh(1.0, 1.0, 4, 1)
    assert np.array_equal(element_dofs(m, 2)[3], [3, 4, 9, 8, 13, 14, 19, 18])
    A = dense(assemble_uniform(m, local))
    edge = [1, 2, 5, 6]
    assert np.array_equal(A[np.ix_([4, 9, 14, 19], [4, 9, 14, 19])],
                          local[np.ix_(edge, edge)])


def element_loop(mesh, local_matrix):
    """Dense element-by-element assembly with field-major local dofs."""
    n, n_fields = mesh.n_nodes, len(local_matrix) // 4
    A = np.zeros((n_fields * n, n_fields * n))
    for dofs in element_dofs(mesh, n_fields):
        A[np.ix_(dofs, dofs)] += local_matrix
    return A


def mass_local(mesh):
    return 0.25 * mesh.hx * mesh.ht * QUAD_N.T @ QUAD_N


def test_assembled_mass_matrix_row_sums():
    # sum over all entries of the mass matrix equals the domain area
    m = build_space_time_mesh(2.0, 1.0, 5, 4)
    M = assemble_uniform(m, mass_local(m))
    ones = np.ones(m.n_nodes)
    assert ones @ (M @ ones) == pytest.approx(2.0, rel=1e-13)


def test_assemble_uniform_matches_generic():
    # one field (mass) and two fields (heat, whose p and l blocks differ,
    # so the field-major dof layout is checked too)
    m = build_space_time_mesh(1.0, 1.0, 4, 3)
    for local in (mass_local(m), gram_matrix(m, heat_dtp_table(m, 0.7))):
        fast = dense(assemble_uniform(m, local))
        ref = element_loop(m, local)
        assert np.abs(fast - ref).max() <= 1e-15 * np.abs(ref).max()


def test_dtp_is_bitwise_the_per_problem_products(rng):
    # the corner-slice product against the gather of every element's dofs
    # through the reference connectivity, with both tables, at the sizes of
    # the transport-stages stage mesh and of heat-jump-large
    for size in ((2.16, 0.55, 216, 55), (1.0, 0.6, 200, 120)):
        m = build_space_time_mesh(*size)
        for table, n_comp in ((transport.dtp_table(m, 0.25), 1), (heat.dtp_table(m, 0.3), 2)):
            sol = rng.standard_normal(table.shape[-1] // 4 * m.n_nodes)
            gather = sol[element_dofs(m, table.shape[-1] // 4)] @ table.transpose(0, 2, 1)
            new = dtp(m, table, sol)
            assert new.shape == (n_comp, m.n_elements, 4)
            assert new.tobytes() == gather.tobytes()
        lam = sol[:m.n_nodes]
        assert transport.dtp_transport(m, lam, 0.25).tobytes() == \
            (lam[element_dofs(m, 1)] @ transport.dtp_table(m, 0.25)[0].T).tobytes()
        assert heat.dtp_heat(m, sol, 0.3).tobytes() == gather.tobytes()


def test_assembly_rejects_bad_kernel_output():
    m = build_space_time_mesh(1.0, 1.0, 2, 2)
    # the side must be four dofs per field
    for bad in (np.zeros((5, 5)), np.zeros((6, 6)), np.zeros((4, 8)),
                np.full((4, 4), np.nan)):
        with pytest.raises(AssemblyError):
            assemble_uniform(m, bad)


def test_boundary_load_constant():
    m = build_space_time_mesh(2.0, 1.5, 4, 3)
    load = boundary_load(m, ({0: lambda x: np.ones_like(x)}, {}))
    assert load.shape == (m.n_nodes,)
    # integral of each hat along the bottom: h at interior, h/2 at corners
    grid = load.reshape(m.nt + 1, m.nx + 1)
    assert load.sum() == pytest.approx(2.0, rel=1e-13)
    assert grid[0, 0] == pytest.approx(0.25)
    assert grid[0, 1] == pytest.approx(0.5)
    assert np.all(grid[1:] == 0.0)


def test_boundary_load_linear_exact():
    m = build_space_time_mesh(1.0, 2.0, 2, 4)
    grid = boundary_load(m, ({}, {0: lambda t: 3.0 * t})).reshape(m.nt + 1, m.nx + 1)
    # hat at node t=1.0 (h=0.5): integral 3t*N = 3 * t_node * h = 1.5
    assert grid[2, 0] == pytest.approx(1.5, rel=1e-13)
    assert np.all(grid[:, 1:] == 0.0)


def test_boundary_load_corner_sums_the_two_edge_integrals_bitwise():
    # two fields: the first loads a row and a column that meet at a corner,
    # the second one column; each line alone is its own edge integral.  With
    # these data, adding the column's Gauss terms one by one onto the
    # finished row integral rounds the corner differently
    m = STRETCHED
    row = np.cos
    col = lambda t: np.sqrt(t + 0.3)
    shape = (2, m.nt + 1, m.nx + 1)
    both = boundary_load(m, ({m.nt: row}, {m.nx: col}), ({}, {1: col})).reshape(shape)
    only_row = boundary_load(m, ({m.nt: row}, {})).reshape(m.nt + 1, m.nx + 1)
    only_col = boundary_load(m, ({}, {m.nx: col})).reshape(m.nt + 1, m.nx + 1)
    assert both[0, m.nt, m.nx] == only_row[m.nt, m.nx] + only_col[m.nt, m.nx]
    assert np.array_equal(both[0], only_row + only_col)
    assert np.array_equal(both[1, :, 1], only_col[:, m.nx])
    assert not np.delete(both[1], 1, axis=1).any()


def test_pin_marks_grid_lines_and_a_column_wins_where_they_meet():
    # two fields on a 3 x 4 grid: a row and a broadcast column of the first,
    # one column of the second
    mask, values = pin((3, 4), ({2: [1.0, 2.0, 3.0, 4.0]}, {0: -1.0}),
                       ({}, {3: [5.0, 6.0, 0.1 + 0.2]}))
    assert mask.dtype == bool and mask.shape == values.shape == (2, 3, 4)
    assert np.array_equal(mask[0], [[1, 0, 0, 0], [1, 0, 0, 0], [1, 1, 1, 1]])
    assert np.array_equal(values[0], [[-1, 0, 0, 0], [-1, 0, 0, 0], [-1, 2, 3, 4]])
    assert np.array_equal(mask[1], [[0, 0, 0, 1]] * 3)
    assert values[1, 2, 3] == 0.1 + 0.2                   # bitwise
    assert not values[~mask].any()


@pytest.mark.parametrize("rows, cols, line", [
    ({-1: 1.0}, {}, "row -1 out of range 0..2"),
    ({3: 1.0}, {}, "row 3 out of range 0..2"),
    ({}, {-1: 1.0}, "column -1 out of range 0..3"),
    ({}, {4: 1.0}, "column 4 out of range 0..3"),
    ({True: 1.0}, {}, "row True is not an integer line index"),
    ({1.5: 1.0}, {}, "row 1.5 is not an integer line index"),
    ({}, {np.False_: 1.0}, "column False is not an integer line index"),
    ({}, {2.0: 1.0}, "column 2.0 is not an integer line index"),
], ids=["negative-row", "row-past-the-end", "negative-column", "column-past-the-end",
        "bool-row", "fractional-row", "numpy-bool-column", "float-column"])
def test_line_indices_outside_the_grid_are_rejected(rows, cols, line):
    # the 3 x 4 node grid of nt = 2, nx = 3: a negative index would wrap to
    # the last line, and one past the end is no line at all; NumPy would
    # take a bool key as a mask over every line and fail a float key with
    # its own IndexError
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape('pinned ' + line)}$"):
        pin((3, 4), (rows, cols))
    m = build_space_time_mesh(0.9, 1.4, 3, 2)
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape('loaded ' + line)}$"):
        boundary_load(m, ({i: np.cos for i in rows}, {j: np.cos for j in cols}))


def dof_pins(A, dofs, values):
    """The (mask, values) pin set of single dofs of A, which grid lines
    cannot pin."""
    mask = np.zeros((A.n_fields, A.mesh.nt + 1, A.mesh.nx + 1), dtype=bool)
    grid = np.zeros(mask.shape)
    mask.flat[dofs] = True
    grid.flat[dofs] = values
    return mask, grid


def on_one_element(M):
    """The 4 x 4 matrix M as a uniform matrix on the one-element mesh: its
    local matrix is M in the element's corner order."""
    corners = element_dofs(ONE, 1)[0]
    return assemble_uniform(ONE, M[np.ix_(corners, corners)])


def dense_lower_band(M, order):
    """(n, kd + 1) lower band of the dense symmetric M in the numbering
    ``order``, band[j, k] = M[order[j + k], order[j]], kd its half-bandwidth
    there."""
    P = M[np.ix_(order, order)]
    i, j = np.nonzero(P)
    kd = int(np.abs(i - j).max(initial=0))
    return np.column_stack([np.pad(np.diagonal(P, -k), (0, k)) for k in range(kd + 1)])


def test_pin_of_nothing_leaves_every_dof_free():
    nothing = pin((2, 2), ({}, {}))
    assert not nothing[0].any() and not nothing[1].any()
    # every dof of a one-element dual, -(ones + identity), is solved for
    A = assemble_uniform(ONE, -(np.ones((4, 4)) + np.eye(4)))
    band = A.lower_band()
    lift = apply_dirichlet(A, nothing, band)
    assert np.array_equal(band, A.lower_band()) and np.array_equal(lift, np.zeros(4))
    with pytest.raises(InvalidArgumentError, match=r"shape \(2, 2, 2\), expected \(1, 2, 2\)"):
        apply_dirichlet(A, pin((2, 2), ({}, {}), ({}, {})), band)
    x = solve_system(A, -np.array([11.0, 12.0, 13.0, 14.0]), nothing)
    assert np.allclose(x, [1.0, 2.0, 3.0, 4.0], atol=1e-14)


def test_hand_solved_two_by_two():
    # two hand-solved 2 x 2 systems, on dofs (0, 2) and (1, 3) of a 2 x 2
    # grid; the transposed grid numbers them 0, 2, 1, 3, so that each pair
    # is adjacent and the band of -A has half-bandwidth 1
    A = -np.array([[2.0, 0.0, 1.0, 0.0],
                   [0.0, 2.0, 0.0, 1.0],
                   [1.0, 0.0, 3.0, 0.0],
                   [0.0, 1.0, 0.0, 3.0]])
    band = dense_lower_band(-A, [0, 2, 1, 3])
    assert band.shape == (4, 2)
    x = solve_linear(A, -np.array([3.0, 4.0, 5.0, 7.0]), BandCholesky(band, (2, 2), (1, 0)))
    assert np.allclose(x, [0.8, 1.0, 1.4, 2.0], atol=1e-14)


def test_solve_linear_rejects_singular():
    # a factorization that breaks down gives non-finite values
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    breakdown = SimpleNamespace(solve=lambda b: b / np.zeros_like(b))
    with pytest.raises(SolverError, match="singular"):
        solve_linear(A, np.array([1.0, 0.0]), breakdown)


def test_factor_of_singular_matrix_is_a_solver_error():
    # -A is singular: its second pivot is 1 - 1 * 1 = 0
    neg = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolverError, match="pivot 2 of 2"):
        BandCholesky(dense_lower_band(neg, np.arange(2)), (2,), (0,))


def test_solve_linear_rejects_factor_of_another_matrix():
    A = -np.array([[2.0, 1.0], [1.0, 3.0]])
    B = -np.array([[2.0, 1.0], [1.0, 4.0]])
    b = -np.array([3.0, 5.0])
    lu_A, lu_B = (BandCholesky(dense_lower_band(-M, np.arange(2)), (2,), (0,)) for M in (A, B))
    assert np.allclose(solve_linear(A, b, lu_A), [0.8, 1.4], atol=1e-14)
    with pytest.raises(SolverError, match="residual"):
        solve_linear(A, b, lu_B)


def transport_stage_dual(nt):
    """(matrix, load, pinned, mesh) of a transport-stages stage at nt element
    rows, with the workload's step datum."""
    step = make_initial({"type": "step", "x_jump": 0.2, "lo": 2.0, "hi": 4.0})
    problem = TransportProblem(c=0.25, L=2.16, T_total=5.0, u0=step,
                               u_left=lambda t: np.full_like(t, 2.0))
    mesh = build_space_time_mesh(2.16, 0.55, 216, nt)
    matrix, pinned = assemble_transport(problem, mesh)
    return matrix, transport.transport_load(problem, mesh, step), pinned, mesh


def heat_dual(T, nx, nt):
    """(matrix, load, pinned, mesh) of the heat smoothed jump (beta = 10,
    theta = 10 at both ends, zero dual traces) on (0, 1) x (0, T)."""
    ten = lambda t: np.full_like(t, 10.0)
    problem = HeatProblem(k=0.1, L=1.0, T=T, right_mode=DIRICHLET_THETA,
                          theta0=make_initial({"type": "smoothed_jump", "beta": 10.0,
                                               "eps": 0.01}),
                          theta_left=ten, theta_right=ten)
    mesh = build_space_time_mesh(1.0, T, nx, nt)
    return (*assemble_heat(problem, mesh), mesh)


def hand_dual():
    """(matrix, load, pinned, mesh) of a negative definite 4 x 4 matrix on the
    one-element mesh, whose dof 0 is pinned to 0.1 + 0.2, a value that is
    not exactly representable."""
    A = on_one_element(-np.array([[2.0, 1.0, 0.0, 0.0],
                                  [1.0, 3.0, 1.0, 0.0],
                                  [0.0, 1.0, 2.0, 1.0],
                                  [0.0, 0.0, 1.0, 3.0]]))
    return A, np.array([1.0, 5.0, 6.0, 7.0]), dof_pins(A, [0], [0.1 + 0.2]), ONE


def steady_gauge_dual(nx, nt):
    """(matrix, load, pinned, mesh) of heat-steady-gauge on an nx-by-nt mesh:
    a 2-field heat dual whose steady-family dual traces are not zero."""
    cfg = {**get_preset("heat-steady-gauge"), "nx": nx, "nt": nt}
    problem, mesh = cli.build_heat_problem(cli._read(cfg, cli.KEYS["heat"], "heat"))
    return (*assemble_heat(problem, mesh), mesh)


def csr_reference(A):
    """A uniform matrix assembled the sparse way: one COO entry per element
    and local pair, duplicates summed by the conversion to CSR."""
    edofs = element_dofs(A.mesh, A.n_fields)
    ndof_e = edofs.shape[1]
    rows = np.repeat(edofs, ndof_e, axis=1).ravel()
    cols = np.tile(edofs, (1, ndof_e)).ravel()
    data = np.tile(A.local.ravel(), A.mesh.n_elements)
    return sp.coo_matrix((data, (rows, cols)), shape=A.shape).tocsr()


def csr_band(C, order):
    """The lower band of -C for a symmetric CSR matrix C in the numbering
    ``order`` (position -> dof): every stored (row, col) pair permuted once,
    an entry and its mirror landing on the same slot."""
    C = C[order][:, order]
    r = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
    c = C.indices
    off = np.abs(r - c)
    kd = int(off.max(initial=0))
    band = np.zeros((C.shape[0], kd + 1))
    band.ravel()[np.minimum(r, c) * (kd + 1) + off] = -C.data
    return band


STENCIL_CASES = {
    "transport-stages": lambda: transport_stage_dual(55)[0],
    "transport-4-rows": lambda: transport_stage_dual(4)[0],
    "heat-2-field": lambda: heat_dual(0.125, 40, 6)[0],
    "nt-over-nx": lambda: heat_dual(0.6, 3, 8)[0],
    "one-element": lambda: steady_gauge_dual(1, 1)[0],
}


@pytest.mark.parametrize("case", STENCIL_CASES)
def test_stencil_band_matches_csr_band(case):
    # the band written from the local matrix is the band of the CSR matrix
    # assembled element by element, in the band order, to the rounding
    # of the order in which each entry sums its elements
    A = STENCIL_CASES[case]()
    band = A.lower_band()
    ref = csr_band(csr_reference(A), band_order(A.mesh, A.n_fields))
    assert band.shape == ref.shape and np.array_equal(band == 0, ref == 0)
    assert np.abs(band - ref).max() <= 1e-15 * np.abs(ref).max()
    s = min(A.mesh.nx, A.mesh.nt) + 1
    assert band.shape[1] - 1 == (s + 2) * A.n_fields - 1
    assert A.nnz == csr_reference(A).nnz


@pytest.mark.parametrize("case", ["transport-4-rows", "heat-2-field", "nt-over-nx",
                                  "one-element"])
def test_stencil_matmul_matches_dense(case, rng):
    # A @ x against the dense element loop, and with pinned dofs against the
    # dense matrix whose pinned rows and columns are those of -I
    A = STENCIL_CASES[case]()
    ref = element_loop(A.mesh, A.local)
    # each band entry sums its elements in element order, as the loop does
    assert np.array_equal(A.lower_band(),
                          dense_lower_band(-ref, band_order(A.mesh, A.n_fields)))
    x = rng.standard_normal(A.shape[0])
    assert np.abs(A @ x - ref @ x).max() <= 1e-14 * np.abs(ref).sum(axis=1).max()
    pinned = np.unique(rng.integers(0, A.shape[0], size=A.shape[0] // 3))
    ref[pinned] = 0.0
    ref[:, pinned] = 0.0
    ref[pinned, pinned] = -1.0
    got = replace(A, pinned=dof_pins(A, pinned, 0.0)[0]) @ x
    assert np.abs(got - ref @ x).max() <= 1e-14 * np.abs(ref).sum(axis=1).max()
    assert np.array_equal(got[pinned], -x[pinned])


@pytest.mark.parametrize("dual", [hand_dual, lambda: steady_gauge_dual(10, 11),
                                  lambda: transport_stage_dual(4)],
                         ids=["hand-4x4", "heat-steady-gauge", "transport-stages"])
def test_factored_solve_matches_dense_free_block_solve(dual):
    # the pinned dofs are identity lines of the factored band, and the lift
    # is the dense -A[free, pinned] @ values; the solution matches a dense
    # solve of the free block and gives back the pinned values bitwise
    A, load, pins, mesh = dual()
    cdofs, free = np.flatnonzero(pins[0]), np.flatnonzero(~pins[0])
    cvals = pins[1].ravel()[cdofs]
    M = element_loop(mesh, A.local)
    band = A.lower_band()
    lift = apply_dirichlet(A, pins, band)
    pinned = M.copy()
    pinned[cdofs] = pinned[:, cdofs] = 0.0
    pinned[cdofs, cdofs] = -1.0
    ref = dense_lower_band(-pinned, band_order(mesh, A.n_fields))
    assert np.array_equal(band[:, :ref.shape[1]], ref)
    assert not band[:, ref.shape[1]:].any()
    want = -(M[np.ix_(free, cdofs)] @ cvals)
    assert np.abs(lift[free] - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)
    assert np.any(lift != 0) == np.any(cvals != 0)      # transport pins zeros
    if dual is hand_dual:
        assert np.array_equal(free, [1, 2, 3])
        assert np.array_equal(lift[free], [0.1 + 0.2, 0.0, 0.0])
    x = FactoredSystem(A, pins).solve(load)
    ref = np.linalg.solve(M[np.ix_(free, free)], load[free] + want)
    assert np.abs(x[free] - ref).max() <= 1e-10 * np.abs(ref).max()
    assert x[cdofs].tobytes() == cvals.tobytes()


@pytest.mark.parametrize("dual, kd", [(lambda: transport_stage_dual(55), 57),
                                      (lambda: heat_dual(0.125, 200, 25), 55),
                                      (lambda: heat_dual(0.25, 200, 50), 105),
                                      (lambda: heat_dual(0.6, 200, 120), 245),
                                      (lambda: transport_stage_dual(80), 82)],
                         ids=["transport-stages", "heat-smoothed-jump-beta10", "heat-jump",
                              "heat-jump-large", "transport-nt80"])
def test_band_and_superlu_solves_agree(dual, kd):
    # on the loads the runs solve, against SuperLU's pivoting factorization
    # of the free block of the CSR matrix; the pinned values are 0, so the
    # reduced right-hand side is the load's free part.  The band holds the
    # pinned dofs too, so kd is (s + 2) n_fields - 1 with s the nodes across
    # the short axis
    A, load, pinned, mesh = dual()
    system = FactoredSystem(A, pinned)
    assert system.lu.band.shape[0] - 1 == kd
    assert np.all(pinned[1] == 0.0)
    free = np.flatnonzero(~pinned[0])
    x = system.solve(load)
    C = csr_reference(A)
    ref = splu(C[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
               options={"SymmetricMode": True}).solve(load[free])
    assert np.linalg.norm((C @ x - load)[free]) <= 1e-12 * np.linalg.norm(load[free])
    assert np.linalg.norm(x[free] - ref) <= 1e-10 * np.linalg.norm(ref)


def test_factor_memory_peak_is_near_the_band():
    # assembling, pinning and factoring the transport-stages stage dual
    # allocates little beyond the band itself, which dpbtrf factors in place
    tracemalloc.start()
    try:
        A, _, pinned, mesh = transport_stage_dual(55)
        system = FactoredSystem(A, pinned)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * system.lu.band.nbytes


@pytest.mark.parametrize("n_fields", [1, 2])
@pytest.mark.parametrize("nx, nt", [(7, 3), (3, 7)])
def test_band_order_half_bandwidth(nx, nt, n_fields):
    # every element couples all its dofs; with s = 4 nodes across the short
    # axis the band order gives half-bandwidth (s + 2) n_fields - 1, the band
    # that lower_band writes.  Each element matrix is -(ones + identity), so
    # -A is positive definite
    m = build_space_time_mesh(1.0, 1.0, nx, nt)
    ndof_e = 4 * n_fields
    A = assemble_uniform(m, -(np.ones((ndof_e, ndof_e)) + np.eye(ndof_e)))
    order = band_order(m, n_fields)
    i, j = np.nonzero(dense(A)[np.ix_(order, order)])
    lu = BandCholesky(A.lower_band(), (n_fields, nt + 1, nx + 1), _band_axes(m)[-1])
    assert lu.band.shape[0] - 1 == np.abs(i - j).max() == 6 * n_fields - 1


def test_band_route_rejects_a_matrix_whose_negative_is_not_definite():
    # -A is the 1-D Laplacian with its 31st diagonal entry negated: the
    # leading minors of -A are positive up to order 30 and not at 31
    n = 50
    neg = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    neg[30, 30] = -2.0
    with pytest.raises(SolverError, match="pivot 31 of 50"):
        BandCholesky(dense_lower_band(neg, np.arange(n)), (n,), (0,))


def test_factored_system_solves_any_rhs(rng):
    M = -np.array([[4.0, -1.0, 0.0, 0.0],
                   [-1.0, 4.0, -1.0, 0.0],
                   [0.0, -1.0, 4.0, -1.0],
                   [0.0, 0.0, -1.0, 4.0]])
    A = on_one_element(M)
    pinned = dof_pins(A, [0, 3], [0.1 + 0.2, -2.0])
    factored = FactoredSystem(A, pinned)
    for _ in range(3):
        rhs = rng.standard_normal(4)
        u = factored.solve(rhs)
        assert np.array_equal(u, solve_system(A, rhs, pinned))
        assert u[0] == 0.1 + 0.2 and u[3] == -2.0
        assert np.abs((M @ u)[1:3] - rhs[1:3]).max() < 1e-14


def test_solve_system_with_constraints():
    # u'' = 0 style toy chain: u0 = 0, u3 = 1 -> u1 = 1/3, u2 = 2/3
    A = on_one_element(-np.array([[2.0, -1.0, 0.0, 0.0],
                                  [-1.0, 2.0, -1.0, 0.0],
                                  [0.0, -1.0, 2.0, -1.0],
                                  [0.0, 0.0, -1.0, 2.0]]))
    u = solve_system(A, np.zeros(4), dof_pins(A, [0, 3], [0.0, 1.0]))
    assert np.allclose(u, [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_q_forms_nonnegative(seed):
    r = np.random.default_rng(seed)
    F = r.standard_normal((64, 2, 2)) * 5
    g = r.standard_normal((64, 2)) * 5
    assert np.all(q_dual_heat(F, 0.3) >= 0.0)
    assert np.all(q_dual_wave(g, 2.0) >= 0.0)


def test_q_forms_vanish_on_degenerate_directions(rng):
    a = rng.standard_normal(100)
    # rank-one direction (a, 0) x (0, 1): only the p row's t-component
    F = np.zeros((100, 2, 2))
    F[:, 0, 1] = a
    assert np.all(q_dual_heat(F, 0.7) == 0.0)
    c = 0.25
    g = np.stack([a, -c * a], axis=1)
    assert np.all(q_dual_wave(g, c) == 0.0)


def test_q_dual_heat_value():
    F = np.array([[1.0, 2.0], [3.0, 4.0]])
    # (d_x p + d_t l)^2 + k^2 (d_x l)^2 with F rows (grad p, grad l)
    assert q_dual_heat(F, 2.0) == pytest.approx((1 + 4) ** 2 + 4 * 9)
    assert q_dual_wave(np.array([1.0, 2.0]), 3.0) == pytest.approx(25.0)
