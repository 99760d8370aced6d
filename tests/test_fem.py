from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gauss_points
from dualfem import heat, transport
from dualfem.errors import AssemblyError, InvalidArgumentError, SolverError
from dualfem.fem import (GAUSS_1D, LINE_N, QUAD_N, FactoredSystem,
                         apply_dirichlet, assemble_uniform, boundary_load, dtp,
                         element_dofs, factor, gradient_tables, gram_matrix, pin,
                         q_dual_heat, q_dual_wave, solve_linear, solve_system)
from dualfem.heat import dtp_table as heat_dtp_table
from dualfem.mesh import BOTTOM, LEFT, build_space_time_mesh
from dualfem.transport import TransportProblem, assemble_transport

STRETCHED = build_space_time_mesh(1.3, 0.6, 5, 4)      # hx = 0.26, ht = 0.15


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
    nodal = u(STRETCHED.nodes[:, 0], STRETCHED.nodes[:, 1])[STRETCHED.elements]
    pts = gauss_points(STRETCHED)
    x, t = pts[..., 0], pts[..., 1]
    assert np.abs(nodal @ N.T - u(x, t)).max() < 1e-14
    assert np.abs(nodal @ gx.T - (b + d * t)).max() < 1e-13
    assert np.abs(nodal @ gt.T - (c + d * x)).max() < 1e-13


def test_line_shapes():
    # interpolation of 1 and xi at the Gauss points of [-1, 1]
    assert np.abs(LINE_N @ [1.0, 1.0] - 1.0).max() < 1e-15
    assert np.abs(LINE_N @ [-1.0, 1.0] - [-GAUSS_1D, GAUSS_1D]).max() < 1e-15


def test_element_dofs_field_major():
    # local dof field * 4 + corner lands on global dof field * n_nodes + node
    one = build_space_time_mesh(1.0, 1.0, 1, 1)
    assert np.array_equal(one.elements[0], [0, 1, 3, 2])
    local = np.arange(64.0).reshape(8, 8) + 1.0     # every entry distinct
    A = assemble_uniform(one, local).toarray()
    dofs = [0, 1, 3, 2, 4, 5, 7, 6]
    assert np.array_equal(A[np.ix_(dofs, dofs)], local)
    # on four elements in a row (10 nodes) the right edge, local corners 1
    # and 2 of the last element, is nodes 4 and 9, dofs 4, 9, 14, 19
    m = build_space_time_mesh(1.0, 1.0, 4, 1)
    assert np.array_equal(m.elements[3], [3, 4, 9, 8])
    A = assemble_uniform(m, local).toarray()
    edge = [1, 2, 5, 6]
    assert np.array_equal(A[np.ix_([4, 9, 14, 19], [4, 9, 14, 19])],
                          local[np.ix_(edge, edge)])
    # the same layout is the index that fem.dtp gathers with
    assert np.array_equal(element_dofs(m, 2)[3], [3, 4, 9, 8, 13, 14, 19, 18])
    assert np.array_equal(element_dofs(m, 1), m.elements)


def element_loop(mesh, local_matrix):
    """Dense element-by-element assembly with field-major local dofs."""
    n, n_fields = mesh.n_nodes, len(local_matrix) // 4
    A = np.zeros((n_fields * n, n_fields * n))
    for conn in mesh.elements:
        dofs = np.concatenate([f * n + conn for f in range(n_fields)])
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
        fast = assemble_uniform(m, local).toarray()
        ref = element_loop(m, local)
        assert np.abs(fast - ref).max() <= 1e-15 * np.abs(ref).max()


def test_dtp_is_bitwise_the_per_problem_products(rng):
    # the products heat and transport used to write out, at the sizes of the
    # transport-stages stage mesh and of heat-jump-large
    m = build_space_time_mesh(2.16, 0.55, 216, 55)
    table = transport.dtp_table(m, 0.25)
    lam = rng.standard_normal(m.n_nodes)
    old = lam[m.elements] @ table[0].T
    new = dtp(m, table, lam)
    assert new.shape == (1, m.n_elements, 4) and new[0].tobytes() == old.tobytes()
    assert transport.dtp_transport(m, lam, 0.25).tobytes() == old.tobytes()

    m = build_space_time_mesh(1.0, 0.6, 200, 120)
    table = heat.dtp_table(m, 0.3)
    p, l = rng.standard_normal((2, m.n_nodes))
    old = np.hstack([p[m.elements], l[m.elements]]) @ table.transpose(0, 2, 1)
    new = dtp(m, table, np.concatenate([p, l]))
    assert new.shape == (2, m.n_elements, 4) and new.tobytes() == old.tobytes()
    assert heat.dtp_heat(m, np.concatenate([p, l]), 0.3).tobytes() == old.tobytes()


def test_assembly_rejects_bad_kernel_output():
    m = build_space_time_mesh(1.0, 1.0, 2, 2)
    # the side must be four dofs per field
    for bad in (np.zeros((5, 5)), np.zeros((6, 6)), np.zeros((4, 8)),
                np.full((4, 4), np.nan)):
        with pytest.raises(AssemblyError):
            assemble_uniform(m, bad)


def test_boundary_load_constant():
    m = build_space_time_mesh(2.0, 1.5, 4, 3)
    load = boundary_load(m, BOTTOM, lambda x: np.ones_like(x))
    # integral of each hat along the bottom: h at interior, h/2 at corners
    bn = m.boundary_nodes(BOTTOM)
    assert load.sum() == pytest.approx(2.0, rel=1e-13)
    assert load[bn[0]] == pytest.approx(0.25)
    assert load[bn[1]] == pytest.approx(0.5)
    off_edge = np.setdiff1d(np.arange(m.n_nodes), bn)
    assert np.all(load[off_edge] == 0.0)


def test_boundary_load_linear_exact():
    m = build_space_time_mesh(1.0, 2.0, 2, 4)
    load = boundary_load(m, LEFT, lambda t: 3.0 * t)
    # hat at node t=1.0 (h=0.5): integral 3t*N = 3 * t_node * h = 1.5
    bn = m.boundary_nodes(LEFT)
    assert load[bn[2]] == pytest.approx(1.5, rel=1e-13)


def test_constrain_conflicts_rejected():
    dofs, values = pin(([1], [2.0]), ([1, 3], [2.0, 5.0]))    # identical re-prescription is fine
    assert np.array_equal(dofs, [1, 3]) and np.array_equal(values, [2.0, 5.0])
    with pytest.raises(InvalidArgumentError, match="dof 7"):
        pin(([0, 7], [2.0, 1.0]), ([7], [3.0]))


def test_pin_sorts_and_keeps_the_last_value():
    dofs, values = pin(([5, 1], 0.3), ([1], [0.1 + 0.2]), (np.arange(1), -1.0))
    assert dofs.dtype == np.int64 and np.array_equal(dofs, [0, 1, 5])
    assert values[1] == 0.1 + 0.2 and values[1] != 0.3    # bitwise, the last one
    assert np.array_equal(values[[0, 2]], [-1.0, 0.3])


def test_pin_of_nothing_leaves_every_dof_free():
    dofs, values = pin()
    assert dofs.shape == values.shape == (0,)
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    A_ff, lift, free, _ = apply_dirichlet(A, pin())
    assert np.array_equal(A_ff.toarray(), A.toarray())
    assert np.array_equal(lift, [0.0, 0.0]) and np.array_equal(free, [0, 1])
    assert np.allclose(solve_system(A, np.array([3.0, 5.0]), pin()), [0.8, 1.4], atol=1e-14)


def test_dirichlet_recovery_bitwise():
    A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                [1.0, 3.0, 1.0],
                                [0.0, 1.0, 2.0]]))
    value = 0.1 + 0.2          # deliberately not exactly representable
    _, lift, free, recover = apply_dirichlet(A, pin(([0], [value])))
    assert np.array_equal(free, [1, 2])
    assert np.array_equal(lift, [-value, 0.0])
    full = recover(np.array([5.0, 6.0]))
    assert full[0] == value    # bitwise
    assert np.array_equal(full[1:], [5.0, 6.0])


def test_hand_solved_two_by_two():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = solve_linear(A, np.array([3.0, 5.0]), factor(A))
    assert np.allclose(x, [0.8, 1.4], atol=1e-14)


def test_solve_linear_rejects_singular():
    # a factorization that breaks down gives non-finite values
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    breakdown = SimpleNamespace(solve=lambda b: b / np.zeros_like(b))
    with pytest.raises(SolverError, match="singular"):
        solve_linear(A, np.array([1.0, 0.0]), breakdown)


def test_factor_of_singular_matrix_is_a_solver_error():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError, match="singular"):
        factor(A)


def test_solve_linear_rejects_factor_of_another_matrix():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    B = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 4.0]]))
    b = np.array([3.0, 5.0])
    assert np.allclose(solve_linear(A, b, factor(A)), [0.8, 1.4], atol=1e-14)
    with pytest.raises(SolverError, match="residual"):
        solve_linear(A, b, factor(B))


def test_factor_fills_less_than_default_ordering():
    # the minimum-degree symmetric factor of a transport dual keeps L + U
    # well below SuperLU's default (COLAMD, partial pivoting)
    problem = TransportProblem(c=0.25, L=2.0, T_total=1.0, u0=np.ones_like,
                               u_left=np.ones_like)
    mesh = build_space_time_mesh(2.0, 0.55, 100, 30)
    A = FactoredSystem(*assemble_transport(problem, mesh)).matrix
    lu, default = factor(A), splu(sp.csc_matrix(A))
    assert lu.L.nnz + lu.U.nnz <= 0.8 * (default.L.nnz + default.U.nnz)


def test_factor_pivots_on_a_tiny_diagonal(rng):
    # symmetric indefinite, with every diagonal entry 1e-10: a factor that
    # always took the diagonal pivot would lose about ten digits here
    B = rng.standard_normal((60, 60)) * (rng.random((60, 60)) < 0.08)
    S = B + B.T
    np.fill_diagonal(S, 1e-10)
    A = sp.csr_matrix(S)
    b = rng.standard_normal(60)
    x = solve_linear(A, b, factor(A))
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_factored_system_solves_any_rhs(rng):
    A = sp.csr_matrix(np.array([[4.0, -1.0, 0.0, 0.0],
                                [-1.0, 4.0, -1.0, 0.0],
                                [0.0, -1.0, 4.0, -1.0],
                                [0.0, 0.0, -1.0, 4.0]]))
    pinned = pin(([0, 3], [0.1 + 0.2, -2.0]))
    factored = FactoredSystem(A, pinned)
    for _ in range(3):
        rhs = rng.standard_normal(4)
        u = factored.solve(rhs)
        assert np.array_equal(u, solve_system(A, rhs, pinned))
        assert u[0] == 0.1 + 0.2 and u[3] == -2.0
        assert np.abs((A @ u)[1:3] - rhs[1:3]).max() < 1e-14


def test_solve_system_with_constraints():
    # -u'' = 0 style toy chain: u0 = 0, u2 = 1 -> u1 = 0.5
    A = sp.csr_matrix(np.array([[2.0, -1.0, 0.0],
                                [-1.0, 2.0, -1.0],
                                [0.0, -1.0, 2.0]]))
    u = solve_system(A, np.zeros(3), pin(([0, 2], [0.0, 1.0])))
    assert np.allclose(u, [0.0, 0.5, 1.0], atol=1e-14)


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
