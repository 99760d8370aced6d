import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gauss_points
from dualfem.errors import AssemblyError, InvalidArgumentError, SolverError
from dualfem.fem import (GAUSS_1D, LINE_N, QUAD_N, BlockLinearSystem,
                         FactoredSystem, apply_dirichlet, assemble_uniform,
                         boundary_load, factor, gradient_tables, q_dual_heat,
                         q_dual_wave, solve_linear, solve_system)
from dualfem.heat import heat_local_matrix
from dualfem.mesh import BOTTOM, LEFT, build_space_time_mesh

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
    A = assemble_uniform(one, local, n_fields=2).matrix.toarray()
    dofs = [0, 1, 3, 2, 4, 5, 7, 6]
    assert np.array_equal(A[np.ix_(dofs, dofs)], local)
    m = build_space_time_mesh(1.0, 1.0, 4, 1)
    system = assemble_uniform(m, np.eye(8), n_fields=2)
    conn = m.elements[3]
    dofs = [system.dof(f, n) for f in range(2) for n in conn]
    assert np.array_equal(dofs, [3, 4, 9, 8, 13, 14, 19, 18])


def element_loop(mesh, local_matrix, n_fields):
    """Dense element-by-element assembly with field-major local dofs."""
    n = mesh.n_nodes
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
    system = assemble_uniform(m, mass_local(m), n_fields=1)
    ones = np.ones(m.n_nodes)
    assert ones @ (system.matrix @ ones) == pytest.approx(2.0, rel=1e-13)


def test_assemble_uniform_matches_generic():
    # one field (mass) and two fields (heat, whose p and l blocks differ,
    # so the field-major dof layout is checked too)
    m = build_space_time_mesh(1.0, 1.0, 4, 3)
    for n_fields, local in ((1, mass_local(m)), (2, heat_local_matrix(m, 0.7))):
        fast = assemble_uniform(m, local, n_fields).matrix.toarray()
        ref = element_loop(m, local, n_fields)
        assert np.abs(fast - ref).max() <= 1e-15 * np.abs(ref).max()


def test_assembly_rejects_bad_kernel_output():
    m = build_space_time_mesh(1.0, 1.0, 2, 2)
    with pytest.raises(AssemblyError):
        assemble_uniform(m, np.zeros((5, 5)), n_fields=1)
    with pytest.raises(AssemblyError):
        assemble_uniform(m, np.full((4, 4), np.nan), n_fields=1)


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
    system = BlockLinearSystem(n_fields=1, n_nodes=4,
                               matrix=sp.eye(4, format="csr"),
                               rhs=np.zeros(4))
    system.constrain(0, [1], [2.0])
    system.constrain(0, [1], [2.0])      # identical re-prescription is fine
    with pytest.raises(InvalidArgumentError):
        system.constrain(0, [1], [3.0])


def test_dirichlet_recovery_bitwise():
    system = BlockLinearSystem(n_fields=1, n_nodes=3,
                               matrix=sp.csr_matrix(np.array(
                                   [[2.0, 1.0, 0.0],
                                    [1.0, 3.0, 1.0],
                                    [0.0, 1.0, 2.0]])),
                               rhs=np.array([1.0, 2.0, 3.0]))
    value = 0.1 + 0.2          # deliberately not exactly representable
    system.constrain(0, [0], [value])
    _, _, free, recover = apply_dirichlet(system)
    assert np.array_equal(free, [1, 2])
    full = recover(np.array([5.0, 6.0]))
    assert full[0] == value    # bitwise
    assert np.array_equal(full[1:], [5.0, 6.0])


def test_hand_solved_two_by_two():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = solve_linear(A, np.array([3.0, 5.0]))
    assert np.allclose(x, [0.8, 1.4], atol=1e-14)


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_solve_linear_rejects_singular():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        solve_linear(A, np.array([1.0, 0.0]))


def test_factor_of_singular_matrix_is_a_solver_error():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError, match="singular"):
        factor(A)


def test_solve_linear_rejects_factor_of_another_matrix():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    B = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 4.0]]))
    b = np.array([3.0, 5.0])
    assert np.allclose(solve_linear(A, b, 1e-8, factor(A)), [0.8, 1.4], atol=1e-14)
    with pytest.raises(SolverError, match="residual"):
        solve_linear(A, b, 1e-8, factor(B))


def test_factored_system_solves_any_rhs(rng):
    A = sp.csr_matrix(np.array([[4.0, -1.0, 0.0, 0.0],
                                [-1.0, 4.0, -1.0, 0.0],
                                [0.0, -1.0, 4.0, -1.0],
                                [0.0, 0.0, -1.0, 4.0]]))
    system = BlockLinearSystem(n_fields=1, n_nodes=4, matrix=A, rhs=np.zeros(4))
    system.constrain(0, [0, 3], [0.1 + 0.2, -2.0])
    factored = FactoredSystem(system)
    for _ in range(3):
        rhs = rng.standard_normal(4)
        system.rhs = rhs
        u = factored.solve(rhs)
        assert np.array_equal(u, solve_system(system))
        assert u[0] == 0.1 + 0.2 and u[3] == -2.0
        assert np.abs((A @ u)[1:3] - rhs[1:3]).max() < 1e-14


def test_solve_system_with_constraints():
    # -u'' = 0 style toy chain: u0 = 0, u2 = 1 -> u1 = 0.5
    A = sp.csr_matrix(np.array([[2.0, -1.0, 0.0],
                                [-1.0, 2.0, -1.0],
                                [0.0, -1.0, 2.0]]))
    system = BlockLinearSystem(n_fields=1, n_nodes=3, matrix=A, rhs=np.zeros(3))
    system.constrain(0, [0, 2], [0.0, 1.0])
    u = solve_system(system)
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
