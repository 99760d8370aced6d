import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfem.errors import (AssemblyError, InvalidArgumentError, SolverError)
from dualfem.fem import (BlockLinearSystem, FactoredSystem, apply_dirichlet,
                         assemble, assemble_uniform, boundary_load,
                         element_dofs, eval_shapes_line, eval_shapes_quad,
                         factor, gauss_rule,
                         q_dual_heat, q_dual_wave, shape_gradients_parent,
                         shape_values_quad, solve_linear, solve_system)
from dualfem.mesh import BOTTOM, LEFT, RIGHT, TOP, build_space_time_mesh

unit_interval = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(xi=unit_interval, eta=unit_interval)
def test_partition_of_unity(xi, eta):
    vals = shape_values_quad(xi, eta)
    assert abs(vals.sum() - 1.0) < 1e-13
    grads = shape_gradients_parent(xi, eta)
    assert np.all(np.abs(grads.sum(axis=0)) < 1e-13)


def test_shape_values_at_corners():
    corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    for a, (xi, eta) in enumerate(corners):
        vals = shape_values_quad(xi, eta)
        expect = np.zeros(4)
        expect[a] = 1.0
        assert np.allclose(vals, expect)


def test_gauss_rule_integrates_cubics_exactly():
    rule = gauss_rule(1)
    for p in range(4):
        num = sum(w * pt ** p for pt, w in zip(rule.points, rule.weights))
        exact = (1 - (-1) ** (p + 1)) / (p + 1)
        assert num == pytest.approx(exact, abs=1e-14)
    with pytest.raises(InvalidArgumentError):
        gauss_rule(3)


def test_physical_gradients_on_stretched_element():
    coords = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.25], [0.0, 0.25]])
    se = eval_shapes_quad(coords, (0.3, -0.2))
    # interpolate u = 2x + 3t: gradient must be (2, 3)
    u = 2 * coords[:, 0] + 3 * coords[:, 1]
    assert u @ se.grad_x == pytest.approx(2.0, abs=1e-13)
    assert u @ se.grad_t == pytest.approx(3.0, abs=1e-13)


def test_degenerate_element_rejected():
    # clockwise corner ordering gives a negative Jacobian determinant
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SolverError):
        eval_shapes_quad(coords, (0.0, 0.0))


def test_line_shapes():
    se = eval_shapes_line(0.25, 0.5)
    assert np.allclose(se.values, [0.25, 0.75])
    assert np.allclose(se.grad_x, [-4.0, 4.0])


def test_element_dofs_field_major():
    conn = np.array([3, 4, 9, 8])
    dofs = element_dofs(conn, n_fields=2, n_nodes=10)
    assert np.array_equal(dofs, [3, 4, 9, 8, 13, 14, 19, 18])


def mass_kernel(e, shapes, wdets):
    ke = np.zeros((4, 4))
    for se, wd in zip(shapes, wdets):
        ke += wd * np.outer(se.values, se.values)
    return ke


def test_assembled_mass_matrix_row_sums():
    # sum over all entries of the mass matrix equals the domain area
    m = build_space_time_mesh(2.0, 1.0, 5, 4)
    system = assemble(m, mass_kernel)
    ones = np.ones(m.n_nodes)
    assert ones @ (system.matrix @ ones) == pytest.approx(2.0, rel=1e-13)


def test_assembly_order_invariance(rng):
    m = build_space_time_mesh(1.0, 1.0, 4, 3)
    a = assemble(m, mass_kernel)
    order = rng.permutation(m.n_elements)
    b = assemble(m, mass_kernel, element_order=order)
    diff = (a.matrix - b.matrix).toarray()
    assert np.abs(diff).max() < 1e-14


def test_assemble_uniform_matches_generic():
    m = build_space_time_mesh(1.0, 1.0, 4, 3)
    generic = assemble(m, mass_kernel)
    rule = gauss_rule(2)
    coords = m.nodes[m.elements[0]]
    local = np.zeros((4, 4))
    for pt, w in zip(rule.points, rule.weights):
        se = eval_shapes_quad(coords, pt)
        local += w * 0.25 * m.hx * m.ht * np.outer(se.values, se.values)
    fast = assemble_uniform(m, local, n_fields=1)
    assert np.abs((generic.matrix - fast.matrix).toarray()).max() < 1e-15


def test_assembly_rejects_bad_kernel_output():
    m = build_space_time_mesh(1.0, 1.0, 2, 2)
    with pytest.raises(AssemblyError):
        assemble(m, lambda e, s, w: np.zeros((3, 3)))
    with pytest.raises(AssemblyError):
        assemble(m, lambda e, s, w: np.full((4, 4), np.nan))
    with pytest.raises(AssemblyError):
        assemble_uniform(m, np.zeros((5, 5)), n_fields=1)


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
