import numpy as np
import pytest

from conftest import gauss_legendre_integrate_2d, gauss_points, nodes_and_elements
from dualfem import heat as hm
from dualfem.errors import InvalidArgumentError
from dualfem.fem import gram_matrix
from dualfem.mesh import LEFT, RIGHT, build_space_time_mesh
from dualfem.projection import l2_project
from dualfem.oracles import heat_steady, heat_transient


def const(v):
    return lambda s: np.full_like(np.asarray(s, dtype=float), float(v))


ZERO = const(0.0)


def steady_problem(**dual_bc):
    bc = dict(l_left=ZERO, l_top=ZERO, p_right=ZERO, l_right=ZERO)
    bc.update(dual_bc)
    return hm.HeatProblem(
        k=1.0, L=1.0, T=1.1,
        theta0=lambda x: 3.0 * np.asarray(x, dtype=float) + 1.0,
        theta_left=const(1.0),
        right_mode=hm.DIRICHLET_THETA,
        pi_right=ZERO, theta_right=const(4.0), **bc)


def transient_problem(**dual_bc):
    return hm.HeatProblem(
        k=0.2, L=1.0, T=1.1,
        theta0=lambda x: np.sin(0.5 * np.pi * np.asarray(x, dtype=float)) + 1.0,
        theta_left=const(1.0),
        right_mode=hm.NEUMANN_PI,
        pi_right=ZERO, **dual_bc)


def shape_interp(coords, nodal):
    """Bilinear interpolant of nodal values as a function of (x, t)."""
    x0, t0 = coords[0]
    hx = coords[1, 0] - coords[0, 0]
    ht = coords[3, 1] - coords[0, 1]

    def f(x, t):
        xi = 2 * (x - x0) / hx - 1
        eta = 2 * (t - t0) / ht - 1
        N = 0.25 * np.array([(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                             (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)])
        return N @ nodal
    return f


def test_local_matrix_against_independent_integration():
    # all four blocks of the DtP table's negative Gram matrix checked
    # against high-order quadrature of the printed integrands on a single
    # stretched element
    m = build_space_time_mesh(0.4, 0.6, 1, 1)
    k = 0.7
    K = gram_matrix(m, hm.dtp_table(m, k))
    nodes, elements = nodes_and_elements(m)
    coords = nodes[elements[0]]
    eps = 1e-6

    def shapes(a):
        nodal = np.zeros(4)
        nodal[a] = 1.0
        f = shape_interp(coords, nodal)
        fx = lambda x, t: (f(x + eps, t) - f(x - eps, t)) / (2 * eps)
        ft = lambda x, t: (f(x, t + eps) - f(x, t - eps)) / (2 * eps)
        return f, fx, ft

    for a in range(4):
        Na, dxa, dta = shapes(a)
        for b in range(4):
            Nb, dxb, dtb = shapes(b)
            k11 = gauss_legendre_integrate_2d(
                lambda x, t: -dxa(x, t) * dxb(x, t) - Na(x, t) * Nb(x, t),
                0, 0.4, 0, 0.6)
            k12 = gauss_legendre_integrate_2d(
                lambda x, t: -dxa(x, t) * dtb(x, t) + k * Na(x, t) * dxb(x, t),
                0, 0.4, 0, 0.6)
            k21 = gauss_legendre_integrate_2d(
                lambda x, t: -dta(x, t) * dxb(x, t) + k * dxa(x, t) * Nb(x, t),
                0, 0.4, 0, 0.6)
            k22 = gauss_legendre_integrate_2d(
                lambda x, t: -dta(x, t) * dtb(x, t) - k ** 2 * dxa(x, t) * dxb(x, t),
                0, 0.4, 0, 0.6)
            assert K[a, b] == pytest.approx(k11, abs=2e-9)
            assert K[a, 4 + b] == pytest.approx(k12, abs=2e-9)
            assert K[4 + a, b] == pytest.approx(k21, abs=2e-9)
            assert K[4 + a, 4 + b] == pytest.approx(k22, abs=2e-9)


def test_dual_matrix_is_the_negative_gram_matrix_of_the_recovery(rng):
    # u^T K v = -(hx ht / 4) sum over Gauss points of DtP(u) . DtP(v) for
    # independent dual vectors: assembly and recovery are one map
    m = build_space_time_mesh(1.3, 0.6, 5, 4)      # hx = 0.26, ht = 0.15
    prob = hm.HeatProblem(k=0.7, L=1.3, T=0.6, theta0=ZERO, theta_left=ZERO)
    K, _, _ = hm.assemble_heat(prob, m)
    u, v = rng.standard_normal((2, 2 * m.n_nodes))
    products = 0.25 * m.hx * m.ht * hm.dtp_heat(m, u, prob.k) * hm.dtp_heat(m, v, prob.k)
    assert u @ (K @ v) == pytest.approx(-products.sum(), abs=1e-14 * np.abs(products).sum())


def test_zero_data_gives_zero_rhs():
    prob = hm.HeatProblem(k=1.0, L=1.0, T=1.0, theta0=ZERO, theta_left=ZERO,
                          right_mode=hm.NEUMANN_PI, pi_right=ZERO)
    m = build_space_time_mesh(1.0, 1.0, 3, 3)
    _, rhs, _ = hm.assemble_heat(prob, m)
    assert np.all(rhs == 0.0)


def test_dirichlet_right_rhs_carries_negative_theta_r_term():
    prob = steady_problem()
    m = build_space_time_mesh(1.0, 1.1, 4, 4)
    _, rhs, _ = hm.assemble_heat(prob, m)
    n = m.n_nodes
    right = m.boundary_nodes(RIGHT)
    left = m.boundary_nodes(LEFT)
    # p-block rhs at interior right nodes: -integral N * 4 = -4 * ht
    assert rhs[right[1]] == pytest.approx(-4.0 * m.ht, rel=1e-13)
    # and + theta_l = +1 weighting on the left
    assert rhs[left[1]] == pytest.approx(1.0 * m.ht, rel=1e-13)
    # l-block rhs at an interior bottom node: integral N * theta0
    theta0 = lambda x: 3.0 * x + 1.0
    i = 2
    x_i = m.x_coords()[i]
    expect = theta0(x_i) * m.hx           # exact for linear data on uniform hats
    assert rhs[n + i] == pytest.approx(expect, rel=1e-13)


def lines(m, row=None, cols=()):
    """(nt + 1, nx + 1) mask of one time row and some space columns."""
    mask = np.zeros((m.nt + 1, m.nx + 1), dtype=bool)
    if row is not None:
        mask[row] = True
    mask[:, list(cols)] = True
    return mask


def test_constraint_layout_per_mode():
    m = build_space_time_mesh(1.0, 1.1, 3, 3)
    # dirichlet_theta mode pins l on the left, top and right lines; p is free
    (p, l), _ = hm.assemble_heat(steady_problem(), m)[2]
    assert not p.any() and np.array_equal(l, lines(m, m.nt, (0, m.nx)))
    # neumann_pi mode pins p on the right column, l on the left and top lines
    (p, l), _ = hm.assemble_heat(transient_problem(), m)[2]
    assert np.array_equal(p, lines(m, cols=(m.nx,)))
    assert np.array_equal(l, lines(m, m.nt, (0,)))


@pytest.mark.parametrize("make_problem", [steady_problem, transient_problem])
def test_heat_pins_each_corner_once(make_problem):
    # the top corners of l lie on a pinned row and a pinned column; they
    # take the column's value, which need only agree with the row's to 1e-12
    m = build_space_time_mesh(1.0, 1.1, 3, 3)
    top = lambda x: np.full_like(x, 1.0 + 1e-13)
    problem = make_problem(l_left=const(1.0), l_top=top, l_right=const(1.0), p_right=const(2.0))
    mask, values = hm.assemble_heat(problem, m)[2]
    neumann = problem.right_mode == hm.NEUMANN_PI
    assert values[1, -1, 0] == 1.0 and values[1, -1, 1] == 1.0 + 1e-13
    assert values[1, -1, -1] == (1.0 + 1e-13 if neumann else 1.0)
    assert np.all(values[0][mask[0]] == 2.0)
    assert not values[~mask].any()
    # two columns and a row, less the corners they share
    shared = 1 if neumann else 2
    assert np.count_nonzero(mask) == 2 * (m.nt + 1) + (m.nx + 1) - shared


def test_mesh_extent_mismatch_rejected():
    with pytest.raises(InvalidArgumentError):
        hm.assemble_heat(steady_problem(), build_space_time_mesh(2.0, 1.1, 3, 3))


def test_problem_validation():
    with pytest.raises(InvalidArgumentError):
        hm.HeatProblem(k=-1.0, L=1.0, T=1.0, theta0=ZERO, theta_left=ZERO)
    with pytest.raises(InvalidArgumentError):
        hm.HeatProblem(k=1.0, L=1.0, T=1.0, theta0=ZERO, theta_left=ZERO,
                       right_mode="robin")
    with pytest.raises(InvalidArgumentError, match=r"l_top\(0\) == l_left\(T\)"):
        # corner mismatch: l_left(T) = 1 but l_top(0) = 0
        hm.HeatProblem(k=1.0, L=1.0, T=1.0, theta0=ZERO, theta_left=ZERO,
                       l_left=const(1.0), l_top=ZERO)
    with pytest.raises(InvalidArgumentError, match=r"l_top\(L\) == l_right\(T\)"):
        # top-right corner mismatch in dirichlet_theta mode: l_right(T) = 1e-11
        # but l_top(L) = 0
        hm.HeatProblem(k=1.0, L=1.0, T=1.0, theta0=ZERO, theta_left=ZERO,
                       right_mode=hm.DIRICHLET_THETA, l_right=const(1e-11))


def test_dtp_trivial_and_linear_fields():
    m = build_space_time_mesh(1.0, 1.0, 4, 4)
    theta, pi = hm.dtp_heat(m, np.zeros(2 * m.n_nodes), 1.0)
    assert np.all(theta == 0.0) and np.all(pi == 0.0)
    # p = x, l = t: theta = d_x p + d_t l = 2 everywhere
    nodes, _ = nodes_and_elements(m)
    theta, pi = hm.dtp_heat(m, np.concatenate([nodes[:, 0], nodes[:, 1]]), 1.0)
    assert np.abs(theta - 2.0).max() < 1e-13


def test_dtp_of_steady_dual_family_interpolant():
    # raw Gauss-point values carry the O(h) gradient error of the bilinear
    # interpolant; the projected nodal field is second-order accurate
    p_exact, l_exact = hm.steady_dual_family(k=1.0)
    raw_errs, proj_errs = [], []
    for nx in (8, 16, 32):
        m = build_space_time_mesh(1.0, 1.0, nx, 4)
        x_nodes = nodes_and_elements(m)[0][:, 0]
        sol = np.concatenate([p_exact(x_nodes), l_exact(x_nodes)])
        theta, pi = hm.dtp_heat(m, sol, 1.0)
        pts_x = gauss_points(m)[..., 0]
        raw_errs.append(np.abs(theta - (3 * pts_x + 1)).max())
        # mirror the recovery policy: lateral boundary columns carry known data
        x = m.x_coords()
        nodal = l2_project(m, theta, rows={}, cols={0: 3 * x[0] + 1, m.nx: 3 * x[-1] + 1})
        proj_errs.append(np.abs(nodal - (3 * x + 1)).max())
    raw_orders = [np.log2(raw_errs[i] / raw_errs[i + 1]) for i in range(2)]
    assert min(raw_orders) > 0.9
    # the exact theta is linear, so the pinned projection reproduces it
    assert max(proj_errs) < 1e-12


def test_steady_family_satisfies_dtp_exactly():
    p_exact, l_exact = hm.steady_dual_family(k=1.0, C=0.5, D=-2.0)
    x = np.linspace(0, 1, 101)
    eps = 1e-6
    dpx = (p_exact(x + eps) - p_exact(x - eps)) / (2 * eps)
    dlx = (l_exact(x + eps) - l_exact(x - eps)) / (2 * eps)
    # steady fields: theta = d_x p, pi = p - k d_x l
    assert np.abs(dpx - (3 * x + 1)).max() < 1e-8
    assert np.abs((p_exact(x) - dlx) - 3.0).max() < 1e-8
    with pytest.raises(InvalidArgumentError):
        hm.steady_dual_family(k=2.0)


def test_solved_dual_fields_nearly_steady_with_family_bcs():
    _, l_exact = hm.steady_dual_family(k=1.0)
    prob = steady_problem(l_top=l_exact, l_right=const(float(l_exact(1.0))))
    m = build_space_time_mesh(1.0, 1.1, 50, 55)
    p, l = hm.solve_heat(prob, m).reshape(2, m.nt + 1, m.nx + 1)
    tt = m.t_coords()
    mid = (tt >= 0.2) & (tt <= 0.9)
    # away from the bottom and top layers the dual solution is steady up to
    # discretization error (observed O(h^2) level, not machine precision)
    assert np.abs(p[mid] - p[mid][0]).max() < 1e-4
    assert np.abs(l[mid] - l[mid][0]).max() < 1e-4


def test_prescribed_dual_values_exact():
    prob = steady_problem()
    m = build_space_time_mesh(1.0, 1.1, 10, 11)
    l = hm.solve_heat(prob, m)[m.n_nodes:]
    for node in m.boundary_nodes(LEFT):
        assert l[node] == 0.0
    for node in m.boundary_nodes(RIGHT):
        assert l[node] == 0.0


def test_steady_primal_recovery_small_mesh():
    prob = steady_problem()
    m = build_space_time_mesh(1.0, 1.1, 30, 33)
    _, grid = hm.solve_heat_primal(prob, m)
    x, t = m.x_coords(), m.t_coords()
    keep = t <= 1.0 + 1e-12
    pct = np.abs(grid - heat_steady(x)) / heat_steady(x) * 100
    assert pct[keep].max() < 0.5


def test_transient_primal_recovery_small_mesh():
    prob = transient_problem()
    m = build_space_time_mesh(1.0, 1.1, 40, 44)
    _, grid = hm.solve_heat_primal(prob, m)
    x, t = m.x_coords(), m.t_coords()
    keep = t <= 1.0 + 1e-12
    ref = np.vstack([heat_transient(x, tv, 0.2) for tv in t])
    pct = np.abs(grid - ref) / np.abs(ref) * 100
    assert pct[keep].max() < 0.5


def test_theta_recovery_pins_boundary_columns():
    prob = steady_problem()
    m = build_space_time_mesh(1.0, 1.1, 10, 11)
    _, grid = hm.solve_heat_primal(prob, m)
    assert np.all(grid[:, 0] == 1.0)
    assert np.all(grid[:, -1] == 4.0)
