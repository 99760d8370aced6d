from dataclasses import replace

import numpy as np
import pytest

from conftest import gauss_legendre_integrate_2d
from dualfem import fem, transport
from dualfem.cli import make_initial
from dualfem.errors import InvalidArgumentError, SingularDtPError
from dualfem.fem import FactoredSystem, gradient_tables, gram_matrix
from dualfem.mesh import BOTTOM, LEFT, RIGHT, TOP, NodalGrid, build_space_time_mesh
from dualfem.oracles import transport_exact
from dualfem.projection import _axis
from dualfem.transport import (StagePlan, TransportProblem, assemble_transport,
                               dtp_table, dtp_transport,
                               run_time_sliced, solve_transport_stage,
                               track_jump, transport_load)

ZERO = lambda s: np.zeros_like(np.asarray(s, dtype=float))
const = lambda v: (lambda s: np.full_like(np.asarray(s, dtype=float), v))


def step_problem(c=0.25, L=2.0, T_total=1.0):
    """The step 2 | 4 at x = 0.2, the mean 3 at the jump (the CLI's step)."""
    return TransportProblem(
        c=c, L=L, T_total=T_total,
        u0=make_initial({"type": "step", "x_jump": 0.2, "lo": 2.0, "hi": 4.0}),
        u_left=const(2.0))


def solve_single_stage(prob, m):
    """One stage from the problem's own initial datum, pinned at its nodal values."""
    dual = FactoredSystem(*assemble_transport(prob, m))
    return solve_transport_stage(prob, m, dual, prob.u0, prob.u0(m.x_coords()))


def bilinear_interp(coords, nodal):
    """Callable (x, t) -> bilinear interpolant over one rectangular element."""
    (x0, t0), (x1, _), _, _ = coords[0], coords[1], coords[2], coords[3]
    hx = coords[1, 0] - coords[0, 0]
    ht = coords[3, 1] - coords[0, 1]

    def u(x, t):
        xi = 2 * (x - coords[0, 0]) / hx - 1
        eta = 2 * (t - coords[0, 1]) / ht - 1
        N = 0.25 * np.array([(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                             (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)])
        return N @ nodal

    return u


def test_local_matrix_against_independent_integration():
    c = 0.7
    m = build_space_time_mesh(1.5, 0.9, 5, 4)
    K = gram_matrix(m, dtp_table(m, c))
    coords = m.nodes[m.elements[0]]
    x0, t0 = coords[0]
    x1, t1 = coords[2]
    eps = 1e-6
    expect = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            ea, eb = np.zeros(4), np.zeros(4)
            ea[a], eb[b] = 1.0, 1.0
            Na, Nb = bilinear_interp(coords, ea), bilinear_interp(coords, eb)

            def integrand(x, t):
                da = ((Na(x, t + eps) - Na(x, t - eps)) / (2 * eps)
                      + c * (Na(x + eps, t) - Na(x - eps, t)) / (2 * eps))
                db = ((Nb(x, t + eps) - Nb(x, t - eps)) / (2 * eps)
                      + c * (Nb(x + eps, t) - Nb(x - eps, t)) / (2 * eps))
                return da * db

            expect[a, b] = -gauss_legendre_integrate_2d(integrand, x0, x1, t0, t1)
    assert np.abs(K - expect).max() < 1e-8
    # the matrix is a negative Gram matrix: symmetric, negative semidefinite
    assert np.allclose(K, K.T)
    assert np.all(np.linalg.eigvalsh(K) < 1e-14)


def test_stage_matrix_is_the_negative_gram_matrix_of_the_recovery(rng):
    # u^T K v = -(hx ht / 4) sum over Gauss points of DtP(u) DtP(v) for
    # independent dual vectors: assembly and recovery are one map
    c = 0.7
    m = build_space_time_mesh(1.3, 0.6, 5, 4)      # hx = 0.26, ht = 0.15
    K, _ = assemble_transport(TransportProblem(c=c, L=1.3, T_total=0.6, u0=ZERO,
                                               u_left=ZERO), m)
    u, v = rng.standard_normal((2, m.n_nodes))
    products = 0.25 * m.hx * m.ht * dtp_transport(m, u, c) * dtp_transport(m, v, c)
    assert u @ (K @ v) == pytest.approx(-products.sum(), abs=1e-14 * np.abs(products).sum())


def test_zero_data_gives_zero_rhs():
    prob = TransportProblem(c=1.0, L=1.0, T_total=0.5, u0=ZERO, u_left=ZERO)
    m = build_space_time_mesh(1.0, 0.5, 4, 4)
    assert np.all(transport_load(prob, m, prob.u0) == 0.0)


def test_inflow_load_carries_wave_speed():
    # rhs on the inflow column must be c * integral(u_left * hat), so that
    # doubling c doubles the boundary load
    m = build_space_time_mesh(1.0, 1.0, 4, 4)
    loads = []
    for c in (0.5, 1.0):
        prob = TransportProblem(c=c, L=1.0, T_total=1.0, u0=ZERO,
                                u_left=const(3.0))
        rhs = transport_load(prob, m, prob.u0)
        loads.append(rhs[m.boundary_nodes(LEFT)])
    assert np.allclose(loads[1], 2.0 * loads[0])
    # interior hat along the inflow: c * u_l * ht = 1.0 * 3.0 * 0.25
    assert loads[1][2] == pytest.approx(0.75, rel=1e-13)


def test_mesh_length_mismatch_rejected():
    prob = TransportProblem(c=1.0, L=2.0, T_total=1.0, u0=ZERO, u_left=ZERO)
    m = build_space_time_mesh(1.0, 1.0, 4, 4)
    with pytest.raises(InvalidArgumentError):
        assemble_transport(prob, m)
    with pytest.raises(InvalidArgumentError):
        TransportProblem(c=-1.0, L=1.0, T_total=1.0, u0=ZERO, u_left=ZERO)


def test_dtp_of_linear_dual_field():
    m = build_space_time_mesh(1.0, 1.0, 5, 4)
    c = 0.3
    lam = m.nodes[:, 1] + m.nodes[:, 0]        # lambda = t + x
    u_q = dtp_transport(m, lam, c)
    assert np.abs(u_q - (1.0 + c)).max() < 1e-13


def test_inflow_value_enforced_on_recovered_field():
    prob = TransportProblem(c=0.25, L=1.0, T_total=0.4,
                            u0=const(2.0), u_left=lambda t: 2.0 + 0.0 * t)
    m = build_space_time_mesh(1.0, 0.4, 20, 8)
    _, u = solve_single_stage(prob, m)
    assert np.array_equal(u[:, 0], np.full(m.nt + 1, 2.0))
    assert np.array_equal(u[0], np.full(m.nx + 1, 2.0))


def test_constant_state_transported():
    # constant data: the recovered field of a single stage is constant away
    # from the outflow boundary layer induced by the homogeneous dual
    # Dirichlet data at x = L (run_time_sliced discards that layer)
    prob = TransportProblem(c=0.25, L=2.0, T_total=0.5,
                            u0=const(2.0), u_left=const(2.0))
    m = build_space_time_mesh(2.0, 0.55, 80, 22)
    _, u = solve_single_stage(prob, m)
    x = m.x_coords()
    interior = x < 1.7
    assert np.abs(u[:, interior] - 2.0).max() < 1e-3


@pytest.mark.parametrize("nx, nt", [(80, 22), (200, 55)])
def test_time_sliced_discards_outflow_layer(nx, nt):
    # constant data stays constant on all of [0, L]: each stage is solved on
    # a widened domain and the layer of the dual condition at its right
    # edge falls in the discarded band
    prob = TransportProblem(c=0.25, L=2.0, T_total=1.0,
                            u0=const(2.0), u_left=const(2.0))
    plan = StagePlan.cover(T_stage=0.55, T_keep=0.5, T_total=1.0)
    field = run_time_sliced(prob, plan, nx=nx, nt=nt)
    assert plan.n_stages == 2
    assert field.x.size == nx + 1 and field.x[-1] == 2.0
    assert field.values.shape[1] == nx + 1
    assert np.abs(field.values - 2.0).max() < 0.02


def test_time_sliced_inflow_reads_global_time():
    # a time-dependent inflow must be evaluated at t_offset + t in every
    # stage, not at the stage-local time
    prob = TransportProblem(c=0.25, L=1.0, T_total=1.5,
                            u0=const(2.0), u_left=lambda t: 2.0 + np.asarray(t))
    plan = StagePlan.cover(T_stage=0.55, T_keep=0.5, T_total=1.5)
    field = run_time_sliced(prob, plan, nx=40, nt=22)
    assert plan.n_stages == 3 and field.t[-1] == pytest.approx(1.5)
    assert np.abs(field.values[:, 0] - (2.0 + field.t)).max() <= 1e-12


# corner signs (xi, eta) of the counter-clockwise local nodes
CORNERS = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]])


def test_recovered_field_is_projection_of_exact_solution():
    # Galerkin orthogonality of the dual solve: u_q = d_t lambda + c d_x lambda
    # is the L2(space-time) projection of the exact solution u onto
    # {d_t mu + c d_x mu : mu bilinear, mu = 0 on the top and right edges},
    # i.e. integral (u_q - u) D N_A = 0 for every free node A.  Quadratic
    # data keep the boundary loads exact, so the identity holds to round-off.
    c, L, T = 0.5, 1.0, 0.4
    u_exact = lambda x, t: 2.0 + (x - c * t) ** 2
    prob = TransportProblem(c=c, L=L, T_total=T,
                            u0=lambda x: u_exact(np.asarray(x, dtype=float), 0.0),
                            u_left=lambda t: u_exact(0.0, np.asarray(t, dtype=float)))
    m = build_space_time_mesh(L, T, 10, 6)
    lam, _ = solve_single_stage(prob, m)
    u_q = dtp_transport(m, lam, c)

    # integral u_q D N_A: the integrand is exact under the 2x2 Gauss rule
    _, gx, gt = gradient_tables(m)
    proj = np.zeros(m.n_nodes)
    np.add.at(proj, m.elements, 0.25 * m.hx * m.ht * u_q @ (gt + c * gx))

    # integral u D N_A by direct quadrature, element by element
    exact = np.zeros(m.n_nodes)
    sx, st = CORNERS[:, 0], CORNERS[:, 1]
    for conn in m.elements:
        (x0, t0), (x1, t1) = m.nodes[conn[0]], m.nodes[conn[2]]

        def integrand(x, t):
            xi = 2 * (x - x0) / m.hx - 1
            eta = 2 * (t - t0) / m.ht - 1
            dN = st * (1 + sx * xi) / (2 * m.ht) + c * sx * (1 + st * eta) / (2 * m.hx)
            return u_exact(x, t) * dN

        exact[conn] += gauss_legendre_integrate_2d(integrand, x0, x1, t0, t1)

    free = np.setdiff1d(np.arange(m.n_nodes),
                        np.concatenate([m.boundary_nodes(TOP), m.boundary_nodes(RIGHT)]))
    scale = np.abs(exact[free]).max()
    assert np.abs(proj - exact)[free].max() < 1e-11 * scale
    # u itself is not in the space, so the projection error is not zero:
    # u_q is affine per element, its Gauss-point mean is its centre value
    centres = m.nodes[m.elements].mean(axis=1)
    gap = np.abs(u_q.mean(axis=1) - u_exact(centres[:, 0], centres[:, 1])).max()
    assert gap > 1e-4


def test_stage_plan_cover():
    plan = StagePlan.cover(T_stage=0.55, T_keep=0.5, T_total=5.0)
    assert plan.n_stages == 10
    assert StagePlan.cover(0.55, 0.5, 0.3).n_stages == 1
    with pytest.raises(InvalidArgumentError):
        StagePlan.cover(0.5, 0.5, 1.0)
    with pytest.raises(InvalidArgumentError):
        StagePlan.cover(0.5, 0.0, 1.0)


def test_step_problem_takes_the_mean_at_the_jump_node():
    prob = step_problem()
    x = np.linspace(0.0, 2.0, 11)            # node at exactly x = 0.2
    vals = prob.u0(x)
    assert vals[1] == 3.0
    assert vals[0] == 2.0 and vals[2] == 4.0


def record_stage_duals(monkeypatch):
    """Wrap transport.solve_transport_stage as run_time_sliced calls it;
    returns the list that takes each stage's dual field."""
    duals, solve = [], transport.solve_transport_stage

    def recorded(*args):
        lam, u = solve(*args)
        duals.append(lam)
        return lam, u
    monkeypatch.setattr(transport, "solve_transport_stage", recorded)
    return duals


def test_time_sliced_grid_and_continuity(monkeypatch):
    prob = step_problem(T_total=1.0)
    plan = StagePlan.cover(T_stage=0.55, T_keep=0.5, T_total=1.0)
    duals = record_stage_duals(monkeypatch)
    field = run_time_sliced(prob, plan, nx=40, nt=22)
    # rows: initial row plus keep_rows per stage, global times strictly increase
    assert plan.n_stages == 2
    assert field.values.shape == (1 + 2 * 20, 41)
    assert np.all(np.diff(field.t) > 0)
    assert field.t[0] == 0.0
    assert field.t[-1] == pytest.approx(1.0)
    # interior times fall on the stage grid (step 0.025)
    assert np.allclose(field.t, np.arange(41) * 0.025)
    # dual fields differ between stages, yet the primal is transferred nodally
    assert len(duals) == 2
    assert not np.allclose(duals[0], duals[1])


def test_step_accuracy_away_from_jump_and_outflow():
    prob = step_problem(T_total=0.5)
    plan = StagePlan.cover(T_stage=0.55, T_keep=0.5, T_total=0.5)
    field = run_time_sliced(prob, plan, nx=80, nt=22)
    h = field.x[1] - field.x[0]
    worst = 0.0
    for i, t in enumerate(field.t):
        locus = 0.2 + 0.25 * t
        mask = (np.abs(field.x - locus) > 8 * h) & (field.x < 1.8)
        exact = transport_exact(field.x[mask], t)
        worst = max(worst, np.abs(field.values[i, mask] - exact).max())
    assert worst < 0.05


def test_track_jump_clamps_at_zero():
    x = np.linspace(0.0, 2.0, 41)
    t = np.array([0.0, 0.1])
    u = np.tile(np.where(x < 0.2, 2.0, 4.0), (2, 1))
    field = NodalGrid(x, t, u.copy())
    ht, hb = track_jump(field, lambda tv: 0.2 + 0.25 * tv)
    assert np.all(ht == 0.0) and np.all(hb == 0.0)
    # inject an overshoot and an undershoot inside the window
    u2 = u.copy()
    u2[1, 10] = 4.3
    u2[1, 6] = 1.9
    field2 = NodalGrid(x, t, u2)
    ht2, hb2 = track_jump(field2, lambda tv: 0.2 + 0.25 * tv)
    assert ht2[1] == pytest.approx(0.3)
    assert hb2[1] == pytest.approx(0.1)
    # outside the window the same spike is ignored
    ht3, hb3 = track_jump(field2, lambda tv: 1.5)
    assert ht3[1] == 0.0 and hb3[1] == 0.0


def track_jump_by_row(field, x_jump, lo, hi, window_elems=10):
    """The per-row loop that track_jump replaces."""
    h = field.x[1] - field.x[0]
    ht, hb = np.zeros_like(field.t), np.zeros_like(field.t)
    for i, t in enumerate(field.t):
        mask = np.abs(field.x - x_jump(t)) <= window_elems * h + 1e-12
        if np.any(mask):
            ht[i] = max(0.0, field.values[i, mask].max() - hi)
            hb[i] = max(0.0, lo - field.values[i, mask].min())
    return ht, hb


def test_track_jump_matches_per_row_loop(rng):
    prob = step_problem(T_total=0.6)
    plan = StagePlan.cover(T_stage=0.15, T_keep=0.1, T_total=0.6)
    field = run_time_sliced(prob, plan, nx=40, nt=6)
    locus = lambda t: 0.2 + 0.25 * t
    ht, hb = track_jump(field, locus, lo=2.0, hi=4.0)
    assert ht.max() > 0 and hb.max() > 0
    ref_ht, ref_hb = track_jump_by_row(field, locus, 2.0, 4.0)
    assert np.array_equal(ht, ref_ht) and np.array_equal(hb, ref_hb)
    # NaN values, rows whose window leaves the domain and a narrow window
    u = field.values + 0.3 * rng.standard_normal(field.values.shape)
    u[2, 3] = np.nan
    noisy = replace(field, values=u)
    far = lambda t: 0.2 + 12.0 * t
    for x_jump, window in ((locus, 10), (far, 10), (far, 0)):
        got = track_jump(noisy, x_jump, lo=2.0, hi=4.0, window_elems=window)
        want = track_jump_by_row(noisy, x_jump, 2.0, 4.0, window)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert track_jump(noisy, far, lo=2.0, hi=4.0)[0][-1] == 0.0


@pytest.mark.parametrize("T_total", [0.25, 0.6])
def test_time_sliced_factors_the_dual_matrix_once(monkeypatch, T_total):
    calls = {"factor": 0, "assemble": 0}
    real_factor, real_assemble = fem.factor, transport.assemble_transport

    def counted_factor(A):
        calls["factor"] += 1
        return real_factor(A)

    def counted_assemble(*args, **kwargs):
        calls["assemble"] += 1
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(fem, "factor", counted_factor)
    monkeypatch.setattr(transport, "assemble_transport", counted_assemble)
    prob = step_problem(T_total=T_total)
    plan = StagePlan.cover(T_stage=0.15, T_keep=0.1, T_total=T_total)
    nx, nt = 40, 6
    duals = record_stage_duals(monkeypatch)
    field = run_time_sliced(prob, plan, nx=nx, nt=nt)
    assert plan.n_stages in (3, 6)
    assert calls == {"factor": 1, "assemble": 1}
    monkeypatch.undo()

    # reference: the same chain with a fresh assembly and factorization in
    # every stage
    h = prob.L / nx
    pad = int(np.ceil(prob.c * plan.T_stage / h - 1e-9)) + 2
    stage_prob = replace(prob, L=prob.L + pad * h)
    mesh = build_space_time_mesh(stage_prob.L, plan.T_stage, nx + pad, nt)
    keep = 4                                  # rows with t <= T_keep
    x = mesh.x_coords()
    u_init = prob.u0(x)
    u0 = prob.u0
    rows = [u_init[None, :nx + 1]]
    for s in range(plan.n_stages):
        dual = FactoredSystem(*assemble_transport(stage_prob, mesh))
        lam, u = solve_transport_stage(stage_prob, mesh, dual, u0, u_init)
        assert np.abs(lam - duals[s]).max() <= 1e-10 * np.abs(lam).max()
        rows.append(u[1:keep + 1, :nx + 1])
        u_init = u[keep].copy()
        u0 = lambda s, u_prev=u_init: np.interp(s, x, u_prev)
    assert np.abs(np.vstack(rows) - field.values).max() <= 1e-11 * np.abs(field.values).max()


def test_time_sliced_builds_the_projection_axes_once():
    # every stage projects on one mesh with one pin set: the first stage
    # builds the time and the space axis, and every later stage reuses both
    prob = step_problem(T_total=0.6)
    plan = StagePlan.cover(T_stage=0.15, T_keep=0.1, T_total=0.6)
    _axis.cache_clear()
    run_time_sliced(prob, plan, nx=40, nt=6)
    info = _axis.cache_info()
    assert plan.n_stages == 6
    assert (info.misses, info.hits, info.currsize) == (2, 2 * (plan.n_stages - 1), 2)


def test_a_failed_stage_re_raises_its_own_error_with_the_stage_number(monkeypatch):
    # the error keeps its type and identity, as in euler.run_euler; only its
    # message gains the stage number
    error, calls, solve = SingularDtPError("zero pivot"), [], transport.solve_transport_stage

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise error
        return solve(*args)
    monkeypatch.setattr(transport, "solve_transport_stage", failing)
    prob = step_problem(T_total=0.6)
    plan = StagePlan.cover(T_stage=0.15, T_keep=0.1, T_total=0.6)
    with pytest.raises(SingularDtPError) as info:
        run_time_sliced(prob, plan, nx=40, nt=6)
    assert info.value is error
    assert str(error) == "stage 2 failed: zero pivot"
    assert len(calls) == 2
