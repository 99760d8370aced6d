import re

import numpy as np
import pytest
import scipy.linalg.lapack

from conftest import dense_band
from dualfem import euler
from dualfem.cli import run_euler_cfg
from dualfem.errors import (InvalidArgumentError, NonconvergenceError,
                            SingularDtPError, SolverError)
from dualfem.euler import (EulerConfig, dtp_euler, jacobian, kinetic_energy,
                           momentum_magnitude, newton_stage, residual,
                           run_euler)
from dualfem.mesh import build_time_mesh
from dualfem.oracles import euler_free_exact, rk45_reference
from dualfem.presets import get_preset

I_DEFAULT = (1.0, 2.0, 3.0)


def stage_mesh(cfg):
    return build_time_mesh(cfg.T_stage, cfg.ne_per_stage)


def free_config(**kw):
    from dualfem.oracles import elliptic_params
    par = elliptic_params(I_DEFAULT, (1.0, 0.0, 1.0))
    kw.setdefault("I", I_DEFAULT)
    kw.setdefault("omega0", (par.amp[0], 0.0, par.amp[2]))
    return EulerConfig(**kw)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        EulerConfig(I=(1.0, -2.0, 3.0), omega0=(1.0, 0.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        EulerConfig(I=(1.0, 2.0), omega0=(1.0, 0.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        EulerConfig(I=I_DEFAULT, omega0=(1.0, 0.0))
    with pytest.raises(InvalidArgumentError):
        EulerConfig(I=I_DEFAULT, omega0=(1.0, 0.0, 1.0), nu=-0.1)
    with pytest.raises(InvalidArgumentError):
        EulerConfig(I=I_DEFAULT, omega0=(1.0, 0.0, 1.0), a=0.0)
    with pytest.raises(InvalidArgumentError):
        EulerConfig(I=I_DEFAULT, omega0=(1.0, 0.0, 1.0),
                    N_c=20, ne_per_stage=20)


def test_inertia_differences():
    cfg = EulerConfig(I=I_DEFAULT, omega0=(1.0, 0.0, 1.0))
    # c_i = I_{i+2} - I_{i+1} cyclically
    assert np.allclose(cfg.c, [1.0, -2.0, 1.0])


def test_dtp_at_zero_dual_field_returns_base():
    cfg = EulerConfig(I=I_DEFAULT, omega0=(1.0, 0.0, 1.0), nu=0.3)
    base = np.array([0.4, -0.2, 0.9])
    omega, dwl, dwld = dtp_euler(np.zeros(3), np.zeros(3), base, cfg)
    assert np.allclose(omega, base)
    # with lambda = 0 the matrix is a * identity, so
    # d omega_i / d lambdadot_k = I_k / a on the diagonal
    assert np.allclose(dwld, np.diag(np.asarray(I_DEFAULT)) / cfg.a)
    assert np.allclose(dwl, -cfg.nu * np.diag(np.asarray(I_DEFAULT)) / cfg.a)


def test_dtp_linear_in_rate_at_zero_lambda():
    cfg = EulerConfig(I=I_DEFAULT, omega0=(1.0, 0.0, 1.0), a=2.0)
    lamdot = np.array([0.0, 1.0, 0.0])
    omega, _, _ = dtp_euler(np.zeros(3), lamdot, np.zeros(3), cfg)
    # omega = Kinv I lamdot = (0, I2/a, 0)
    assert np.allclose(omega, [0.0, 1.0, 0.0])


def test_dtp_derivatives_match_finite_differences(rng):
    cfg = EulerConfig(I=I_DEFAULT, omega0=(1.0, 0.0, 1.0), nu=0.2, a=1.5)
    lam = rng.standard_normal(3) * 0.3
    lamdot = rng.standard_normal(3)
    base = rng.standard_normal(3)
    omega, dwl, dwld = dtp_euler(lam, lamdot, base, cfg)
    eps = 1e-7
    for k in range(3):
        dk = np.zeros(3)
        dk[k] = eps
        wp, _, _ = dtp_euler(lam + dk, lamdot, base, cfg)
        wm, _, _ = dtp_euler(lam - dk, lamdot, base, cfg)
        assert np.allclose((wp - wm) / (2 * eps), dwl[:, k], atol=1e-6)
        wp, _, _ = dtp_euler(lam, lamdot + dk, base, cfg)
        wm, _, _ = dtp_euler(lam, lamdot - dk, base, cfg)
        assert np.allclose((wp - wm) / (2 * eps), dwld[:, k], atol=1e-6)


def test_singular_dtp_detected():
    cfg = EulerConfig(I=I_DEFAULT, omega0=(1.0, 0.0, 1.0), a=1.0)
    # c = (1, -2, 1): lambda = (1/c0, 0, 0) puts +-1 off-diagonals in the
    # lower 2x2 block and makes the matrix singular
    lam = np.array([1.0, 0.0, 0.0])
    with pytest.raises(SingularDtPError):
        dtp_euler(lam, np.zeros(3), np.zeros(3), cfg)


def test_closed_form_inverse_matches_lapack(rng):
    a = 1.5
    c = np.array([3.0, -4.0, 1.0])          # I = (1, 2, 5)
    lam = rng.uniform(-0.1, 0.1, size=(10_000, 3))
    K = np.zeros((10_000, 3, 3))
    K[:, [0, 1, 2], [0, 1, 2]] = a
    K[:, 0, 1] = K[:, 1, 0] = c[2] * lam[:, 2]
    K[:, 0, 2] = K[:, 2, 0] = c[1] * lam[:, 1]
    K[:, 1, 2] = K[:, 2, 1] = c[0] * lam[:, 0]
    ref = np.linalg.inv(K)
    err = np.abs(euler._inv3(lam.T, c, a).transpose(2, 0, 1) - ref).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * np.abs(ref).max(axis=(1, 2)))


def test_residual_vanishes_on_exact_sphere_solution():
    # equal inertias, no damping: the constant base state solves the ODE,
    # so the residual at lambda = 0 must vanish at every dof
    cfg = EulerConfig(I=(2.0, 2.0, 2.0), omega0=(0.3, -0.5, 0.7),
                      T_stage=0.5, ne_per_stage=4, N_c=1)
    mesh = build_time_mesh(cfg.T_stage, 4)
    lam = np.zeros((3, mesh.n_nodes))
    base = np.asarray(cfg.omega0)
    R = residual(euler._dtp_at_gauss(mesh, lam, base, cfg), cfg, mesh, base)
    assert R.shape == (3, mesh.n_nodes)
    # all free dofs vanish; the final node carries the boundary term -I omega
    # and is eliminated by the Dirichlet condition on lambda(T)
    assert np.abs(R[:, :-1]).max() < 1e-13
    assert np.allclose(R[:, -1], -np.asarray(cfg.I) * base)


def test_jacobian_matches_finite_difference_residual(rng):
    cfg = EulerConfig(I=I_DEFAULT, omega0=(1.0, 0.0, 1.0), nu=0.1,
                      T_stage=0.3)
    mesh = build_time_mesh(cfg.T_stage, 3)
    n = mesh.n_nodes
    base = np.asarray(cfg.omega0)
    lam = rng.standard_normal((3, n)) * 0.05
    # J is node-major (3 A + i); p reads it in the residual's order i n + A
    p = (3 * np.arange(n) + np.arange(3)[:, None]).ravel()
    gauss = lambda lam: euler._dtp_at_gauss(mesh, lam, base, cfg)
    J = jacobian(gauss(lam), cfg, mesh)
    assert type(J) is np.ndarray and J.shape == (11, 3 * n)
    J = dense_band(J)[np.ix_(p, p)]
    eps = 1e-7
    for dof in range(3 * n):
        d = np.zeros(3 * n)
        d[dof] = eps
        Rp = residual(gauss(lam + d.reshape(3, n)), cfg, mesh, base).ravel()
        Rm = residual(gauss(lam - d.reshape(3, n)), cfg, mesh, base).ravel()
        assert np.allclose((Rp - Rm) / (2 * eps), J[:, dof], atol=2e-6)


def test_banded_newton_step_matches_dense_solve(rng):
    cfg = EulerConfig(I=(1.0, 2.0, 5.0), omega0=(0.3, 1.0, 0.2), nu=0.2,
                      T_stage=0.3, ne_per_stage=80, N_c=20)
    mesh = build_time_mesh(cfg.T_stage, cfg.ne_per_stage)
    n = mesh.n_nodes
    lam = rng.standard_normal((3, n)) * 0.05
    base = np.asarray(cfg.omega0)
    gauss = euler._dtp_at_gauss(mesh, lam, base, cfg)
    R = residual(gauss, cfg, mesh, base)
    J = jacobian(gauss, cfg, mesh)
    p = (3 * np.arange(n) + np.arange(3)[:, None]).ravel()
    free = np.concatenate([i * n + np.arange(n - 1) for i in range(3)])
    dense = np.linalg.solve(dense_band(J)[np.ix_(p, p)][np.ix_(free, free)],
                            -R.ravel()[free])
    step = euler._newton_step(J, R)
    assert np.all(step[:, -1] == 0.0)
    assert np.abs(step.ravel()[free] - dense).max() <= 1e-12 * np.abs(dense).max()
    # the direct dgbsv call is the LU of solve_banded on the same band, bitwise
    m = 3 * (n - 1)
    ref = scipy.linalg.solve_banded((5, 5), J[:, :m], -R.T.ravel()[:m])
    assert np.array_equal(step.T.ravel()[:m], ref)


def test_newton_step_ignores_the_final_node_band(rng):
    # the lambda(T) rows and columns of the band never reach the banded LU:
    # filling them with 1e6 leaves the step equal to a dense free-block solve
    cfg = EulerConfig(I=(1.0, 2.0, 5.0), omega0=(0.3, 1.0, 0.2), nu=0.2,
                      T_stage=0.3, ne_per_stage=20, N_c=5)
    mesh = build_time_mesh(cfg.T_stage, cfg.ne_per_stage)
    n = mesh.n_nodes
    m = 3 * (n - 1)
    lam = rng.standard_normal((3, n)) * 0.05
    base = np.asarray(cfg.omega0)
    gauss = euler._dtp_at_gauss(mesh, lam, base, cfg)
    R = residual(gauss, cfg, mesh, base)
    J = jacobian(gauss, cfg, mesh)
    dense = np.linalg.solve(dense_band(J)[:m, :m], -R.T.ravel()[:m])
    col = np.arange(3 * n)
    row = col + np.arange(11)[:, None] - 5          # band entry [5 + row - col, col]
    J[(col >= m) | (row >= m)] = 1e6
    filled = dense_band(J)
    assert np.abs(filled[m:]).max() == 1e6 and np.abs(filled[:, m:]).max() == 1e6
    step = euler._newton_step(J, R)
    assert np.all(step[:, -1] == 0.0)
    assert np.abs(step.T.ravel()[:m] - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("ne", [1, 2, 3])
def test_newton_step_on_stages_narrower_than_the_band(rng, ne):
    # under four elements the free block has fewer than 11 rows, the least
    # the BLAS band product takes; the step still matches a dense solve
    cfg = EulerConfig(I=(1.0, 2.0, 5.0), omega0=(0.3, 1.0, 0.2), nu=0.2,
                      T_stage=0.3, ne_per_stage=ne, N_c=0)
    mesh = build_time_mesh(cfg.T_stage, ne)
    m = 3 * ne
    lam = rng.standard_normal((3, mesh.n_nodes)) * 0.05
    base = np.asarray(cfg.omega0)
    gauss = euler._dtp_at_gauss(mesh, lam, base, cfg)
    R = residual(gauss, cfg, mesh, base)
    J = jacobian(gauss, cfg, mesh)
    dense = np.linalg.solve(dense_band(J)[:m, :m], -R.T.ravel()[:m])
    step = euler._newton_step(J, R)
    assert np.abs(step.T.ravel()[:m] - dense).max() <= 1e-12 * np.abs(dense).max()
    res = newton_stage(cfg, cfg.omega0, mesh)
    assert res.increments[-1] < cfg.tol


def test_newton_stage_builds_one_residual_and_jacobian_per_iteration(monkeypatch):
    calls = {"residual": 0, "jacobian": 0, "dtp_euler": 0}

    def counted(name):
        real = getattr(euler, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(euler, name, counted(name))
    cfg = free_config(ne_per_stage=20, N_c=5)
    res = newton_stage(cfg, cfg.omega0, stage_mesh(cfg))
    assert res.newton_iters > 1
    # one DtP evaluation per iteration, shared by residual and jacobian, and
    # one at the converged lambda for the projection
    assert calls == {"residual": res.newton_iters, "jacobian": res.newton_iters,
                     "dtp_euler": res.newton_iters + 1}


def test_singular_newton_matrix_is_a_solver_error(monkeypatch):
    cfg = free_config(ne_per_stage=10, N_c=2)
    n = 3 * (cfg.ne_per_stage + 1)
    monkeypatch.setattr(euler, "jacobian", lambda *args: np.zeros((11, n)))
    with pytest.raises(SolverError, match="singular") as info:
        newton_stage(cfg, cfg.omega0, stage_mesh(cfg))
    assert type(info.value) is SolverError
    # the LU names its first zero pivot among the 3 (n - 1) free dofs
    assert str(info.value).endswith("zero pivot at free dof 0 of 30")


@pytest.mark.parametrize("scale", [1.5, np.nan])
def test_inaccurate_newton_step_is_a_solver_error(monkeypatch, scale):
    cfg = free_config(ne_per_stage=10, N_c=2)

    def scaled_dgbsv(*args, **kw):
        lu, piv, x, info = scipy.linalg.lapack.dgbsv(*args, **kw)
        return lu, piv, scale * x, info

    monkeypatch.setattr(euler, "dgbsv", scaled_dgbsv)
    with pytest.raises(SolverError, match="Newton step residual") as info:
        newton_stage(cfg, cfg.omega0, stage_mesh(cfg))
    assert type(info.value) is SolverError
    measured, bound = re.search(r"residual (\S+) exceeds .* = (\S+)$",
                                str(info.value)).groups()
    assert not float(measured) <= float(bound)


def test_stage_failure_keeps_newton_history():
    cfg = free_config(max_iter=1)
    with pytest.raises(NonconvergenceError) as info:
        run_euler(cfg)
    assert str(info.value).startswith("stage 1 failed: ")
    assert len(info.value.increments) == 1
    assert info.value.increments[0] > cfg.tol


@pytest.mark.parametrize("name, iters", [
    ("euler-free", [5, 5, 4, 5, 5, 4, 5, 5]),
    ("euler-free-convergence", [5, 5, 4, 5, 5, 4, 5, 5]),
    ("euler-damped", [5, 5, 6, 5, 5] + [4] * 18),
])
def test_preset_newton_histories(name, iters):
    summary, _ = run_euler_cfg(get_preset(name))
    assert summary["newton_iters"] == iters


def test_sphere_converges_in_one_newton_step():
    # equal inertias: c = 0, the stage problem is linear in lambda, so
    # Newton lands on the solution in a single iteration
    cfg = EulerConfig(I=(2.0, 2.0, 2.0), omega0=(0.3, -0.5, 0.7),
                      T_stage=0.5, ne_per_stage=10, N_c=2)
    res = newton_stage(cfg, np.asarray(cfg.omega0), stage_mesh(cfg))
    assert res.newton_iters <= 2
    # free sphere: omega is constant in time
    assert np.abs(res.omega_nodes - np.asarray(cfg.omega0)[:, None]).max() < 1e-9


def test_stage_discards_trailing_elements():
    cfg = free_config(T_stage=0.5, ne_per_stage=20, N_c=5)
    res = newton_stage(cfg, np.asarray(cfg.omega0), stage_mesh(cfg))
    assert res.t_nodes.shape == (16,)
    assert res.t_nodes[-1] == pytest.approx(0.375)
    assert res.omega_nodes.shape == (3, 16)
    # the initial value is pinned exactly
    assert np.array_equal(res.omega_nodes[:, 0], np.asarray(cfg.omega0))


def test_free_rotation_matches_elliptic_reference():
    cfg = free_config(T_total=3.0, T_stage=0.5, ne_per_stage=20, N_c=5)
    run = run_euler(cfg)
    # 20 - 5 retained elements advance 0.375 per stage: 8 stages cover 3.0
    assert len(run.stages) == 8
    assert run.t[-1] == pytest.approx(3.0)
    exact = euler_free_exact(run.t, cfg.I, cfg.omega0)
    scale = np.abs(exact).max()
    assert np.abs(run.omega - exact).max() / scale < 0.02
    for st in run.stages:
        assert st.newton_iters <= 8
        assert st.increments[-1] < cfg.tol


def test_free_rotation_conserves_energy_and_momentum():
    cfg = free_config(T_total=1.5)
    run = run_euler(cfg)
    E = kinetic_energy(cfg.I, run.omega)
    L = momentum_magnitude(cfg.I, run.omega)
    assert np.abs(E / E[0] - 1.0).max() < 1e-2
    assert np.abs(L / L[0] - 1.0).max() < 1e-2


def test_damped_rotation_matches_rk45():
    cfg = free_config(nu=0.4, T_total=1.5)
    run = run_euler(cfg)
    ref = rk45_reference(cfg.I, cfg.omega0, cfg.nu, cfg.T_total)(run.t)
    scale = np.abs(ref).max()
    assert np.abs(run.omega - ref).max() / scale < 0.02
    # damping strictly dissipates the momentum magnitude
    L = momentum_magnitude(cfg.I, run.omega)
    assert L[-1] < L[0]


def test_invariant_helpers():
    I = np.array([1.0, 2.0, 3.0])
    omega = np.array([2.0, 1.0, 0.0])
    assert kinetic_energy(I, omega) == pytest.approx(0.5 * (4.0 + 2.0))
    assert momentum_magnitude(I, omega) == pytest.approx(np.sqrt(4.0 + 4.0))
    # trailing axes broadcast
    grid = np.tile(omega[:, None], (1, 5))
    assert kinetic_energy(I, grid).shape == (5,)
