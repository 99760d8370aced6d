import math
from functools import reduce
from operator import add, mul

import numpy as np
import pytest

from conftest import gauss_legendre_integrate
from dualfem.errors import (InvalidArgumentError, SolverError,
                            UnsupportedBranchError)
from dualfem.oracles import (AlgebraicDualResult, FourierHeatSolution,
                             algebraic_dual_demo, elliptic_params,
                             euler_free_exact, euler_rhs,
                             fourier_discontinuous_coefficients,
                             fourier_jump_coefficients, heat_steady,
                             heat_transient, jacobi_am, jacobi_sn_cn_dn,
                             rk45_integrate, rk45_reference, transport_exact)
from dualfem.oracles import _DP_A, _DP_B4, _DP_C, _DP_DENSE


def smoothed_jump_profile(x, beta, eps):
    """Piecewise-linear jump profile with shift beta: slope-2 branches 2x and
    2(x - 1) joined by a linear ramp over the smoothing zone |x - 1/2| < eps."""
    x = np.asarray(x, dtype=float)
    l, r = 0.5 - eps, 0.5 + eps
    ks = (2 * eps - 1) / eps
    return beta + np.where(
        x < l, 2 * x,
        np.where(x > r, 2 * (x - 1.0), ks * (x - 0.5)))


def test_heat_steady_and_transient_formulas():
    x = np.linspace(0, 1, 5)
    assert np.allclose(heat_steady(x), 3 * x + 1)
    th = heat_transient(x, 0.0, k=0.5)
    assert np.allclose(th, np.sin(0.5 * np.pi * x) + 1.0)
    # boundary values for all t: theta(0, t) = 1, theta(1, t) = 1 + decay
    assert heat_transient(0.0, 0.7, 1.0) == pytest.approx(1.0)
    decay = np.exp(-0.25 * np.pi ** 2 * 0.7)
    assert heat_transient(1.0, 0.7, 1.0) == pytest.approx(1.0 + decay)
    with pytest.raises(InvalidArgumentError):
        heat_transient(x, 0.1, k=0.0)


def test_jump_coefficients_match_quadrature():
    beta, eps = 10.0, 0.01
    coeffs = fourier_jump_coefficients(beta, eps, 12)
    # integrate piecewise so the quadrature never straddles a kink
    pieces = (0.0, 0.5 - eps, 0.5 + eps, 1.0)
    for m in range(1, 13):
        num = 2.0 * sum(gauss_legendre_integrate(
            lambda x, m=m: (smoothed_jump_profile(x, beta, eps) - beta)
            * np.sin(2 * np.pi * m * x), a, b, n=40)
            for a, b in zip(pieces, pieces[1:]))
        assert coeffs[m - 1] == pytest.approx(num, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        fourier_jump_coefficients(beta, 0.6, 4)
    with pytest.raises(InvalidArgumentError):
        fourier_jump_coefficients(beta, 0.01, 0)


def test_discontinuous_coefficients_match_quadrature():
    coeffs = fourier_discontinuous_coefficients(8)
    assert np.allclose(coeffs, [2 * (-1) ** (m + 1) / (np.pi * m)
                                for m in range(1, 9)])
    # the sharp profile is 2x on [0, 1/2) and 2(x - 1) on (1/2, 1]
    for m in (1, 2, 5):
        num = 2.0 * (gauss_legendre_integrate(
            lambda x, m=m: 2 * x * np.sin(2 * np.pi * m * x), 0.0, 0.5, n=60)
            + gauss_legendre_integrate(
            lambda x, m=m: 2 * (x - 1) * np.sin(2 * np.pi * m * x), 0.5, 1.0, n=60))
        assert coeffs[m - 1] == pytest.approx(num, abs=1e-12)


def test_fourier_solution_initial_profile_and_shift():
    beta, eps, k = 10.0, 0.01, 0.1
    sol = FourierHeatSolution.smoothed_jump(beta, eps, k, n_terms=20_000)
    x = np.array([0.1, 0.3, 0.45, 0.55, 0.8])
    assert np.allclose(sol(x, 0.0), smoothed_jump_profile(x, beta, eps),
                       atol=5e-4)
    # sine series: the boundary values equal the shift for t > 0
    ends = sol(np.array([0.0, 1.0]), 0.01)
    assert np.allclose(ends, beta, atol=1e-12)
    # diffusion drives the whole profile towards the mean
    late = sol(x, 10.0)
    assert np.abs(late - beta).max() < 1e-8


def test_fourier_discontinuous_solution_midpoint_symmetry():
    sol = FourierHeatSolution.discontinuous(beta=2.0, k=0.1, n_terms=50_000)
    # odd symmetry of the series about x = 1/2 for every time
    x = np.array([0.2, 0.35])
    for t in (0.001, 0.05):
        left = sol(x, t) - 2.0
        right = sol(1.0 - x, t) - 2.0
        assert np.allclose(left, -right, atol=1e-12)
    assert sol(np.array([0.5]), 0.0123)[0] == pytest.approx(2.0)


def test_fourier_solution_sums_only_live_modes():
    # modes whose decay factor underflows below 1e-300 are not summed: NaN
    # coefficients there leave the values finite and equal to the live sum
    beta, k, t = 2.0, 0.1, 0.01
    sol = FourierHeatSolution.discontinuous(beta=beta, k=k, n_terms=20_000)
    m = np.arange(1, sol.coefficients.size + 1)
    live = 4.0 * np.pi ** 2 * k * t * m ** 2 < 690.0
    assert 10 < live.sum() < 4096
    poisoned = FourierHeatSolution(beta=beta, k=k,
                                   coefficients=np.where(live, sol.coefficients, np.nan))
    x = np.linspace(0.0, 1.0, 11)
    amp = sol.coefficients[live] * np.exp(-4.0 * np.pi ** 2 * k * t * m[live] ** 2)
    direct = beta + np.sin(2 * np.pi * np.outer(x, m[live])) @ amp
    values = poisoned(x, t)
    assert np.all(np.isfinite(values))
    assert np.abs(values - direct).max() < 1e-12
    assert np.array_equal(values, sol(x, t))


def fourier_direct_sum(sol, x):
    """The t = 0 series summed mode by mode, 4096 modes at a time."""
    m = np.arange(1, sol.coefficients.size + 1, dtype=float)
    out = np.full(x.shape, sol.beta)
    for s in range(0, m.size, 4096):
        out += np.sin(2 * np.pi * np.outer(x, m[s:s + 4096])) @ sol.coefficients[s:s + 4096]
    return out


@pytest.mark.parametrize("sol", [
    FourierHeatSolution.discontinuous(beta=10.0, k=0.1, n_terms=100_000),
    FourierHeatSolution.smoothed_jump(beta=10.0, eps=0.01, k=0.1, n_terms=100_000),
], ids=["heat-jump", "heat-smoothed-jump-beta10"])
def test_fourier_initial_row_folds_modes_on_the_grid(sol):
    # the t = 0 row on the heat-jump grid x = j / 200 folds the 100 000
    # modes by m mod 200, and agrees with the direct sum
    x = np.linspace(0.0, 1.0, 201)
    assert np.abs(sol(x, 0.0) - fourier_direct_sum(sol, x)).max() <= 1e-10
    # one point off a grid makes the whole row a direct sum
    x = np.linspace(0.0, 1.0, 21)
    x[7] += 1e-3
    assert np.abs(sol(x, 0.0) - fourier_direct_sum(sol, x)).max() <= 1e-12


def test_transport_exact_broadcasts_over_a_grid():
    # one (t, x) broadcast call equals one call per time row, bitwise
    x = np.linspace(0.0, 2.0, 81)
    t = np.linspace(0.0, 5.0, 101)
    rows = np.vstack([transport_exact(x, tv, c=0.25, x0=0.19, lo=1.7, hi=3.5) for tv in t])
    grid = transport_exact(x[None, :], t[:, None], c=0.25, x0=0.19, lo=1.7, hi=3.5)
    assert np.array_equal(grid, rows)


def test_transport_exact_step():
    x = np.array([0.0, 0.2, 0.4, 1.0])
    step = dict(c=0.25, x0=0.2, lo=2.0, hi=4.0)
    u = transport_exact(x, 0.0, **step)
    assert np.allclose(u, [2.0, 3.0, 4.0, 4.0])
    # locus moves with speed c
    u = transport_exact(np.array([0.45]), 1.0, **step)
    assert u[0] == 3.0
    assert transport_exact(np.array([0.44]), 1.0, **step)[0] == 2.0


def test_jacobi_limits_and_identities():
    u = np.linspace(-2.0, 2.0, 9)
    sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
    assert np.allclose(sn, np.sin(u), atol=1e-14)
    assert np.allclose(cn, np.cos(u), atol=1e-14)
    assert np.allclose(dn, 1.0, atol=1e-14)
    m = 1.0 - 1e-12           # modulus squared just below the separatrix
    sn1, cn1, dn1 = jacobi_sn_cn_dn(u, m)
    assert np.allclose(sn1, np.tanh(u), atol=1e-5)
    for m in (0.3, 0.8, 0.999):
        sn, cn, dn = jacobi_sn_cn_dn(u, m)
        assert np.abs(sn ** 2 + cn ** 2 - 1.0).max() < 1e-12
        assert np.abs(dn ** 2 + m * sn ** 2 - 1.0).max() < 1e-12
    with pytest.raises(InvalidArgumentError):
        jacobi_am(u, 1.5)


def test_elliptic_params_example():
    I = (1.0, 2.0, 3.0)
    omega0 = (2.0, 0.0, 2.0)
    par = elliptic_params(I, omega0)
    assert par.E == pytest.approx(0.5 * (1 * 4 + 3 * 4))
    assert par.L2 == pytest.approx(1 * 4 + 9 * 4)
    # A = 2 E I3 - L2 = 48 - 40 = 8, B = L2 - 2 E I1 = 40 - 16 = 24
    # k2 = (I2 - I1) A / ((I3 - I2) B) = 8 / 24
    assert par.k2 == pytest.approx(1.0 / 3.0)
    assert np.allclose(par.amp, [np.sqrt(8.0 / 2.0), np.sqrt(8.0 / 2.0),
                                 np.sqrt(24.0 / 6.0)])
    with pytest.raises(UnsupportedBranchError):
        elliptic_params((3.0, 2.0, 1.0), omega0)
    with pytest.raises(UnsupportedBranchError):
        # omega along the third axis: L2 = 2 E I3, boundary case
        elliptic_params(I, (0.0, 0.0, 1.0))


def test_euler_free_exact_satisfies_the_ode():
    I = (1.0, 2.0, 3.0)
    par = elliptic_params(I, (1.0, 0.0, 1.0))
    omega0 = np.array([par.amp[0], 0.0, par.amp[2]])
    t = np.linspace(0.0, 3.0, 31)
    w = euler_free_exact(t, I, omega0)
    assert np.allclose(w[:, 0], omega0, atol=1e-12)
    # centered finite differences against the right-hand side
    eps = 1e-6
    wp = euler_free_exact(t + eps, I, omega0)
    wm = euler_free_exact(t - eps, I, omega0)
    rhs = euler_rhs(I, 0.0)
    for j, tj in enumerate(t):
        assert np.allclose((wp[:, j] - wm[:, j]) / (2 * eps),
                           rhs(tj, w[:, j]), atol=1e-8)
    with pytest.raises(UnsupportedBranchError):
        euler_free_exact(t, I, (1.0, 0.5, 1.0))
    with pytest.raises(UnsupportedBranchError):
        euler_free_exact(t, I, (par.amp[0], 0.0, -par.amp[2]))


def test_rk45_on_linear_oscillator():
    # y'' = -y integrated as a system, with a constant third component;
    # exact solution (cos t, -sin t, 2)
    rhs = lambda t, y: (y[1], -y[0], 0.0)
    sol = rk45_integrate(rhs, (0.0, 10.0), np.array([1.0, 0.0, 2.0]))
    t = np.linspace(0.0, 10.0, 200)
    y = sol(t)
    assert np.abs(y[0] - np.cos(t)).max() < 1e-8
    assert np.abs(y[1] + np.sin(t)).max() < 1e-8
    assert np.abs(y[2] - 2.0).max() < 1e-8


def test_rk45_step_budget_guard():
    rhs = lambda t, y: [-v for v in y]
    with pytest.raises(SolverError):
        rk45_integrate(rhs, (0.0, 1.0), np.array([1.0, 2.0, 3.0]), max_steps=2)


def test_rk45_takes_three_components():
    rhs = lambda t, y: [-v for v in y]
    for y0 in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]):
        with pytest.raises(InvalidArgumentError):
            rk45_integrate(rhs, (0.0, 1.0), y0)


def _generic_rk45(rhs, t_span, y0, rtol=1e-10, atol=1e-12):
    """The Dormand-Prince loop over any number of components, each stage
    sum a loop over the tableau weights: the reference that the written-out
    three-component sums of ``rk45_integrate`` must match bitwise.  Sums
    run left to right from 0, as ``sum`` adds floats before Python 3.12
    (which compensates)."""
    def total(terms):
        return reduce(add, terms, 0)

    def advance(y, h, weights, k):
        return [yi + h * total(map(mul, weights, ki)) for yi, ki in zip(y, k)]

    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float).tolist()
    t = t0
    h = (t1 - t0) * 1e-3
    t_grid = [t0]
    rcont = []
    k = [[d] + [0.0] * 6 for d in rhs(t, y)]      # k[i][s]: component i of stage s
    while t < t1:
        h = min(h, t1 - t)
        for s in range(1, 7):
            ys = advance(y, h, _DP_A[s], k)
            for ki, d in zip(k, rhs(t + _DP_C[s] * h, ys)):
                ki[s] = d
        y5 = ys
        y4 = advance(y, h, _DP_B4, k)
        err = math.sqrt(total(
            ((b - c) / (atol + rtol * max(abs(a), abs(b)))) ** 2
            for a, b, c in zip(y, y5, y4)) / len(y))
        if err <= 1.0:
            dy = [b - a for a, b in zip(y, y5)]
            r3 = [h * ki[0] - d for ki, d in zip(k, dy)]
            r4 = [d - h * ki[6] - r for d, ki, r in zip(dy, k, r3)]
            r5 = [h * total(map(mul, _DP_DENSE, ki)) for ki in k]
            rcont.append((y, dy, r3, r4, r5))
            t += h
            t_grid.append(t)
            y = y5
            for ki in k:         # first-same-as-last
                ki[0] = ki[6]
        factor = 0.9 * (err + 1e-300) ** -0.2
        h *= min(5.0, max(0.2, factor))
    return np.asarray(t_grid), np.asarray(rcont)


@pytest.mark.parametrize("I, omega0, nu, T, min_steps", [
    # repetition 1 of the euler-newton benchmark workload under seed 1
    ((1.0, 2.0, 5.0), (5.019191, 2.942795, -0.049294), 0.416273, 15.0, 300),
    # the euler-damped preset
    ((1.0, 2.0, 5.0), (5.0, 3.0, 0.0), 0.4, 5.0, 200),
    # the euler-free preset's rotation, long enough for 3000 steps
    ((1.0, 2.0, 3.0), (1.0, 0.0, 3.0), 0.0, 34.0, 3000),
])
def test_rk45_matches_the_generic_loop_bitwise(I, omega0, nu, T, min_steps):
    sol = rk45_reference(I, np.array(omega0), nu, T)
    t_grid, rcont = _generic_rk45(euler_rhs(I, nu), (0.0, T), omega0)
    assert len(sol.rcont) >= min_steps
    assert sol.t_grid.tobytes() == t_grid.tobytes()
    assert sol.rcont.shape == rcont.shape
    assert sol.rcont.tobytes() == rcont.tobytes()


def test_rk45_agrees_with_elliptic_solution():
    I = (1.0, 2.0, 3.0)
    par = elliptic_params(I, (1.0, 0.0, 1.0))
    omega0 = np.array([par.amp[0], 0.0, par.amp[2]])
    t = np.linspace(0.0, 3.0, 61)
    num = rk45_reference(I, omega0, 0.0, 3.0)(t)
    exact = euler_free_exact(t, I, omega0)
    assert np.abs(num - exact).max() < 1e-8


def test_rk45_agrees_with_damped_elliptic_solution():
    # isotropic damping rescales free rotation exactly:
    # omega(t) = e^{-nu t} omega_free((1 - e^{-nu t}) / nu)
    I, nu = (1.0, 2.0, 3.0), 0.4
    par = elliptic_params(I, (1.0, 0.0, 1.0))
    omega0 = np.array([par.amp[0], 0.0, par.amp[2]])
    t = np.linspace(0.0, 3.0, 61)
    num = rk45_reference(I, omega0, nu, 3.0)(t)
    decay = np.exp(-nu * t)
    exact = decay * euler_free_exact((1.0 - decay) / nu, I, omega0)
    assert np.abs(num - exact).max() < 1e-8


def test_dense_output_matches_per_point_loop(rng):
    # the per-point loop the vectorized interpolant replaced, as reference
    sol = rk45_reference((1.0, 2.0, 3.0), np.array([0.3, -1.1, 0.7]), 0.1, 3.0)
    t = np.concatenate([rng.uniform(-0.1, 3.1, 4000), sol.t_grid, [0.0, 3.0]])
    ref = np.empty((t.size, 3))
    idx = np.clip(np.searchsorted(sol.t_grid, t, side="right") - 1,
                  0, len(sol.rcont) - 1)
    for j, (ti, i) in enumerate(zip(t, idx)):
        t0, t1 = sol.t_grid[i], sol.t_grid[i + 1]
        theta = (ti - t0) / (t1 - t0)
        r1, r2, r3, r4, r5 = sol.rcont[i]
        ref[j] = r1 + theta * (r2 + (1 - theta) * (r3 + theta * (r4 + (1 - theta) * r5)))
    assert np.array_equal(sol(t), ref.T)
    assert sol(1.5).shape == (3, 1)


def test_algebraic_dual_consistent_systems(rng):
    for trial in range(100):
        m, n = rng.integers(1, 6), rng.integers(1, 6)
        A = rng.standard_normal((m, n))
        y = rng.standard_normal(n)
        b = A @ y
        res = algebraic_dual_demo(A, b)
        assert res.has_solution
        assert np.linalg.norm(A @ res.x - b) <= 1e-8 * max(1.0, np.linalg.norm(b))


def test_algebraic_dual_inconsistent_systems(rng):
    hits = 0
    for trial in range(100):
        n = int(rng.integers(2, 6))
        # rank-one matrix with b outside its range: no solution exists
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        A = np.outer(u, v)
        w = rng.standard_normal(n)
        w -= (w @ u) / (u @ u) * u        # orthogonal to the range
        b = A @ rng.standard_normal(n) + w
        res = algebraic_dual_demo(A, b)
        if not res.has_solution:
            hits += 1
            assert res.x is None
            assert res.residual > 0
    assert hits == 100


def test_algebraic_dual_validation():
    with pytest.raises(InvalidArgumentError):
        algebraic_dual_demo(np.eye(3), np.ones(2))
