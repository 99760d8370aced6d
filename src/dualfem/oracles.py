"""Reference solutions used to verify the dual solvers.

Closed-form heat solutions, a Fourier-series solution for (smoothed) jump
initial data, the transported step, the Jacobi-elliptic free-rotation
solution, an adaptive embedded Runge-Kutta 4(5) integrator, and the
finite-dimensional algebraic dual demonstration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SolverError, UnsupportedBranchError

# ---------------------------------------------------------------------------
# heat equation references


def heat_steady(x):
    """Steady profile theta = 3x + 1."""
    return 3.0 * np.asarray(x, dtype=float) + 1.0


def heat_transient(x, t, k):
    """theta = sin(pi x / 2) exp(-pi^2 k t / 4) + 1."""
    if k <= 0:
        raise InvalidArgumentError(f"conductivity must be positive, got {k}")
    x = np.asarray(x, dtype=float)
    return np.sin(0.5 * np.pi * x) * np.exp(-0.25 * np.pi ** 2 * k * np.asarray(t)) + 1.0


def fourier_jump_coefficients(beta: float, eps: float, n_terms: int) -> np.ndarray:
    """Sine-series coefficients of the smoothed-jump initial profile.

    The three pieces below are the raw integrals of the profile (minus its
    shift beta) against sin(2 pi m x) over the three sub-intervals; the
    leading factor 2 is the normalization 1 / int sin^2 = 2 on (0, 1).
    """
    if not 0 < eps < 0.5:
        raise InvalidArgumentError(f"smoothing half-width must be in (0, 0.5), got {eps}")
    if n_terms < 1:
        raise InvalidArgumentError("need at least one series term")
    l, r = 0.5 - eps, 0.5 + eps
    ks = (2 * eps - 1) / eps
    cs = beta - (2 * eps - 1) / (2 * eps)
    m = np.arange(1, n_terms + 1, dtype=float)
    pm = np.pi * m
    a1 = (np.sin(2 * pm * l) / (2 * pm ** 2)
          - l * np.cos(2 * pm * l) / pm
          + beta * (1 - np.cos(2 * pm * l)) / (2 * pm))
    a2 = (2 * np.pi * cs * m * (np.cos(2 * pm * l) - np.cos(2 * pm * r))
          + ks * (-2 * np.pi * r * m * np.cos(2 * pm * r) + np.sin(2 * pm * r)
                  + 2 * np.pi * l * m * np.cos(2 * pm * l) - np.sin(2 * pm * l))
          ) / (4 * pm ** 2)
    a3 = (-beta * pm + (beta - 2 + 2 * r) * pm * np.cos(2 * pm * r)
          + np.sin(2 * pm) - np.sin(2 * pm * r)) / (2 * pm ** 2)
    return 2.0 * (a1 + a2 + a3)


def fourier_discontinuous_coefficients(n_terms: int) -> np.ndarray:
    """Coefficients for the sharp jump profile: a_m = 2 (-1)^{m+1} / (pi m)."""
    m = np.arange(1, n_terms + 1, dtype=float)
    return 2.0 * (-1.0) ** (m + 1) / (np.pi * m)


@dataclass
class FourierHeatSolution:
    """theta(x, t) = beta + sum_m a_m sin(2 pi m x) exp(-(2m)^2 pi^2 k t)."""

    beta: float
    k: float
    coefficients: np.ndarray

    @classmethod
    def smoothed_jump(cls, beta: float, eps: float, k: float,
                      n_terms: int = 100_000) -> "FourierHeatSolution":
        return cls(beta=beta, k=k,
                   coefficients=fourier_jump_coefficients(beta, eps, n_terms))

    @classmethod
    def discontinuous(cls, beta: float, k: float,
                      n_terms: int = 100_000) -> "FourierHeatSolution":
        return cls(beta=beta, k=k,
                   coefficients=fourier_discontinuous_coefficients(n_terms))

    def __call__(self, x, t):
        """Evaluate at array x and scalar t (modes below 1e-300 are dropped)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = float(t)
        n = self.coefficients.size
        m_all = np.arange(1, n + 1, dtype=float)
        rate = 4.0 * np.pi ** 2 * self.k * t
        if t > 0:
            n_active = int(np.searchsorted(rate * m_all ** 2, 690.0))
            n_active = max(n_active, 1)
        else:
            n_active = n
        out = np.full(x.shape, self.beta)
        chunk = 4096
        for s in range(0, n_active, chunk):
            e = min(s + chunk, n_active)
            m = m_all[s:e]
            amp = self.coefficients[s:e] * np.exp(-rate * m ** 2)
            out += np.sin(2 * np.pi * np.outer(x, m)) @ amp
        return out


# ---------------------------------------------------------------------------
# transport reference


def transport_exact(x, t, c: float = 0.25, x0: float = 0.2,
                    lo: float = 2.0, hi: float = 4.0):
    """Transported step: lo below the locus x0 + c t, hi above, mean on it."""
    x = np.asarray(x, dtype=float)
    locus = x0 + c * np.asarray(t)
    return np.where(x < locus, lo, np.where(x > locus, hi, 0.5 * (lo + hi)))


# ---------------------------------------------------------------------------
# Jacobi elliptic functions (arithmetic-geometric mean)


def jacobi_am(u, m: float) -> np.ndarray:
    """Jacobi amplitude am(u, m) for modulus-squared 0 <= m < 1."""
    u = np.asarray(u, dtype=float)
    if not 0 <= m < 1:
        raise InvalidArgumentError(f"modulus squared must be in [0, 1), got {m}")
    if m < 1e-16:
        return u.copy()
    a, b, c = 1.0, np.sqrt(1.0 - m), np.sqrt(m)
    a_seq, c_seq = [a], [c]
    while abs(c) > 1e-17 and len(a_seq) < 64:
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        a_seq.append(a)
        c_seq.append(c)
    n = len(a_seq) - 1
    phi = (2.0 ** n) * a_seq[n] * u
    for i in range(n, 0, -1):
        ratio = np.clip(c_seq[i] / a_seq[i] * np.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(ratio))
    return phi


def jacobi_sn_cn_dn(u, m: float):
    """sn, cn, dn via the amplitude function."""
    phi = jacobi_am(u, m)
    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(np.clip(1.0 - m * sn ** 2, 0.0, None))
    return sn, cn, dn


@dataclass(frozen=True)
class EllipticParams:
    """Derived constants of the free-rotation solution."""

    E: float
    L2: float
    tau_scale: float
    k2: float
    amp: np.ndarray          # amplitudes of (omega_1, omega_2, omega_3)


def elliptic_params(I, omega0) -> EllipticParams:
    I = np.asarray(I, dtype=float)
    omega0 = np.asarray(omega0, dtype=float)
    if not (I[0] < I[1] < I[2]):
        raise UnsupportedBranchError(
            f"analytical branch requires I1 < I2 < I3, got {I}")
    E = 0.5 * float(np.sum(I * omega0 ** 2))
    L2 = float(np.sum(I ** 2 * omega0 ** 2))
    A = 2 * E * I[2] - L2
    B = L2 - 2 * E * I[0]
    if A <= 0 or B <= 0:
        raise UnsupportedBranchError(
            "analytical branch requires 2 E I1 < L^2 < 2 E I3 strictly")
    k2 = (I[1] - I[0]) * A / ((I[2] - I[1]) * B)
    if k2 >= 1:
        raise UnsupportedBranchError(f"elliptic modulus k^2 = {k2} >= 1")
    tau_scale = np.sqrt((I[2] - I[1]) * B / (I[0] * I[1] * I[2]))
    amp = np.array([np.sqrt(A / (I[0] * (I[2] - I[0]))),
                    np.sqrt(A / (I[1] * (I[2] - I[1]))),
                    np.sqrt(B / (I[2] * (I[2] - I[0])))])
    return EllipticParams(E=E, L2=L2, tau_scale=float(tau_scale), k2=float(k2), amp=amp)


def euler_free_exact(t, I, omega0) -> np.ndarray:
    """Analytical free rotation, shape (3, len(t)).

    Supports the branch with omega_2(0) = 0, omega_1(0), omega_3(0) > 0 and
    ordered distinct inertias; other sign regimes raise.
    """
    omega0 = np.asarray(omega0, dtype=float)
    par = elliptic_params(I, omega0)
    if abs(omega0[1]) > 1e-12 * np.linalg.norm(omega0):
        raise UnsupportedBranchError("analytical branch requires omega_2(0) = 0")
    if not np.allclose([omega0[0], omega0[2]], [par.amp[0], par.amp[2]],
                       rtol=1e-10, atol=1e-12):
        raise UnsupportedBranchError(
            "initial state inconsistent with the positive cn/dn branch")
    tau = np.asarray(t, dtype=float) * par.tau_scale
    sn, cn, dn = jacobi_sn_cn_dn(tau, par.k2)
    return np.stack([par.amp[0] * cn, par.amp[1] * sn, par.amp[2] * dn])


# ---------------------------------------------------------------------------
# adaptive embedded Runge-Kutta 4(5), Dormand-Prince coefficients

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_DENSE = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                      -10690763975 / 1880347072, 701980252875 / 199316789632,
                      -1453857185 / 822651844, 69997945 / 29380423])


def euler_rhs(I, nu):
    """Right-hand side of the angular-velocity system."""
    I = np.asarray(I, dtype=float)
    c = np.array([I[(i + 2) % 3] - I[(i + 1) % 3] for i in range(3)])

    def rhs(t, w):
        return -(c * w[[1, 2, 0]] * w[[2, 0, 1]]) / I - nu * w

    return rhs


class DenseOutput:
    """Continuous Runge-Kutta solution built from per-step quartic interpolants."""

    def __init__(self, t_grid, rcont):
        self.t_grid = np.asarray(t_grid)
        self.rcont = np.asarray(rcont)  # (steps, 5, n_dim), one quartic per step

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.clip(np.searchsorted(self.t_grid, t, side="right") - 1,
                      0, len(self.rcont) - 1)
        t0, t1 = self.t_grid[idx], self.t_grid[idx + 1]
        theta = ((t - t0) / (t1 - t0))[:, None]
        r1, r2, r3, r4, r5 = np.moveaxis(self.rcont[idx], 1, 0)   # each (n_t, n_dim)
        out = r1 + theta * (r2 + (1 - theta) * (r3 + theta * (r4 + (1 - theta) * r5)))
        return out.T


def rk45_integrate(rhs, t_span, y0, rtol: float = 1e-10, atol: float = 1e-12,
                   max_steps: int = 1_000_000) -> DenseOutput:
    """Adaptive Dormand-Prince 4(5) integration with dense output."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    h = (t1 - t0) * 1e-3
    t_grid = [t0]
    rcont = []
    k = np.empty((7, y.size))
    k[0] = rhs(t, y)
    for _ in range(max_steps):
        if t >= t1:
            break
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise SolverError("step size underflow in RK45 (stiffness?)")
        for s in range(1, 7):
            ys = y + h * (_DP_A[s] @ k[:s])
            k[s] = rhs(t + _DP_C[s] * h, ys)
        y5 = y + h * (_DP_B5 @ k)
        y4 = y + h * (_DP_B4 @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = np.sqrt(np.mean(((y5 - y4) / scale) ** 2))
        if err <= 1.0:
            dy = y5 - y
            r3 = h * k[0] - dy
            r4 = dy - h * k[6] - r3
            r5 = h * (_DP_DENSE @ k)
            rcont.append(np.stack([y, dy, r3, r4, r5]))
            t += h
            t_grid.append(t)
            y = y5
            k[0] = k[6]          # first-same-as-last
        factor = 0.9 * (err + 1e-300) ** -0.2
        h *= min(5.0, max(0.2, factor))
    else:
        raise SolverError("RK45 exceeded the step budget")
    return DenseOutput(t_grid, rcont)


def rk45_reference(I, omega0, nu, T, rtol: float = 1e-10, atol: float = 1e-12):
    """Dense reference trajectory for the rigid-body system over [0, T]."""
    return rk45_integrate(euler_rhs(I, nu), (0.0, T), omega0, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# finite-dimensional algebraic dual demonstration


@dataclass
class AlgebraicDualResult:
    has_solution: bool
    x: np.ndarray | None
    z: np.ndarray | None
    residual: float


def algebraic_dual_demo(Abar: np.ndarray, b: np.ndarray,
                        rtol: float = 1e-10) -> AlgebraicDualResult:
    """Solve A x = b through the dual system -A A^T z = b.

    The dual system is solved in the least-norm sense; x = -A^T z is
    returned only when it actually satisfies A x = b (relative residual
    below ``rtol``), otherwise a no-solution report is produced.
    """
    A = np.atleast_2d(np.asarray(Abar, dtype=float))
    b = np.asarray(b, dtype=float)
    if A.shape[0] != b.shape[0]:
        raise InvalidArgumentError(f"shape mismatch: A {A.shape}, b {b.shape}")
    G = -A @ A.T
    z, *_ = np.linalg.lstsq(G, b, rcond=None)
    x = -A.T @ z
    resid = np.linalg.norm(A @ x - b)
    scale = np.linalg.norm(b)
    ok = resid <= rtol * scale if scale > 0 else resid <= rtol
    if ok:
        return AlgebraicDualResult(True, x, z, resid)
    return AlgebraicDualResult(False, None, z, resid)
