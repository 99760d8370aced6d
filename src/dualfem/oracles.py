"""Reference solutions used to verify the dual solvers.

Closed-form heat solutions, a Fourier-series solution for (smoothed) jump
initial data, the transported step, the Jacobi-elliptic free-rotation
solution, an adaptive embedded Runge-Kutta 4(5) integrator, and the
finite-dimensional algebraic dual demonstration.
"""

from __future__ import annotations

import math
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
        raise InvalidArgumentError(f"need at least one series term, got n_terms={n_terms}")
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
    if n_terms < 1:
        raise InvalidArgumentError(f"need at least one series term, got n_terms={n_terms}")
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
        """Evaluate at array x and scalar t (modes below 1e-300 are dropped).

        At t = 0 no mode has decayed.  There, on a grid x = j / N with N
        below the number of modes, sin(2 pi m x) depends on m only through
        m mod N: the coefficients are folded by m mod N and N modes summed.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = float(t)
        n = self.coefficients.size
        N = _grid_size(x, n) if t == 0 else None
        if N is not None:
            folded = np.bincount(np.arange(1, n + 1) % N, weights=self.coefficients,
                                 minlength=N)
            phase = np.outer(np.rint(x * N).astype(np.int64), np.arange(N)) % N
            return self.beta + np.sin(2 * np.pi / N * phase) @ folded
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


def _grid_size(x: np.ndarray, n_max: int) -> int | None:
    """The N below ``n_max`` such that every x is j / N to rounding, read
    from the smallest gap between the values, or None."""
    gaps = np.diff(np.unique(x))
    if not gaps.size:
        return None
    scale = 1.0 / gaps.min()
    if not 0.5 <= scale < n_max - 0.5:
        return None
    N = round(scale)
    j = x * N
    return N if np.abs(j - np.rint(j)).max() <= 1e-12 * max(1.0, np.abs(j).max()) else None


# ---------------------------------------------------------------------------
# transport reference


def transport_exact(x, t, c: float, x0: float, lo: float, hi: float):
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


def elliptic_branch(I, omega0) -> EllipticParams:
    """:func:`elliptic_params` of a state on the branch that
    :func:`euler_free_exact` covers: ordered distinct inertias, k^2 < 1,
    omega_2(0) = 0 and omega_1(0), omega_3(0) > 0.  Any other state raises
    :class:`UnsupportedBranchError`.
    """
    omega0 = np.asarray(omega0, dtype=float)
    par = elliptic_params(I, omega0)
    if abs(omega0[1]) > 1e-12 * np.linalg.norm(omega0):
        raise UnsupportedBranchError("analytical branch requires omega_2(0) = 0")
    if not np.allclose([omega0[0], omega0[2]], [par.amp[0], par.amp[2]],
                       rtol=1e-10, atol=1e-12):
        raise UnsupportedBranchError(
            "initial state inconsistent with the positive cn/dn branch")
    return par


def euler_free_exact(t, I, omega0) -> np.ndarray:
    """Analytical free rotation, shape (3, len(t)), on the branch that
    :func:`elliptic_branch` checks."""
    par = elliptic_branch(I, omega0)
    tau = np.asarray(t, dtype=float) * par.tau_scale
    sn, cn, dn = jacobi_sn_cn_dn(tau, par.k2)
    return np.stack([par.amp[0] * cn, par.amp[1] * sn, par.amp[2] * dn])


# ---------------------------------------------------------------------------
# adaptive embedded Runge-Kutta 4(5), Dormand-Prince coefficients
#
# The integrator works on the three components of the rigid-body system as
# Python floats, each stage sum written out: on three components a NumPy
# call, or a loop over the components, costs far more than the arithmetic.

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    # the fifth-order weights: this stage's state is y5 (first same as last)
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_DENSE = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
             -10690763975 / 1880347072, 701980252875 / 199316789632,
             -1453857185 / 822651844, 69997945 / 29380423)


def euler_rhs(I, nu):
    """Right-hand side of the angular-velocity system, on float sequences."""
    I0, I1, I2 = (float(v) for v in I)
    c0, c1, c2 = I2 - I1, I0 - I2, I1 - I0
    nu = float(nu)

    def rhs(t, w):
        w0, w1, w2 = w
        return (-(c0 * w1 * w2) / I0 - nu * w0,
                -(c1 * w2 * w0) / I1 - nu * w1,
                -(c2 * w0 * w1) / I2 - nu * w2)

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
    """Adaptive Dormand-Prince 4(5) integration of a three-component system,
    with dense output.

    ``rhs(t, y)`` takes the state as a tuple of three floats and returns
    three floats.  Each stage sum is written out per component and added
    left to right in tableau order, ``0 + a_0 k_0 + a_1 k_1 + ...`` with
    the zero weights kept; the error norm is the root mean square over the
    three components.
    """
    y = np.asarray(y0, dtype=float)
    if y.shape != (3,):
        raise InvalidArgumentError(f"the state must have three components, got shape {y.shape}")
    y0, y1, y2 = y.tolist()
    t0, t1 = float(t_span[0]), float(t_span[1])
    t = t0
    h = (t1 - t0) * 1e-3
    t_grid = [t0]
    rcont = []
    _, c1, c2, c3, c4, c5, c6 = _DP_C
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54), (b0, b1, b2, b3, b4, b5) = _DP_A[1:]
    e0, e1, e2, e3, e4, e5, e6 = _DP_B4
    d0, d1, d2, d3, d4, d5, d6 = _DP_DENSE
    # k<s><i>: component i of stage s
    k00, k01, k02 = rhs(t, (y0, y1, y2))
    for _ in range(max_steps):
        if t >= t1:
            break
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise SolverError("step size underflow in RK45 (stiffness?)")
        k10, k11, k12 = rhs(t + c1 * h, (y0 + h * (0 + a10 * k00),
                                         y1 + h * (0 + a10 * k01),
                                         y2 + h * (0 + a10 * k02)))
        k20, k21, k22 = rhs(t + c2 * h, (y0 + h * (0 + a20 * k00 + a21 * k10),
                                         y1 + h * (0 + a20 * k01 + a21 * k11),
                                         y2 + h * (0 + a20 * k02 + a21 * k12)))
        k30, k31, k32 = rhs(t + c3 * h,
                            (y0 + h * (0 + a30 * k00 + a31 * k10 + a32 * k20),
                             y1 + h * (0 + a30 * k01 + a31 * k11 + a32 * k21),
                             y2 + h * (0 + a30 * k02 + a31 * k12 + a32 * k22)))
        k40, k41, k42 = rhs(t + c4 * h,
                            (y0 + h * (0 + a40 * k00 + a41 * k10 + a42 * k20 + a43 * k30),
                             y1 + h * (0 + a40 * k01 + a41 * k11 + a42 * k21 + a43 * k31),
                             y2 + h * (0 + a40 * k02 + a41 * k12 + a42 * k22 + a43 * k32)))
        k50, k51, k52 = rhs(t + c5 * h,
                            (y0 + h * (0 + a50 * k00 + a51 * k10 + a52 * k20 + a53 * k30
                                       + a54 * k40),
                             y1 + h * (0 + a50 * k01 + a51 * k11 + a52 * k21 + a53 * k31
                                       + a54 * k41),
                             y2 + h * (0 + a50 * k02 + a51 * k12 + a52 * k22 + a53 * k32
                                       + a54 * k42)))
        # the fifth-order state (v0, v1, v2) is the last stage's
        v0 = y0 + h * (0 + b0 * k00 + b1 * k10 + b2 * k20 + b3 * k30 + b4 * k40 + b5 * k50)
        v1 = y1 + h * (0 + b0 * k01 + b1 * k11 + b2 * k21 + b3 * k31 + b4 * k41 + b5 * k51)
        v2 = y2 + h * (0 + b0 * k02 + b1 * k12 + b2 * k22 + b3 * k32 + b4 * k42 + b5 * k52)
        k60, k61, k62 = rhs(t + c6 * h, (v0, v1, v2))
        u0 = y0 + h * (0 + e0 * k00 + e1 * k10 + e2 * k20 + e3 * k30 + e4 * k40 + e5 * k50
                       + e6 * k60)
        u1 = y1 + h * (0 + e0 * k01 + e1 * k11 + e2 * k21 + e3 * k31 + e4 * k41 + e5 * k51
                       + e6 * k61)
        u2 = y2 + h * (0 + e0 * k02 + e1 * k12 + e2 * k22 + e3 * k32 + e4 * k42 + e5 * k52
                       + e6 * k62)
        err = math.sqrt((0 + ((v0 - u0) / (atol + rtol * max(abs(y0), abs(v0)))) ** 2
                         + ((v1 - u1) / (atol + rtol * max(abs(y1), abs(v1)))) ** 2
                         + ((v2 - u2) / (atol + rtol * max(abs(y2), abs(v2)))) ** 2) / 3)
        if err <= 1.0:
            dy0, dy1, dy2 = v0 - y0, v1 - y1, v2 - y2
            r30, r31, r32 = h * k00 - dy0, h * k01 - dy1, h * k02 - dy2
            rcont.append((
                (y0, y1, y2), (dy0, dy1, dy2), (r30, r31, r32),
                (dy0 - h * k60 - r30, dy1 - h * k61 - r31, dy2 - h * k62 - r32),
                (h * (0 + d0 * k00 + d1 * k10 + d2 * k20 + d3 * k30 + d4 * k40 + d5 * k50
                      + d6 * k60),
                 h * (0 + d0 * k01 + d1 * k11 + d2 * k21 + d3 * k31 + d4 * k41 + d5 * k51
                      + d6 * k61),
                 h * (0 + d0 * k02 + d1 * k12 + d2 * k22 + d3 * k32 + d4 * k42 + d5 * k52
                      + d6 * k62))))
            t += h
            t_grid.append(t)
            y0, y1, y2 = v0, v1, v2
            k00, k01, k02 = k60, k61, k62     # first same as last
        factor = 0.9 * (err + 1e-300) ** -0.2
        h *= min(5.0, max(0.2, factor))
    else:
        raise SolverError("RK45 exceeded the step budget")
    return DenseOutput(t_grid, rcont)


def rk45_reference(I, omega0, nu, T):
    """Dense reference trajectory for the rigid-body system over [0, T]."""
    return rk45_integrate(euler_rhs(I, nu), (0.0, T), omega0)


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
