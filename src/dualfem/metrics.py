"""Error measures: pointwise percent error, rms-normalized err1/err2, and
the vector error for the angular velocity."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .fem import LINE_N

REF_FLOOR = 1e-12


def pct_error(u, u_ref):
    """Pointwise |(u - u_ref) / u_ref| * 100; points with |u_ref| below the
    floor are returned as NaN (excluded, flagged)."""
    u = np.asarray(u, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    out = np.full(np.broadcast(u, u_ref).shape, np.nan)
    ok = np.abs(u_ref) > REF_FLOOR
    out[ok] = np.abs((u - u_ref) / np.where(ok, u_ref, 1.0))[ok] * 100.0
    return out


def _row_rms(values_nodal: np.ndarray, hx: float) -> np.ndarray:
    """Spatial rms of each time row of a nodal grid via 2-point Gauss on the
    piecewise-linear interpolant."""
    v = np.asarray(values_nodal, dtype=float)
    L = hx * (v.shape[-1] - 1)
    acc = np.zeros(v.shape[:-1])
    for n0, n1 in LINE_N:
        vg = n0 * v[..., :-1] + n1 * v[..., 1:]
        acc = acc + 0.5 * hx * np.sum(vg ** 2, axis=-1)
    return np.sqrt(acc / L)


def err1(u, u_exact, hx: float):
    """Local rms-normalized error field: |u - u^e| / rms(u^e, t) * 100.

    ``u`` and ``u_exact`` are nodal grids of shape (n_rows, nx+1).
    """
    u = np.asarray(u, dtype=float)
    u_exact = np.asarray(u_exact, dtype=float)
    rms = _row_rms(u_exact, hx)
    if np.any(rms <= REF_FLOOR):
        raise InvalidArgumentError("reference rms vanishes on some time level")
    return np.abs(u - u_exact) / rms[..., None] * 100.0


def err2(u, u_exact, hx: float):
    """Global rms-normalized error series: rms(u - u^e, t) / rms(u^e, t) * 100."""
    u = np.asarray(u, dtype=float)
    u_exact = np.asarray(u_exact, dtype=float)
    rms = _row_rms(u_exact, hx)
    if np.any(rms <= REF_FLOOR):
        raise InvalidArgumentError("reference rms vanishes on some time level")
    return _row_rms(u - u_exact, hx) / rms * 100.0


def err_omega(omega, omega_ref):
    """Relative Euclidean error series of a (3, n) trajectory, in percent."""
    omega = np.asarray(omega, dtype=float)
    omega_ref = np.asarray(omega_ref, dtype=float)
    denom = np.sqrt(np.sum(omega_ref ** 2, axis=0))
    if np.any(denom <= REF_FLOOR):
        raise InvalidArgumentError("reference trajectory vanishes at some time")
    return 100.0 * np.sqrt(np.sum((omega - omega_ref) ** 2, axis=0)) / denom
