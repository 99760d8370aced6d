"""Configuration-driven command line front end.

Subcommands::

    dualfem run <config.json> [--out DIR]
    dualfem preset <name> [--out DIR]
    dualfem list-presets

Field and error data are written as CSV with 17-significant-digit values,
each the bytes of ``"%.17g" % v``; ``_format_g17`` formats a block of up to
4096 values at once by exact two-product rounding.  A machine-readable
``summary.json`` records configuration, diagnostics, and metric maxima.
The output directory defaults to ``./dualfem-out`` and can be overridden
by ``--out`` or the ``DUALFEM_OUT`` environment variable.

Exit codes: 0 success, 2 configuration error (an unusable output directory
too), 3 solver error (a NaN or infinite summary metric too), 4 unsupported
analytical branch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import euler as euler_mod
from . import heat as heat_mod
from . import metrics, oracles, transport
from .errors import DualFemError, InvalidArgumentError, UnsupportedBranchError
from .mesh import NodalGrid, build_space_time_mesh
from .presets import get_preset, list_presets

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BRANCH = 4


class ConfigError(InvalidArgumentError):
    """A config key is missing, invalid or unknown."""


#: marks a key that has no default
REQUIRED = object()

_BETA = (float, 10.0)
_N_TERMS = (int, 100_000)
_STEP = {"x_jump": (float, 0.2), "lo": (float, 2.0), "hi": (float, 4.0)}
_INITIAL = {"linear": {"slope": (float, 0.0), "intercept": (float, 0.0)}, "sine_plus_one": {},
            "jump": {"beta": _BETA}, "smoothed_jump": {"beta": _BETA, "eps": (float, REQUIRED)},
            "step": _STEP}
_EULER = euler_mod.EulerConfig

#: Each problem kind's keys as ``key: (kind, default)``, a None default making
#: a key optional.  A kind is ``float`` (a finite real), ``int`` (a whole count
#: >= 0; a boolean is neither), a tuple of names, a one-kind list such as
#: ``[float]``, or a family: each ``type`` name mapped to its own keys.
KEYS = {
    "heat": {
        "k": (float, REQUIRED), "L": (float, REQUIRED), "T": (float, REQUIRED),
        "nx": (int, REQUIRED), "nt": (int, REQUIRED),
        "T_keep": (float, np.inf),
        "right_mode": ((heat_mod.NEUMANN_PI, heat_mod.DIRICHLET_THETA), heat_mod.NEUMANN_PI),
        "theta_left": (float, 0.0),
        # each valid only in its own right_mode (``_RIGHT_KEY``), 0.0 there when absent
        **dict.fromkeys(("pi_right", "theta_right"), (float, None)),
        "initial": (_INITIAL, REQUIRED),
        "dual_bc": ({"zero": {}, "steady_family": {}}, {"type": "zero"}),
        "reference": ({"steady": {}, "transient": {}, "fourier_smoothed": {"n_terms": _N_TERMS},
                       "fourier_discontinuous": {"n_terms": _N_TERMS}}, None),
        "metrics": ([("pct", "err1", "err2")], ["pct"]),
    },
    "transport": {
        **dict.fromkeys(("c", "L", "T_total", "T_stage", "T_keep"), (float, REQUIRED)),
        "nx": (int, REQUIRED), "nt": (int, REQUIRED),
        "u_left": (float, 2.0),
        # the reference, the jump tracking and both error masks assume a step
        "initial": ({"step": _STEP}, REQUIRED),
        # every transport metric is always written; the list is only checked
        "metrics": ([("pct", "jump_track")], ["pct"]),
    },
    "euler": {
        "I": ([float], REQUIRED), "omega0": ([float], REQUIRED),
        "nu": (float, _EULER.nu), "a": (float, _EULER.a),
        "T_total": (float, REQUIRED), "T_stage": (float, REQUIRED),
        "ne_per_stage": (int, REQUIRED), "N_c": (int, _EULER.N_c), "tol": (float, _EULER.tol),
        "reference": (("elliptic", "rk45"), "rk45"),
        "refinements": ([int], []),
    },
    "algebraic-demo": {"n_cases": (int, 100), "rows": (int, 4), "cols": (int, 6),
                       "seed": (int, 0)},
}


def _read(cfg: dict, keys: dict, label: str, at: str = "") -> dict:
    """Every key of the table ``keys`` read from ``cfg`` by its kind, a null or
    absent one at its default; a missing, invalid or unknown key (``problem``
    and ``preset`` are known at the top level) is a ConfigError naming it."""
    unknown = sorted(set(cfg) - set(keys) - (set() if at else {"problem", "preset"}))
    if unknown:
        raise ConfigError(f"config field {at + unknown[0]!r} is unknown "
                          f"(known: {', '.join(keys) or 'none'})")
    out = {}
    for key, (kind, default) in keys.items():
        if cfg.get(key) is not None:
            out[key] = _value(kind, cfg[key], at + key, f"{label} {key}")
        elif default is REQUIRED:
            raise ConfigError(f"config field {at + key!r} is missing")
        else:
            out[key] = default
    return out


def _value(kind, value, name: str, label: str):
    """``value`` of the key ``name`` read as ``kind`` (see ``KEYS``); ``label``
    names what a name of a tuple kind is, e.g. "heat metrics"."""
    def bad(detail):
        return ConfigError(f"config field {name!r} is not valid: {detail}")
    if isinstance(kind, tuple):
        if not isinstance(value, str) or value not in kind:
            raise bad(f"unknown {label} {value!r} (known: {', '.join(kind)})")
        return value
    if isinstance(kind, list):             # a string would read letter by letter
        if not isinstance(value, list):
            raise bad(f"{value!r} is not a list")
        return [_value(kind[0], v, name, label.removesuffix("s")) for v in value]
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise bad(f"{value!r} is not an object")
        rest = dict(value)
        family = _value(tuple(kind), rest.pop("type", None), name, f"{label} type")
        return {"type": family, **_read(rest, kind[family], label, f"{name}.")}
    if isinstance(value, bool):            # float(True) would be 1.0
        raise bad(f"{value!r} is a boolean")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise bad(exc) from None
    if not np.isfinite(number):
        raise bad(f"{value!r} is not finite")
    if kind is int and not (number.is_integer() and number >= 0):
        raise bad(f"{value!r} is not a whole count")
    return int(number) if kind is int else number


# ---------------------------------------------------------------------------
# named function families; each takes its spec as read by ``_read``


def make_initial(spec: dict):
    kind = spec["type"]
    if kind == "linear":
        a, b = spec["slope"], spec["intercept"]
        return lambda x: a * np.asarray(x, dtype=float) + b
    if kind == "sine_plus_one":
        return lambda x: np.sin(0.5 * np.pi * np.asarray(x, dtype=float)) + 1.0
    if kind == "jump":
        beta = spec["beta"]

        def jump(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0.5, beta + 2 * x,
                            np.where(x > 0.5, beta - 2 + 2 * x, beta))
        return jump
    if kind == "smoothed_jump":
        beta, eps = spec["beta"], spec["eps"]
        if not 0 < eps < 0.5:
            raise ConfigError(f"config field 'initial.eps' is not valid: "
                              f"need 0 < eps < 0.5, got {eps}")
        ks = (2 * eps - 1) / eps
        cs = beta - (2 * eps - 1) / (2 * eps)
        lo, hi = 0.5 - eps, 0.5 + eps

        def smoothed(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < lo, beta + 2 * x,
                            np.where(x > hi, beta - 2 + 2 * x, ks * x + cs))
        return smoothed
    xj, lo, hi = spec["x_jump"], spec["lo"], spec["hi"]

    def step(x):
        # the mean within 1e-12 of the jump, so that a node meant to lie on
        # it takes the mean despite round-off in its coordinate
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x - xj) <= 1e-12, 0.5 * (lo + hi), np.where(x < xj, lo, hi))
    return step


def make_dual_bc(spec: dict, k: float) -> dict:
    """The dual traces of a family; a trace it leaves out is zero."""
    if spec["type"] == "zero":
        return {}
    _, l_exact = heat_mod.steady_dual_family(k=k)
    return {"l_top": l_exact,
            "l_right": lambda t: np.full_like(np.asarray(t, dtype=float), float(l_exact(1.0)))}


def make_heat_reference(spec: dict, k: float, initial: dict):
    kind = spec["type"]
    if kind == "steady":
        return lambda x, t: oracles.heat_steady(x)
    if kind == "transient":
        return lambda x, t: oracles.heat_transient(x, t, k)
    family = "smoothed_jump" if kind == "fourier_smoothed" else "jump"
    if initial["type"] != family:
        raise ConfigError(f"config field 'reference' is not valid: {kind!r} needs "
                          f"the {family!r} initial, got {initial['type']!r}")
    if kind == "fourier_smoothed":
        return oracles.FourierHeatSolution.smoothed_jump(
            beta=initial["beta"], eps=initial["eps"], k=k, n_terms=spec["n_terms"])
    return oracles.FourierHeatSolution.discontinuous(
        beta=initial["beta"], k=k, n_terms=spec["n_terms"])


# ---------------------------------------------------------------------------
# run drivers; each returns (summary_metrics, artifacts) where artifacts maps
# filename -> (header, rows), the CSVs a run writes, and rows is a 2-D float
# array of rows or a NodalGrid


#: the right-boundary key each heat right_mode reads
_RIGHT_KEY = {heat_mod.NEUMANN_PI: "pi_right", heat_mod.DIRICHLET_THETA: "theta_right"}


def build_heat_problem(cfg: dict):
    """The problem and mesh of a heat config read by ``_read``; the boundary
    key of the other right_mode is a ConfigError naming it."""
    k, L, T, mode = cfg["k"], cfg["L"], cfg["T"], cfg["right_mode"]
    right = _RIGHT_KEY[mode]
    for key in _RIGHT_KEY.values():
        if key != right and cfg[key] is not None:
            raise ConfigError(f"config field {key!r} is not valid: right_mode {mode!r} "
                              f"reads {right!r}")
    values = {"theta_left": cfg["theta_left"], right: 0.0 if cfg[right] is None else cfg[right]}
    problem = heat_mod.HeatProblem(
        k=k, L=L, T=T,
        theta0=make_initial(cfg["initial"]),
        right_mode=mode,
        **{key: lambda s, v=v: np.full_like(np.asarray(s, dtype=float), v)
           for key, v in values.items()},
        **make_dual_bc(cfg["dual_bc"], k))
    mesh = build_space_time_mesh(L, T, cfg["nx"], cfg["nt"])
    return problem, mesh


def run_heat(cfg: dict):
    cfg = _read(cfg, KEYS["heat"], "heat")
    T_keep, wanted, spec = cfg["T_keep"], cfg["metrics"], cfg["reference"]
    if not T_keep >= 0:
        raise ConfigError(f"config field 'T_keep' is not valid: need T_keep >= 0, "
                          f"got {T_keep}")
    problem, mesh = build_heat_problem(cfg)
    reference = make_heat_reference(spec, problem.k, cfg["initial"]) if spec else None
    _, grid = heat_mod.solve_heat_primal(problem, mesh)
    x, t = mesh.x_coords(), mesh.t_coords()

    keep = t <= T_keep + 1e-12

    summary: dict = {}
    artifacts = {"theta.csv": (["x", "t", "theta"], NodalGrid(x, t, grid))}
    if reference is not None:
        ref_grid = np.vstack([np.asarray(reference(x, tv), dtype=float) for tv in t])
        if "pct" in wanted:
            pct = metrics.pct_error(grid, ref_grid)
            summary["max_pct_error_retained"] = float(np.nanmax(pct[keep]))
            artifacts["error.csv"] = (["x", "t", "pct_error"],
                                      NodalGrid(x, t[keep], pct[keep]))
        if "err1" in wanted:
            e1 = metrics.err1(grid, ref_grid, mesh.hx)
            summary["max_err1_retained"] = float(np.max(e1[keep]))
        if "err2" in wanted:
            e2 = metrics.err2(grid, ref_grid, mesh.hx)
            summary["max_err2_retained"] = float(np.max(e2[keep]))
            artifacts["err2.csv"] = (["t", "err2"], np.column_stack([t[keep], e2[keep]]))
    return summary, artifacts


def _transport_masks(x, t, locus, L: float):
    """The (t, x) nodes each transport error maximum leaves out: the jump
    band of six elements and the sqrt(h) jump layer, each with the 10h
    outflow layer.  A mask that leaves no node is a ConfigError."""
    h = x[1] - x[0]
    jump_dist = np.abs(x[None, :] - locus(t)[:, None])
    right_layer = x[None, :] > x[-1] - 10 * h - 1e-12
    # the layer around the jump widens like sqrt(h); criterion 4a masks it
    # at 1.5 sqrt(h L), the measured 1% width plus a third
    masks = ((jump_dist <= 6 * h + 1e-12) | right_layer,
             (jump_dist <= 1.5 * np.sqrt(h * L) + 1e-12) | right_layer)
    if any(mask.all() for mask in masks):
        raise ConfigError(f"config fields 'L' and 'nx' are not valid: the jump and "
                          f"outflow masks leave no node of (0, L) at L={L}, "
                          f"nx={x.size - 1}")
    return masks


def run_transport(cfg: dict):
    cfg = _read(cfg, KEYS["transport"], "transport")
    step, c = cfg["initial"], cfg["c"]
    xj, lo, hi = step["x_jump"], step["lo"], step["hi"]
    problem = transport.TransportProblem(
        c=c, L=cfg["L"], T_total=cfg["T_total"],
        u0=make_initial(step),
        u_left=lambda t, v=cfg["u_left"]: np.full_like(np.asarray(t, dtype=float), v))
    plan = transport.StagePlan.cover(cfg["T_stage"], cfg["T_keep"], problem.T_total)
    locus = lambda t: xj + c * t
    x, t = transport.retained_grid(problem, plan, cfg["nx"], cfg["nt"])
    near_jump, in_layer = _transport_masks(x, t, locus, problem.L)
    field = transport.run_time_sliced(problem, plan, cfg["nx"], cfg["nt"])
    ht, hb = transport.track_jump(field, locus, lo=lo, hi=hi)

    ref = oracles.transport_exact(field.x[None, :], field.t[:, None],
                                  c=c, x0=xj, lo=lo, hi=hi)
    pct = metrics.pct_error(field.values, ref)

    summary = {
        "n_stages": plan.n_stages,
        "max_pct_error_interior": float(np.nanmax(np.where(near_jump, np.nan, pct))),
        "max_pct_error_outside_layer": float(np.nanmax(np.where(in_layer, np.nan, pct))),
        "max_overshoot": float(ht.max()),
        "max_undershoot": float(hb.max()),
    }
    artifacts = {
        "u.csv": (["x", "t", "u"], field),
        "jump.csv": (["t", "h_t", "h_b"], np.column_stack([field.t, ht, hb])),
    }
    return summary, artifacts


def _euler_reference(kind: str, config: euler_mod.EulerConfig, T: float):
    """omega(t) of the reference ``kind`` on [0, T], a callable of the times."""
    if kind == "elliptic":
        return lambda t: oracles.euler_free_exact(t, config.I, config.omega0)
    return oracles.rk45_reference(config.I, config.omega0, config.nu, T=T)


def run_euler_cfg(cfg: dict):
    cfg = _read(cfg, KEYS["euler"], "euler")
    kind, refinements = cfg.pop("reference"), cfg.pop("refinements")
    if kind == "elliptic" and cfg["nu"] > 0:
        raise ConfigError(f"config field 'reference' is not valid: the 'elliptic' "
                          f"reference is undamped and needs nu = 0, got nu={cfg['nu']}")
    config = euler_mod.EulerConfig(**cfg)
    short = [ne for ne in refinements if not config.N_c < ne]
    if short:
        raise ConfigError(f"config field 'refinements' is not valid: entry {short[0]} "
                          f"needs more than N_c = {config.N_c} elements per stage")
    # one config per mesh, the main one first, each checked before any solve
    configs = {config.ne_per_stage: config,
               **{ne: replace(config, ne_per_stage=ne) for ne in refinements}}
    if kind == "elliptic":          # an unsupported branch is exit 4 before any solve
        oracles.elliptic_branch(config.I, config.omega0)
    runs = {ne: euler_mod.run_euler(sub) for ne, sub in configs.items()}
    # one reference, to the end of the longest run, serves every run
    reference = _euler_reference(kind, config, max(float(r.t[-1]) for r in runs.values()))
    run = runs[config.ne_per_stage]
    E = euler_mod.kinetic_energy(config.I, run.omega)
    L = euler_mod.momentum_magnitude(config.I, run.omega)

    summary = {
        "n_stages": len(run.stages),
        "max_err_omega": float(metrics.err_omega(run.omega, reference(run.t)).max()),
        "energy_drift_rel": float(np.max(np.abs(E - E[0])) / E[0]),
        "momentum_drift_rel": float(np.max(np.abs(L - L[0])) / L[0]),
        "newton_iters": [s.newton_iters for s in run.stages],
    }
    if config.nu > 0:
        L_exact = L[0] * np.exp(-config.nu * run.t)
        summary["momentum_decay_err_rel"] = float(np.max(np.abs(L - L_exact) / L_exact))

    if refinements:
        errs = [float(metrics.err_omega(runs[ne].omega, reference(runs[ne].t)).max())
                for ne in refinements]
        summary["refinement_ne"] = refinements
        summary["refinement_max_err"] = errs
        summary["refinement_ratios"] = [errs[i] / errs[i + 1]
                                        for i in range(len(errs) - 1)]

    increments = [st.increments for st in run.stages]
    artifacts = {
        "omega.csv": (["t", "omega1", "omega2", "omega3", "E", "L"],
                      np.column_stack([run.t, run.omega.T, E, L])),
        "newton.csv": (["stage", "iteration", "max_increment"],
                       np.column_stack([
                           np.repeat(np.arange(1, len(increments) + 1),
                                     [len(inc) for inc in increments]),
                           np.concatenate([np.arange(1, len(inc) + 1) for inc in increments]),
                           np.concatenate(increments)])),
    }
    return summary, artifacts


def run_algebraic_demo(cfg: dict):
    cfg = _read(cfg, KEYS["algebraic-demo"], "algebraic-demo")
    for key in ("n_cases", "rows", "cols"):
        if cfg[key] < 1:
            raise ConfigError(f"config field {key!r} is not valid: need {key} >= 1, "
                              f"got {cfg[key]}")
    rng = np.random.default_rng(cfg["seed"])
    n_cases, rows, cols = cfg["n_cases"], cfg["rows"], cfg["cols"]
    solved = reported_no_solution = false_positive = 0
    for _ in range(n_cases):
        A = rng.standard_normal((rows, cols))
        y = rng.standard_normal(cols)
        res = oracles.algebraic_dual_demo(A, A @ y)
        if res.has_solution and np.linalg.norm(A @ res.x - A @ y) <= 1e-10 * np.linalg.norm(A @ y):
            solved += 1
    for _ in range(n_cases):
        A = rng.standard_normal((rows, cols))
        A[-1] = A[0]                       # rank-deficient rows
        b = rng.standard_normal(rows)
        b = b - A @ np.linalg.lstsq(A, b, rcond=None)[0]   # out-of-range part
        if np.linalg.norm(b) < 1e-8:
            continue
        res = oracles.algebraic_dual_demo(A, b)
        if res.has_solution:
            false_positive += 1
        else:
            reported_no_solution += 1
    summary = {
        "consistent_solved": solved,
        "inconsistent_reported": reported_no_solution,
        "false_positives": false_positive,
        "n_cases": n_cases,
    }
    return summary, {}


RUNNERS = {
    "heat": run_heat,
    "transport": run_transport,
    "euler": run_euler_cfg,
    "algebraic-demo": run_algebraic_demo,
}


# ---------------------------------------------------------------------------
# artifact output


#: the most values one :func:`_format_g17` call formats, which bounds the
#: working set of the CSV writers
_CSV_VALUES = 4096

_SPLIT = 134217729.0                    # 2**27 + 1, Veltkamp's splitter
_POW10 = 10.0 ** np.arange(21)          # exact: 5**20 < 2**53
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_QUAD = np.arange(10_000)
#: the four ASCII digits of 0000 .. 9999, each as one uint32
_DIGITS4 = (np.stack([_QUAD // 1000, _QUAD // 100 % 10, _QUAD // 10 % 10, _QUAD % 10], axis=1)
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
#: the trailing zeros of 0000 .. 9999 (4 for 0000)
_TZ4 = sum((_QUAD % 10 ** j == 0).astype(np.intp) for j in range(1, 5))
_KEEP = np.tri(25, 24, -1, dtype=np.uint8)   # row m keeps m leading bytes
_K_MIN, _K_MAX = -4, 16                 # the decimal exponents %.17g prints fixed


def _times_pow10(a, p):
    """(hi, lo) with hi + lo == a * 10**p exactly: Dekker's two-product
    (*Numer. Math.* 18, 1971), splitting a by Veltkamp's 2**27 + 1."""
    hi = a * _POW10[p]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _format_g17(values) -> list:
    """``[b"%.17g" % v for v in values]``, byte for byte, vectorized.

    In the band where %.17g prints fixed notation, 1e-4 <= |v| < 1e17,
    k = floor(log10 |v|) and the exact product |v| 10**(16 - k) = hi + lo
    (:func:`_times_pow10`; 10**p is exact for p <= 20) give the correctly
    rounded 17-digit integer D = hi + rint(lo): hi >= 1e16 > 2**53 is an
    even integer, and rint rounds half to even as %.17g does.  (The band is
    exact on doubles: none below 1e-4 or 1e17 rounds up to it at 17 digits,
    as the doubles nearest below 10**k lie more than 5e-17 of it away,
    relative.)  D's digits come from a 4-digit table, its significant
    digits from its trailing zeros.
    The text is laid out in one (n, 24) byte array, by slices for each k
    present, negative rows shifted right for their '-'.  Zeros, NaN,
    infinities and values outside the band are formatted by ``%`` itself.
    """
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), _K_MIN, _K_MAX).astype(np.intp)
    hi, lo = _times_pow10(a, 16 - k)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # k is right where 1e16 <= hi + lo and D < 1e17; within an ulp of 10**k,
    # log10 may be one off, and those values take the per-value path
    fast &= (d < 10 ** 17) & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0)))

    # D as five 4-digit groups, the first zero-padded: 3 '0's and 17 digits
    top = d // 10 ** 8
    groups = [top // 10 ** 8, top // 10 ** 4, top, d // 10 ** 4, d]
    for j in range(1, 5):
        groups[j] = groups[j] - groups[j] // 10 ** 4 * 10 ** 4
    quads = np.empty((n, 5), np.uint32)
    for j, g in enumerate(groups):
        quads[:, j] = _DIGITS4[g]
    digits = quads.view(np.uint8)[:, 3:]
    tz = _TZ4[groups[4]] + (groups[4] == 0) * (_TZ4[groups[3]] + (groups[3] == 0) * (
        _TZ4[groups[2]] + (groups[2] == 0) * _TZ4[groups[1]]))
    nd = 17 - tz                            # significant digits

    text = np.zeros((n, 24), np.uint8)
    present = np.flatnonzero(np.bincount(k - _K_MIN)) + _K_MIN
    for e in present.tolist():
        rows = slice(None) if present.size == 1 else np.flatnonzero(k == e)
        if e >= 0:                          # e + 1 digits, '.', the rest
            text[rows, :e + 1] = digits[rows, :e + 1]
            text[rows, e + 1] = ord(".")
            text[rows, e + 2:18] = digits[rows, e + 1:]
        else:                               # '0.', -e - 1 zeros, the digits
            text[rows, :1 - e] = ord("0")
            text[rows, 1] = ord(".")
            text[rows, 1 - e:18 - e] = digits[rows]
    neg = v < 0
    minus = np.flatnonzero(neg)
    if minus.size:
        text[minus, 1:] = text[minus, :-1]
        text[minus, 0] = ord("-")
    # cut the trailing zeros, and the '.' with them if no fraction is left
    end = neg + np.where(k >= 0, np.where(nd > k + 1, nd + 1, k + 1), 1 - k + nd)
    text *= np.take(_KEEP, end, axis=0)
    out = text.view("S24").ravel().tolist()     # the S dtype drops trailing NULs
    for i in np.flatnonzero(~fast).tolist():
        out[i] = b"%.17g" % v[i]
    return out


def _grid_text(grid: NodalGrid):
    """The CSV lines of a grid's (x, t, value) rows, every value as %.17g,
    one bytes object per block of time rows.

    Each x is formatted once into a row template that every row fills with
    its t and its values; a block's values and t are formatted in one
    :func:`_format_g17` call of at most ``_CSV_VALUES`` values.
    """
    nx = grid.x.size
    line = b"".join(xv + b",%s,%s\n" for xv in _format_g17(grid.x))
    per = max(1, _CSV_VALUES // (nx + 1))
    for start in range(0, grid.t.size, per):
        t = grid.t[start:start + per]
        cells = _format_g17(np.concatenate([grid.values[start:start + per].ravel(), t]))
        lines = []
        for i, tv in enumerate(cells[t.size * nx:]):
            args = [tv] * (2 * nx)
            args[1::2] = cells[i * nx:(i + 1) * nx]
            lines.append(line % tuple(args))
        yield b"".join(lines)


def _array_text(rows: np.ndarray):
    """CSV lines of a 2-D array of rows, every value as %.17g, one bytes
    object per block of at most ``_CSV_VALUES`` values."""
    line = b",".join([b"%s"] * rows.shape[1]) + b"\n"
    per = max(1, _CSV_VALUES // rows.shape[1])
    for start in range(0, len(rows), per):
        chunk = rows[start:start + per]
        yield line * len(chunk) % tuple(_format_g17(chunk))


def _write_csv(path: str, header, rows) -> None:
    """Write rows, a 2-D array or a :class:`NodalGrid`, every value as %.17g
    (integers print bare)."""
    if isinstance(rows, NodalGrid):
        shape, text = (len(rows), 3), _grid_text(rows)
    else:
        rows = np.asarray(rows, dtype=float)
        shape, text = rows.shape, _array_text(rows)
    if len(shape) != 2 or shape[1] != len(header):
        raise ValueError(f"{path}: rows of shape {shape} for {len(header)} columns")
    with open(path, "wb") as f:
        f.write(",".join(header).encode("ascii") + b"\n")
        f.writelines(text)


def _output_names(problem: str, cfg: dict) -> list:
    """The files a run of ``cfg`` writes, known before it runs: its kind's
    CSVs (heat's error CSVs only with a reference and their metric), then
    ``summary.json``."""
    if problem == "heat":
        heat = _read(cfg, KEYS["heat"], "heat")
        wanted = heat["metrics"] if heat["reference"] else []
        csvs = ["theta.csv"] + [name for key, name in (("pct", "error.csv"),
                                                       ("err2", "err2.csv")) if key in wanted]
    else:
        csvs = {"transport": ["u.csv", "jump.csv"], "euler": ["omega.csv", "newton.csv"],
                "algebraic-demo": []}[problem]
    return csvs + ["summary.json"]


def run_config(cfg: dict, outdir: str) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("the config is not a JSON object")
    problem = _value(tuple(RUNNERS), cfg.get("problem"), "problem", "problem")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:          # e.g. the path is, or runs through, a file
        raise ConfigError(f"output directory {outdir!r} cannot be made: {exc.strerror}") from None
    for path in (os.path.join(outdir, name) for name in _output_names(problem, cfg)):
        if os.path.isdir(path):
            raise ConfigError(f"output file {path!r} cannot be written: it is a directory")
        if os.path.exists(path) and not os.access(path, os.W_OK):
            raise ConfigError(f"output file {path!r} cannot be written: it is read-only")
    t0 = time.perf_counter()
    summary_metrics, artifacts = RUNNERS[problem](cfg)
    # summary.json is strict JSON, which has no NaN or infinity
    for key, value in summary_metrics.items():
        if not np.all(np.isfinite(value)):
            raise DualFemError(f"summary metric {key!r} is not finite: {value}")
    for name, (header, rows) in artifacts.items():
        _write_csv(os.path.join(outdir, name), header, rows)
    wall = time.perf_counter() - t0
    summary = {
        "schema_version": SCHEMA_VERSION,
        "preset": cfg.get("preset"),
        "config": {k: v for k, v in cfg.items() if k != "preset"},
        "metrics": summary_metrics,
        "wall_time_s": wall,
    }
    text = json.dumps(summary, indent=2, allow_nan=False)
    with open(os.path.join(outdir, "summary.json"), "w") as f:
        f.write(text)
    return summary


# ---------------------------------------------------------------------------
# argument parsing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dualfem",
        description="Dual variational space-time FE solvers "
                    "(heat, transport, rigid body)")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a JSON config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=None)

    sub.add_parser("list-presets", help="list available presets")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG

    try:
        if args.command == "list-presets":
            print("\n".join(list_presets()))
            return EXIT_OK
        if args.command == "preset":
            try:
                cfg = get_preset(args.name)
            except KeyError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        else:
            try:
                with open(args.config) as f:
                    cfg = json.load(f)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        summary = run_config(cfg, args.out or os.environ.get("DUALFEM_OUT", "dualfem-out"))
    except InvalidArgumentError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedBranchError as exc:
        print(f"unsupported branch: {exc}", file=sys.stderr)
        return EXIT_BRANCH
    except DualFemError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:          # such as the factor band of a very fine mesh
        print(f"solver error: out of memory: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    print(json.dumps(summary["metrics"], indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
