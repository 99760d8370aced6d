"""Configuration-driven command line front end.

Subcommands::

    dualfem run <config.json> [--out DIR]
    dualfem preset <name> [--out DIR]
    dualfem list-presets

Field and error data are written as CSV with 17-significant-digit values;
a machine-readable ``summary.json`` records configuration, diagnostics, and
metric maxima.  The output directory defaults to ``./dualfem-out`` and can
be overridden by ``--out`` or the ``DUALFEM_OUT`` environment variable.

Exit codes: 0 success, 2 configuration error, 3 solver error,
4 unsupported analytical branch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial

import numpy as np

from . import euler as euler_mod
from . import heat as heat_mod
from . import metrics, oracles, transport
from .errors import DualFemError, InvalidArgumentError, UnsupportedBranchError
from .mesh import build_space_time_mesh
from .presets import PRESETS, get_preset

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BRANCH = 4


class ConfigError(InvalidArgumentError):
    pass


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config field {key!r} is missing")
    return cfg[key]


def _whole(value) -> int:
    """``value`` as an int; a fractional part is a ValueError, not truncated."""
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} has a fractional part")
    return int(number)


def _number(cfg: dict, key: str, default=None, kind=float):
    """``kind`` of ``cfg[key]``, or of ``default`` if the key is absent or null
    (without one the key is required); a ConfigError names a bad value.
    ``int`` means :func:`_whole`: a count with a fractional part is an error."""
    value = default if cfg.get(key) is None else cfg[key]
    if value is None:
        raise ConfigError(f"config field {key!r} is missing")
    try:
        return (_whole if kind is int else kind)(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {key!r} is not valid: {exc}") from None


# ---------------------------------------------------------------------------
# named function families


def make_initial(spec: dict):
    kind = _require(spec, "type")
    if kind == "linear":
        a, b = _number(spec, "slope", 0.0), _number(spec, "intercept", 0.0)
        return lambda x: a * np.asarray(x, dtype=float) + b
    if kind == "sine_plus_one":
        return lambda x: np.sin(0.5 * np.pi * np.asarray(x, dtype=float)) + 1.0
    if kind == "jump":
        beta = _number(spec, "beta", 10.0)

        def jump(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0.5, beta + 2 * x,
                            np.where(x > 0.5, beta - 2 + 2 * x, beta))
        return jump
    if kind == "smoothed_jump":
        beta, eps = _number(spec, "beta", 10.0), _number(spec, "eps")
        ks = (2 * eps - 1) / eps
        cs = beta - (2 * eps - 1) / (2 * eps)
        lo, hi = 0.5 - eps, 0.5 + eps

        def smoothed(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < lo, beta + 2 * x,
                            np.where(x > hi, beta - 2 + 2 * x, ks * x + cs))
        return smoothed
    if kind == "step":
        xj = _number(spec, "x_jump", 0.2)
        lo, hi = _number(spec, "lo", 2.0), _number(spec, "hi", 4.0)

        def step(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < xj, lo, np.where(x > xj, hi, 0.5 * (lo + hi)))
        return step
    raise ConfigError(f"unknown initial-condition type {kind!r}")


def make_dual_bc(spec: dict, k: float):
    kind = _require(spec, "type")
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    if kind == "zero":
        return {"l_left": zero, "l_top": zero, "p_right": zero, "l_right": zero}
    if kind == "steady_family":
        _, l_exact = heat_mod.steady_dual_family(k=k)
        return {"l_left": zero,
                "l_top": l_exact,
                "p_right": zero,
                "l_right": lambda t: np.full_like(np.asarray(t, dtype=float),
                                                  float(l_exact(1.0)))}
    raise ConfigError(f"unknown dual boundary family {kind!r}")


def make_heat_reference(spec: dict | None, k: float, initial_spec: dict):
    if spec is None:
        return None
    kind = _require(spec, "type")
    if kind == "steady":
        return lambda x, t: oracles.heat_steady(x)
    if kind == "transient":
        return lambda x, t: oracles.heat_transient(x, t, k)
    if kind == "fourier_smoothed":
        return oracles.FourierHeatSolution.smoothed_jump(
            beta=_number(initial_spec, "beta", 10.0), eps=_number(initial_spec, "eps"),
            k=k, n_terms=_number(spec, "n_terms", 100_000, int))
    if kind == "fourier_discontinuous":
        return oracles.FourierHeatSolution.discontinuous(
            beta=_number(initial_spec, "beta", 10.0), k=k,
            n_terms=_number(spec, "n_terms", 100_000, int))
    raise ConfigError(f"unknown reference type {kind!r}")


# ---------------------------------------------------------------------------
# run drivers; each returns (summary_metrics, artifacts, extras) where
# artifacts maps filename -> (header, rows) and rows is a 2-D float array of
# rows or a GridRows


class GridRows:
    """(x, t, value) rows of a (t, x) nodal grid, x varying fastest.

    ``len()`` is the number of rows; :meth:`text` gives their CSV lines.
    """

    def __init__(self, x, t, values):
        self.x = np.asarray(x, dtype=float)
        self.t = np.asarray(t, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.t.size, self.x.size):
            raise ValueError(f"grid values of shape {self.values.shape} for "
                             f"{self.t.size} times and {self.x.size} points")

    def __len__(self) -> int:
        return self.values.size

    def text(self):
        """The CSV lines of each time row, every value as %.17g.

        Each x is formatted once into a template that every row fills with
        its formatted t and its values.
        """
        line = "".join("%.17g" % v + ",%s,%.17g\n" for v in self.x.tolist())
        for tv, row in zip(self.t.tolist(), self.values.tolist()):
            args = ["%.17g" % tv] * (2 * len(row))
            args[1::2] = row
            yield line % tuple(args)


def build_heat_problem(cfg: dict):
    k = _number(cfg, "k")
    L, T = _number(cfg, "L"), _number(cfg, "T")
    initial = make_initial(_require(cfg, "initial"))
    dual = make_dual_bc(cfg.get("dual_bc", {"type": "zero"}), k)
    mode = cfg.get("right_mode", heat_mod.NEUMANN_PI)
    const = lambda key: (lambda s, v=_number(cfg, key, 0.0):
                         np.full_like(np.asarray(s, dtype=float), v))
    problem = heat_mod.HeatProblem(
        k=k, L=L, T=T,
        theta0=initial,
        theta_left=const("theta_left"),
        right_mode=mode,
        pi_right=const("pi_right"), theta_right=const("theta_right"),
        l_left=dual["l_left"], l_top=dual["l_top"],
        p_right=dual["p_right"], l_right=dual["l_right"])
    mesh = build_space_time_mesh(L, T, _number(cfg, "nx", kind=int),
                                 _number(cfg, "nt", kind=int))
    return problem, mesh


def run_heat(cfg: dict):
    problem, mesh = build_heat_problem(cfg)
    dual, theta = heat_mod.solve_heat_primal(problem, mesh)
    grid = theta.reshape(mesh.nt + 1, mesh.nx + 1)
    x, t = mesh.x_coords(), mesh.t_coords()

    keep = t <= _number(cfg, "T_keep", np.inf) + 1e-12

    reference = make_heat_reference(cfg.get("reference"), problem.k,
                                    _require(cfg, "initial"))
    summary: dict = {}
    artifacts = {"theta.csv": (["x", "t", "theta"], GridRows(x, t, grid))}
    if reference is not None:
        ref_grid = np.vstack([np.asarray(reference(x, tv), dtype=float) for tv in t])
        wanted = cfg.get("metrics", ["pct"])
        if "pct" in wanted:
            pct = metrics.pct_error(grid, ref_grid)
            summary["max_pct_error_retained"] = float(np.nanmax(pct[keep]))
            artifacts["error.csv"] = (["x", "t", "pct_error"],
                                      GridRows(x, t[keep], pct[keep]))
        if "err1" in wanted:
            e1 = metrics.err1(grid, ref_grid, mesh.hx)
            summary["max_err1_retained"] = float(np.max(e1[keep]))
        if "err2" in wanted:
            e2 = metrics.err2(grid, ref_grid, mesh.hx)
            summary["max_err2_retained"] = float(np.max(e2[keep]))
            artifacts["err2.csv"] = (["t", "err2"], np.column_stack([t[keep], e2[keep]]))
    return summary, artifacts, {"theta": grid, "mesh": mesh, "dual": dual}


def run_transport(cfg: dict):
    initial_spec = _require(cfg, "initial")
    u0 = make_initial(initial_spec)
    c = _number(cfg, "c")
    u_left_val = _number(cfg, "u_left", 2.0)
    problem = transport.TransportProblem(
        c=c, L=_number(cfg, "L"), T_total=_number(cfg, "T_total"),
        u0=u0,
        u_left=lambda t: np.full_like(np.asarray(t, dtype=float), u_left_val))
    plan = transport.StagePlan.cover(_number(cfg, "T_stage"), _number(cfg, "T_keep"),
                                     problem.T_total)
    xj = _number(initial_spec, "x_jump", 0.2)
    lo, hi = _number(initial_spec, "lo", 2.0), _number(initial_spec, "hi", 4.0)
    field = transport.run_time_sliced(problem, plan, _number(cfg, "nx", kind=int),
                                      _number(cfg, "nt", kind=int),
                                      jump_x=xj, jump_avg=0.5 * (lo + hi))
    locus = lambda t: xj + c * t
    ht, hb = transport.track_jump(field, locus, lo=lo, hi=hi)

    ref = oracles.transport_exact(field.x[None, :], field.t[:, None],
                                  c=c, x0=xj, lo=lo, hi=hi)
    pct = metrics.pct_error(field.u, ref)
    h = field.x[1] - field.x[0]
    jump_dist = np.abs(field.x[None, :] - locus(field.t)[:, None])
    right_layer = field.x[None, :] > field.x[-1] - 10 * h - 1e-12
    masked = np.where((jump_dist <= 6 * h + 1e-12) | right_layer, np.nan, pct)
    # the layer around the jump widens like sqrt(h); criterion 4a masks it
    # at 1.5 sqrt(h L), the measured 1% width plus a third
    layer = jump_dist <= 1.5 * np.sqrt(h * problem.L) + 1e-12
    outside_layer = np.where(layer | right_layer, np.nan, pct)

    summary = {
        "n_stages": plan.n_stages,
        "max_pct_error_interior": float(np.nanmax(masked)),
        "max_pct_error_outside_layer": float(np.nanmax(outside_layer)),
        "max_overshoot": float(ht.max()),
        "max_undershoot": float(hb.max()),
    }
    artifacts = {
        "u.csv": (["x", "t", "u"], GridRows(field.x, field.t, field.u)),
        "jump.csv": (["t", "h_t", "h_b"], np.column_stack([field.t, ht, hb])),
    }
    return summary, artifacts, {"field": field, "ht": ht, "hb": hb, "pct_masked": masked}


def _euler_config(cfg: dict, ne=None) -> euler_mod.EulerConfig:
    vector = partial(np.asarray, dtype=float)
    return euler_mod.EulerConfig(
        I=_number(cfg, "I", kind=vector), omega0=_number(cfg, "omega0", kind=vector),
        nu=_number(cfg, "nu", 0.0),
        a=_number(cfg, "a", 1.0),
        T_total=_number(cfg, "T_total"),
        T_stage=_number(cfg, "T_stage"),
        ne_per_stage=_number(cfg, "ne_per_stage", kind=int) if ne is None else ne,
        N_c=_number(cfg, "N_c", 5, int),
        tol=_number(cfg, "tol", 1e-10),
        lambda_T=_number(cfg, "lambda_T", (0.0, 0.0, 0.0), vector))


def _euler_reference(cfg: dict, config: euler_mod.EulerConfig, t: np.ndarray):
    kind = cfg.get("reference", "rk45")
    if kind == "elliptic":
        return oracles.euler_free_exact(t, config.I, config.omega0)
    if kind == "rk45":
        dense = oracles.rk45_reference(config.I, config.omega0, config.nu,
                                       T=float(t[-1]))
        return dense(t)
    raise ConfigError(f"unknown rigid-body reference {kind!r}")


def run_euler_cfg(cfg: dict):
    config = _euler_config(cfg)
    refinements = _number(cfg, "refinements", [], kind=lambda v: [_whole(n) for n in v])
    run = euler_mod.run_euler(config)
    E = euler_mod.kinetic_energy(config.I, run.omega)
    L = euler_mod.momentum_magnitude(config.I, run.omega)
    ref = _euler_reference(cfg, config, run.t)
    err = metrics.err_omega(run.omega, ref)

    summary = {
        "n_stages": len(run.stages),
        "max_err_omega": float(err.max()),
        "energy_drift_rel": float(np.max(np.abs(E - E[0])) / E[0]),
        "momentum_drift_rel": float(np.max(np.abs(L - L[0])) / L[0]),
        "newton_iters": [s.newton_iters for s in run.stages],
    }
    if config.nu > 0:
        L_exact = L[0] * np.exp(-config.nu * run.t)
        summary["momentum_decay_err_rel"] = float(np.max(np.abs(L - L_exact) / L_exact))

    if "refinements" in cfg:
        errs = []
        for ne in refinements:
            sub = euler_mod.run_euler(_euler_config(cfg, ne=ne))
            sub_ref = _euler_reference(cfg, config, sub.t)
            errs.append(float(metrics.err_omega(sub.omega, sub_ref).max()))
        summary["refinement_ne"] = list(cfg["refinements"])
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
    return summary, artifacts, {"run": run, "E": E, "L": L, "err": err}


def run_algebraic_demo(cfg: dict):
    rng = np.random.default_rng(_number(cfg, "seed", 0, int))
    n_cases = _number(cfg, "n_cases", 100, int)
    rows, cols = _number(cfg, "rows", 4, int), _number(cfg, "cols", 6, int)
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
    return summary, {}, {}


RUNNERS = {
    "heat": run_heat,
    "transport": run_transport,
    "euler": run_euler_cfg,
    "algebraic-demo": run_algebraic_demo,
}


# ---------------------------------------------------------------------------
# artifact output


_CSV_CHUNK_ROWS = 4096


def _array_text(rows: np.ndarray):
    """CSV lines of a 2-D array of rows, every value as %.17g, in chunks."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for start in range(0, len(rows), _CSV_CHUNK_ROWS):
        chunk = rows[start:start + _CSV_CHUNK_ROWS]
        yield line * len(chunk) % tuple(chunk.ravel().tolist())


def _write_csv(path: str, header, rows) -> None:
    """Write rows, a 2-D array or a :class:`GridRows`, every value as %.17g
    (integers print bare)."""
    if isinstance(rows, GridRows):
        shape, text = (len(rows), 3), rows.text()
    else:
        rows = np.asarray(rows, dtype=float)
        shape, text = rows.shape, _array_text(rows)
    if len(shape) != 2 or shape[1] != len(header):
        raise ValueError(f"{path}: rows of shape {shape} for {len(header)} columns")
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(text)


def run_config(cfg: dict, outdir: str) -> dict:
    problem = _require(cfg, "problem")
    if problem not in RUNNERS:
        raise ConfigError(f"unknown problem kind {problem!r}")
    os.makedirs(outdir, exist_ok=True)
    t0 = time.perf_counter()
    summary_metrics, artifacts, _ = RUNNERS[problem](cfg)
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
    with open(os.path.join(outdir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    return summary


# ---------------------------------------------------------------------------
# argument parsing


def _default_outdir(args) -> str:
    if args.out:
        return args.out
    return os.environ.get("DUALFEM_OUT", "dualfem-out")


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
            for name in sorted(PRESETS):
                print(name)
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
        summary = run_config(cfg, _default_outdir(args))
    except InvalidArgumentError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedBranchError as exc:
        print(f"unsupported branch: {exc}", file=sys.stderr)
        return EXIT_BRANCH
    except DualFemError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    print(json.dumps(summary["metrics"], indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
