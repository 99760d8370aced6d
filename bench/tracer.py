"""Tracer that wraps the ``dualfem`` package from outside.

``Tracer`` wraps the public functions of each ``dualfem`` layer module from
outside (the package itself is not changed) and records one span per call:
name, start, end, parent span and run id.  Spans stay in memory; the caller
writes them out at the end.  Every module attribute and module-level dict
entry that refers to a wrapped function is patched, so aliases such as
``heat.solve_system`` (imported from ``fem``) or ``cli.RUNNERS['heat']`` are
traced too.  ``per_layer_metrics`` turns the spans of a set of runs into the
per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time

LAYERS = ("cli", "mesh", "fem", "heat", "transport", "projection",
          "euler", "oracles", "metrics")

# Wrapped besides the public functions: private helpers and methods that
# the per-layer metrics name.
EXTRA = {
    "cli": ("_write_csv",),
    "oracles": ("FourierHeatSolution.__call__", "DenseOutput.__call__"),
}

# Metric group -> span names it sums.  A group's busy time counts only its
# outermost spans, so nested calls inside one group are not counted twice.
GROUPS = {
    "fem.solve_linear.dual": ("fem.solve_linear",),
    "fem.solve_linear.project": ("fem.solve_linear",),
    "fem.assemble_uniform": ("fem.assemble_uniform",),
    "fem.boundary_load": ("fem.boundary_load",),
    "fem.apply_dirichlet": ("fem.apply_dirichlet",),
    "transport.assemble_transport": ("transport.assemble_transport",),
    "heat.assemble_heat": ("heat.assemble_heat",),
    "projection.l2_project": ("projection.l2_project",),
    "projection.l2_project_time": ("projection.l2_project_time",),
    "oracles.fourier": ("oracles.FourierHeatSolution.__call__",),
    "oracles.rk45": ("oracles.rk45_reference", "oracles.DenseOutput.__call__"),
    "oracles.transport_exact": ("oracles.transport_exact",),
    "euler.newton_stage": ("euler.newton_stage",),
    "euler.residual": ("euler.residual",),
    "euler.jacobian": ("euler.jacobian",),
    "euler.dtp_euler": ("euler.dtp_euler",),
    "heat.dtp_heat": ("heat.dtp_heat",),
    "transport.dtp_transport": ("transport.dtp_transport",),
    "cli.write_csv": ("cli._write_csv",),
    "mesh.build": ("mesh.build_space_time_mesh", "mesh.build_time_mesh"),
    "metrics": ("metrics.*",),
}

# Figures a group reports from its probes besides busy_s, self_s and calls.
GROUP_ATTRS = {
    "fem.solve_linear.dual": ("ndof_max", "nnz_max", "resid_max"),
    "fem.solve_linear.project": ("ndof_max", "nnz_max", "resid_max"),
    "euler.jacobian": ("nnz_frac",),
    "cli.write_csv": ("rows", "bytes"),
}

# Callers that decide whether a linear solve is a dual solve or a projection:
# the nearest one among a span's ancestors wins.
_SOLVE_CALLERS = {
    "projection.l2_project": "project",
    "heat.solve_heat": "dual",
    "transport.solve_transport_stage": "dual",
}

# Functions whose cli self time is the harness around the layers.
CLI_UNATTRIBUTED = ("cli.run_config", "cli.run_heat", "cli.run_transport",
                    "cli.run_euler_cfg", "cli.build_heat_problem",
                    "cli.make_initial", "cli.make_dual_bc",
                    "cli.make_heat_reference")

UNITS = {"busy_s": "s", "self_s": "s", "calls": "count", "ndof_max": "count",
         "nnz_max": "count", "resid_max": "ratio", "nnz_frac": "ratio",
         "rows": "count", "bytes": "B"}


class TracerError(RuntimeError):
    """The traced package no longer has a function the benchmark names."""


def _probe_solve(args, kwargs, out):
    import numpy as np
    A, b = args[0], np.asarray(args[1], dtype=float)
    scale = np.linalg.norm(b)
    resid = np.linalg.norm(A @ out - b)
    return {"ndof": int(A.shape[0]), "nnz": int(A.nnz),
            "resid": float(resid / scale if scale > 0 else resid)}


def _probe_jacobian(args, kwargs, out):
    import numpy as np
    rows, cols = out.shape
    nnz = out.nnz if hasattr(out, "nnz") else np.count_nonzero(out)   # sparse or dense
    return {"nnz_frac": float(nnz / (rows * cols))}


def _probe_write_csv(args, kwargs, out):
    path, rows = args[0], args[2]
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


def _probe_newton(args, kwargs, out):
    return {"newton_iters": int(out.newton_iters)}


PROBES = {
    "fem.solve_linear": _probe_solve,
    "euler.jacobian": _probe_jacobian,
    "cli._write_csv": _probe_write_csv,
    "euler.newton_stage": _probe_newton,
}


class Tracer:
    """Context manager that traces every call into the ``dualfem`` layers.

    A span is ``[name, start, end, parent, run_id, attrs, probe_s]``;
    ``parent`` is an index into ``spans`` or -1, and ``probe_s`` is the time
    spent after the call measuring its result, which is kept out of the
    parent's self time.
    """

    def __init__(self, run_id: int = 0):
        self.spans: list[list] = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.wrapped: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        tracer, probe, clock = self, PROBES.get(name), time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id, None, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, out)
                span[6] = clock() - span[2]
            return out
        return traced

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self):
        originals: dict[int, object] = {}        # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"dualfem.{layer}")
            names = [n for n, v in vars(mod).items()
                     if inspect.isfunction(v) and v.__module__ == mod.__name__
                     and not n.startswith("_")]
            for qual in names + list(EXTRA.get(layer, ())):
                owner, attr = mod, qual
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if not inspect.isfunction(fn):
                    raise TracerError(f"dualfem.{layer}.{qual} no longer exists")
                wrapper = self._wrap(f"{layer}.{qual}", fn)
                self.wrapped[f"{layer}.{qual}"] = wrapper
                if owner is mod:
                    originals[id(fn)] = wrapper
                else:
                    self._patch_attr(owner, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dualfem" and not mod_name.startswith("dualfem."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in originals:
                    self._patch_attr(mod, attr, originals[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in originals:
                            self._restore.append((val, key, item, True))
                            val[key] = originals[id(item)]
        missing = [n for names in GROUPS.values() for n in names
                   if not n.endswith("*") and n not in self.wrapped]
        if missing:
            raise TracerError(f"traced names not found in dualfem: {missing}")

    def _patch_attr(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, key, original, is_item in reversed(self._restore):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()
        return False

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)


def _in_group(span_name: str, members) -> bool:
    return any(span_name == m or (m.endswith("*") and span_name.startswith(m[:-1]))
               for m in members)


def _solve_kind(spans, span) -> str | None:
    parent = span[3]
    while parent >= 0:
        kind = _SOLVE_CALLERS.get(spans[parent][0])
        if kind:
            return kind
        parent = spans[parent][3]
    return None


def run_breakdown(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one run from its spans, always in the same keys
    and order whatever the workload called."""
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= (s[2] - s[1]) + s[6]
    out: dict[str, float] = {}
    for group, members in GROUPS.items():
        busy = own = 0.0
        calls = 0
        attrs = dict.fromkeys(GROUP_ATTRS.get(group, ()), 0)
        for i, s in enumerate(spans):
            if not _in_group(s[0], members):
                continue
            if group.startswith("fem.solve_linear.") and \
                    _solve_kind(spans, s) != group.rsplit(".", 1)[1]:
                continue
            calls += 1
            own += self_s[i]
            parent = s[3]
            while parent >= 0 and not _in_group(spans[parent][0], members):
                parent = spans[parent][3]
            if parent < 0:
                busy += s[2] - s[1]
            for key, val in (s[5] or {}).items():
                if key in ("rows", "bytes"):
                    attrs[key] += val
                elif f"{key}_max" in attrs:
                    attrs[f"{key}_max"] = max(attrs[f"{key}_max"], val)
                elif key in attrs:
                    attrs[key] = max(attrs[key], val)
        out[f"{group}.busy_s"] = busy
        out[f"{group}.self_s"] = own
        out[f"{group}.calls"] = calls
        for key, val in attrs.items():
            out[f"{group}.{key}"] = val
    out["euler.newton_iters"] = sum((s[5] or {}).get("newton_iters", 0)
                                    for s in spans if s[0] == "euler.newton_stage")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            self_s[i] for i, s in enumerate(spans) if s[0].split(".", 1)[0] == layer)
    out["cli.unattributed_s"] = sum(self_s[i] for i, s in enumerate(spans)
                                    if s[0] in CLI_UNATTRIBUTED)
    return out


def per_layer_metrics(breakdowns: list[dict[str, float]], timed: list[bool]) -> dict:
    """Combine per-run breakdowns: times are medians over the timed runs,
    everything else (counts, sizes, residuals) is taken from the first run,
    which is fixed by the seed."""
    first = breakdowns[0]
    timed_runs = [b for b, t in zip(breakdowns, timed) if t] or breakdowns
    out = {}
    for key, val in first.items():
        if key.endswith("_s"):
            val = statistics.median(b[key] for b in timed_runs)
        suffix = key.rsplit(".", 1)[1]
        out[key] = {"value": val, "unit": UNITS.get(suffix, "s" if key.endswith("_s") else "count")}
    return out
