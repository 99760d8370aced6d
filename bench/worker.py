"""Benchmark child process: a closed loop of ``dualfem.cli.run_config`` calls.

One caller sends the next config only after the previous call has written
its CSVs and ``summary.json``.  Repetition ``r`` runs the config drawn from
(seed, r); repetition 0 warms caches and lazy imports and is not timed.
Every repetition goes through the correctness gate.  With ``--trace`` each
repetition runs twice on the same config, untraced and then traced, and the
two summaries must agree exactly; without it only repetition 0 is traced,
to record the problem sizes.  Every traced repetition must match the
workload's call-count fingerprint.

Prints one JSON object as its last line; ``bench/run.py`` starts this
process and turns that object into the benchmark's result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import time

import tracer
from dualfem import cli
from workloads import ERROR_REPS, WORKLOADS, check_outputs, make_config

# Call-count fingerprint of one repetition, checked in traced runs.
FINGERPRINT = {
    "transport-stages": {"fem.solve_linear": 20, "euler.newton_stage": 0},
    "heat-jump-large": {"fem.solve_linear": 2, "euler.newton_stage": 0},
    "euler-newton": {"fem.solve_linear": 0, "euler.newton_stage": 67},
}


def _context() -> dict:
    import numpy as np
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version(np),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "dualfem_path": os.path.dirname(cli.__file__),
    }


def _clear(outdir: str) -> None:
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)


def _one_call(workload, cfg, outdir):
    """Run one config; returns (wall seconds, summary or None, error %, failure)."""
    _clear(outdir)
    t0 = time.perf_counter()
    try:
        summary = cli.run_config(cfg, outdir)
    except Exception as exc:          # a failed repetition is counted, not fatal
        return time.perf_counter() - t0, None, math.nan, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    err, failure = check_outputs(workload, cfg, outdir)
    return wall, summary, err, failure


def _fingerprint_failure(workload: str, tr, bd: dict, summary: dict) -> str | None:
    """Check one traced repetition's call counts against the workload's."""
    for name, want in FINGERPRINT[workload].items():
        got = tr.calls(name)
        if got != want:
            return f"fingerprint: {name} called {got} times, expected {want}"
    iters = sum(summary["metrics"].get("newton_iters", []))
    if not bd["euler.residual.calls"] == bd["euler.newton_iters"] == iters:
        return (f"fingerprint: {bd['euler.residual.calls']} residual calls, "
                f"{iters} Newton iterations")
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--nx", type=int, default=None,
                    help="heat size sweep: override nx (nt keeps ht/hx)")
    ap.add_argument("--reps", type=int, default=None,
                    help="run exactly this many repetitions instead of timing")
    args = ap.parse_args(argv)

    reps, breakdowns, timed = [], [], []
    spans_by_run: list[list] = []
    t_window = None
    rep = 0
    try:
        while True:
            cfg = make_config(args.workload, args.seed, rep)
            if args.nx is not None:
                cfg["nt"] = round(cfg["nt"] * args.nx / cfg["nx"])
                cfg["nx"] = args.nx
            tr = None
            if args.trace or rep > 0:
                wall, summary, err, failure = _one_call(args.workload, cfg, args.outdir)
            else:
                # the untimed warm-up is traced to report the problem sizes
                with tracer.Tracer(run_id=rep) as tr:
                    wall, summary, err, failure = _one_call(
                        args.workload, cfg, args.outdir)
            record = {"rep": rep, "wall_s": wall, "error_pct": err, "timed": rep > 0}
            if args.trace:
                with tracer.Tracer(run_id=rep) as tr:
                    twall, tsummary, terr, tfailure = _one_call(
                        args.workload, cfg, args.outdir)
                record.update(traced_wall_s=twall, traced_error_pct=terr)
                failure = failure or tfailure
                if failure is None and tsummary["metrics"] != summary["metrics"]:
                    failure = "traced summary differs from untraced summary"
            if tr is not None:
                bd = tracer.run_breakdown(tr.spans)
                if failure is None and args.nx is None:
                    failure = _fingerprint_failure(args.workload, tr, bd, summary)
                breakdowns.append(bd)
                timed.append(rep > 0)
                spans_by_run.append(tr.spans)
            record["failure"] = failure
            if summary is not None:
                record["n_stages"] = summary["metrics"].get("n_stages", 1)
                record["csv_bytes"] = sum(
                    os.path.getsize(os.path.join(args.outdir, f))
                    for f in os.listdir(args.outdir) if f.endswith(".csv"))
            reps.append(record)
            rep += 1
            if t_window is None:
                t_window = time.perf_counter()
            if args.reps is not None:
                if rep >= args.reps:
                    break
            elif rep >= ERROR_REPS and time.perf_counter() - t_window >= args.seconds:
                break
    finally:
        shutil.rmtree(args.outdir, ignore_errors=True)

    first = breakdowns[0]
    result = {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": {**_context(),
                    "dual_ndof": first["fem.solve_linear.dual.ndof_max"],
                    "dual_nnz": first["fem.solve_linear.dual.nnz_max"]},
    }
    if args.trace:
        result["layers"] = tracer.per_layer_metrics(breakdowns, timed)
        span_path = args.outdir.rstrip("/") + "-spans.json"
        with open(span_path, "w") as f:
            # one list of spans per repetition; parent indexes that list
            json.dump({"fields": ["name", "start", "end", "parent", "run_id",
                                  "attrs", "probe_s"], "runs": spans_by_run}, f)
        result["spans_file"] = span_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
