"""Benchmark for dualfem: time to a verified solution, layer by layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --sweep [--seed N]

The first form measures one workload (see ``bench/workloads.py``;
``BENCHMARK.json`` names the ones a regression check runs).  It times fresh interpreters importing
``dualfem.cli`` (``setup_s``), then starts one child process
(``bench/worker.py``) that calls ``dualfem.cli.run_config`` in a closed
loop on seeded configs for ``S`` seconds, with BLAS threads capped at the
number of usable CPUs.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs every repetition untraced and traced and reports the
per-layer breakdown.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every repetition passed the correctness gate.

``--sweep`` runs the traced heat workload at nx = 100, 200 and 300 (nt
scaled to keep ht/hx) and reports the dual solve, the projection and the
peak memory at each size.  It is outside the gate and not a workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 8
DEADLINE_S = 170.0          # a run must end within 180 s
SWEEP_NX = (100, 200, 300)
SWEEP_TIMEOUT_S = 900.0

sys.path.insert(0, HERE)
from workloads import ERROR_REPS, WORKLOADS  # noqa: E402

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import dualfem.cli; "
                 "print(time.perf_counter() - t)")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(_nproc())
    return env


def _run(cmd: list[str], env: dict, timeout: float) -> str:
    """Run a child to completion and return its stdout; raise on failure."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{cmd[1]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:2])} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def measure_setup(env: dict, deadline: float, samples: int) -> list[float]:
    """Seconds each of several fresh interpreters takes to import dualfem.cli."""
    return [float(_run([sys.executable, "-c", _IMPORT_PROBE], env,
                       deadline - time.monotonic()).strip().splitlines()[-1])
            for _ in range(samples)]


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict,
               timeout: float, extra: tuple = ()) -> dict:
    outdir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--outdir", outdir, *extra]
    return json.loads(_run(cmd, env, timeout).strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(ROOT, ".git", ref)
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def _cache_kib(level: int) -> int | None:
    """Cache size in KiB from sysconf, else from the kernel's cpu0 cache info."""
    try:
        size = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
    except (ValueError, OSError):
        size = 0
    if size > 0:
        return size // 1024
    try:
        with open(f"/sys/devices/system/cpu/cpu0/cache/index{level}/size") as f:
            text = f.read().strip()
    except OSError:
        return None
    scale = {"K": 1, "M": 1024, "G": 1024 * 1024}.get(text[-1:], None)
    return int(text[:-1]) * scale if scale else int(text) // 1024


def context(worker: dict, workload: str, seconds: float) -> dict:
    first = next((r for r in worker["reps"] if r.get("n_stages") is not None), {})
    ctx = {
        "commit": _git_commit(),
        "nproc": _nproc(),
        "l2_kib": _cache_kib(2),
        "l3_kib": _cache_kib(3),
        **worker["context"],
        "workload": workload,
        "run_seconds": seconds,
        "stages": first.get("n_stages"),
        "csv_bytes": first.get("csv_bytes"),
    }
    return ctx


def _median_or_nan(values: list[float]) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def end_to_end(worker: dict, setup: list[float]) -> tuple[dict, list[str]]:
    reps = worker["reps"]
    ok_timed = [r["wall_s"] for r in reps if r["timed"] and r["failure"] is None]
    walls = ok_timed or [r["wall_s"] for r in reps if r["timed"]] or [reps[0]["wall_s"]]
    q1, q3 = _quartiles(walls)
    err = _median_or_nan([r["error_pct"] for r in reps[:ERROR_REPS]])
    passed = sum(r["failure"] is None for r in reps)
    metrics = {
        "run_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        "max_error_pct": {"value": err, "unit": "%"},
        "pass_rate": {"value": passed / len(reps), "unit": "ratio"},
    }
    sq1, sq3 = _quartiles(setup)
    notes = [
        f"run_s          median of {len(walls)} timed repetitions "
        f"(q1 {q1:.4f}, q3 {q3:.4f}, min {min(walls):.4f}, max {max(walls):.4f})",
        f"setup_s        median of {len(setup)} fresh interpreters importing dualfem.cli "
        f"(q1 {sq1:.4f}, q3 {sq3:.4f})",
        "peak_rss_mb    high-water resident memory of the worker process",
        f"max_error_pct  median headline oracle error over repetitions 0-{ERROR_REPS - 1}",
        f"pass_rate      {passed}/{len(reps)} repetitions passed the gate "
        f"(fail_rate {1 - passed / len(reps):.4f})",
    ]
    return metrics, notes


def traced(worker: dict) -> tuple[dict, list[str]]:
    reps = worker["reps"]
    timed = [r for r in reps if r["timed"]] or reps
    plain = statistics.median(r["wall_s"] for r in timed)
    traced_run = statistics.median(r["traced_wall_s"] for r in timed)
    metrics = dict(worker["layers"])
    metrics["traced.run_s"] = {"value": traced_run, "unit": "s"}
    metrics["traced.max_error_pct"] = {
        "value": _median_or_nan([r["traced_error_pct"] for r in reps[:ERROR_REPS]]),
        "unit": "%"}
    metrics["trace.overhead"] = {"value": traced_run / plain, "unit": "ratio"}
    metrics["trace.unattributed_frac"] = {
        "value": metrics["cli.unattributed_s"]["value"] / traced_run, "unit": "ratio"}
    notes = [f"traced over untraced run_s {traced_run:.4f} / {plain:.4f} s "
             f"over {len(timed)} repetition pairs; spans in {worker['spans_file']}"]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "dualfem", "cli.py")):
        print(f"error: no dualfem sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.sweep:
        return sweep(args.seed)
    if args.workload is None:
        ap.error("--workload is required unless --sweep is given")

    deadline = time.monotonic() + DEADLINE_S
    env = _child_env()
    try:
        # Half the import probes run before the worker and half after it, so
        # setup_s samples the machine at two moments instead of one.
        half = 0 if args.trace else SETUP_SAMPLES // 2
        setup = measure_setup(env, deadline, half)
        worker = run_worker(args.workload, args.seed, args.seconds, args.trace, env,
                            deadline - time.monotonic())
        setup += measure_setup(env, deadline, half)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, notes = traced(worker)
    else:
        metrics, notes = end_to_end(worker, setup)
    failed = [r for r in worker["reps"] if r["failure"] is not None]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    for r in failed:
        print(f"  FAILED repetition {r['rep']}: {r['failure']}")
    print("context " + json.dumps(context(worker, args.workload, args.seconds)))
    print("samples " + json.dumps({"setup_s": setup,
                                   "rep_wall_s": [r["wall_s"] for r in worker["reps"]]}))
    result = {"correct": not failed, "attempted": len(worker["reps"]),
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failed else 1


def sweep(seed: int) -> int:
    env = _child_env()
    rows = []
    for nx in SWEEP_NX:
        try:
            worker = run_worker("heat-jump-large", seed, 0.0, 1, env, SWEEP_TIMEOUT_S,
                                extra=("--nx", str(nx), "--reps", "2"))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        layers = worker["layers"]
        rows.append({
            "nx": nx,
            "dual_ndof": layers["fem.solve_linear.dual.ndof_max"]["value"],
            "solve_dual_s": layers["fem.solve_linear.dual.busy_s"]["value"],
            "l2_project_s": layers["projection.l2_project.busy_s"]["value"],
            "peak_rss_mb": worker["peak_rss_mb"],
            "failures": [r["failure"] for r in worker["reps"] if r["failure"]],
        })
        r = rows[-1]
        print(f"nx {nx:4d}  dual ndof {r['dual_ndof']:7d}  dual solve {r['solve_dual_s']:8.3f} s  "
              f"l2_project {r['l2_project_s']:8.3f} s  peak rss {r['peak_rss_mb']:8.1f} MB")
    print(json.dumps({"sweep": "heat-jump-large", "seed": seed, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
