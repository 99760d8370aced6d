"""Tests of the benchmark's own parts: generator, gate and tracer.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import (DATA_KEYS, WORKLOADS, check_outputs,  # noqa: E402
                       expected_rows, make_config)

SIZE_KEYS = ("nx", "nt", "T", "T_stage", "T_keep", "T_total", "ne_per_stage",
             "N_c", "reference")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_arguments_give_byte_identical_configs(workload):
    for seed, rep in [(0, 0), (7, 3), (123456, 41)]:
        a = json.dumps(make_config(workload, seed, rep))
        b = json.dumps(make_config(workload, seed, rep))
        assert a == b


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_repetitions_change_only_data(workload):
    base = make_config(workload, 0, 0)
    for seed, rep in [(0, 1), (1, 0), (99, 17)]:
        cfg = make_config(workload, seed, rep)
        assert set(cfg) == set(base)
        changed = {k for k in cfg if cfg[k] != base[k]}
        assert changed and changed <= DATA_KEYS[workload]
        for key in SIZE_KEYS:
            assert cfg.get(key) == base.get(key)
        assert expected_rows(cfg) == expected_rows(base)


def test_expected_rows_match_the_workload_sizes():
    assert expected_rows(make_config("transport-stages", 0, 0)) == {"u.csv": 201 * 501}
    assert expected_rows(make_config("heat-jump-large", 0, 0)) == {"theta.csv": 201 * 121}
    assert expected_rows(make_config("euler-newton", 0, 0)) == {"omega.csv": 1 + 67 * 60}


def _write_run(outdir, error, rows):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "summary.json"), "w") as f:
        json.dump({"metrics": {"max_err_omega": error}}, f)
    with open(os.path.join(outdir, "omega.csv"), "w") as f:
        f.write("t,omega1,omega2,omega3,E,L\n" + "0,1,2,3,4,5\n" * rows)


def test_gate_accepts_a_complete_run_and_names_each_failure(tmp_path):
    cfg = make_config("euler-newton", 0, 0)
    rows = expected_rows(cfg)["omega.csv"]
    out = str(tmp_path / "ok")
    _write_run(out, 0.006, rows)
    assert check_outputs("euler-newton", cfg, out) == (0.006, None)

    cases = {
        "short": (0.006, rows - 1, "rows"),
        "nan": (math.nan, rows, "not finite"),
        "bound": (1.0, rows, ">"),
    }
    for name, (err, n, needle) in cases.items():
        out = str(tmp_path / name)
        _write_run(out, err, n)
        _, failure = check_outputs("euler-newton", cfg, out)
        assert failure is not None and needle in failure
    _, failure = check_outputs("euler-newton", cfg, str(tmp_path / "absent"))
    assert failure is not None and "summary.json" in failure


def test_tracer_patches_aliases_and_restores_them():
    from dualfem import cli, fem, heat, projection, transport
    from tracer import Tracer

    originals = (fem.solve_system, heat.solve_system, projection.solve_system,
                 transport.l2_project, transport.gradient_tables, cli.RUNNERS["heat"])
    with Tracer() as tr:
        assert heat.solve_system is fem.solve_system is projection.solve_system
        assert heat.solve_system is not originals[0]
        assert transport.l2_project is projection.l2_project is not originals[3]
        assert transport.gradient_tables is heat.gradient_tables is not originals[4]
        assert cli.RUNNERS["heat"] is cli.run_heat is not originals[5]
        assert "oracles.FourierHeatSolution.__call__" in tr.wrapped
    assert (fem.solve_system, heat.solve_system, projection.solve_system,
            transport.l2_project, transport.gradient_tables,
            cli.RUNNERS["heat"]) == originals


def test_tracer_fails_loudly_when_a_named_function_is_gone(monkeypatch):
    from dualfem import fem
    from tracer import Tracer, TracerError

    monkeypatch.delattr(fem, "solve_linear")
    with pytest.raises(TracerError, match="solve_linear"):
        with Tracer():
            pass


def test_breakdown_splits_solves_by_caller_and_self_time():
    from tracer import run_breakdown

    spans = [  # name, start, end, parent, run id, attrs, probe_s
        ["transport.solve_transport_stage", 0.0, 10.0, -1, 0, None, 0.0],
        ["fem.solve_linear", 1.0, 4.0, 0, 0, {"ndof": 5, "nnz": 9, "resid": 1e-12}, 0.5],
        ["projection.l2_project", 5.0, 9.0, 0, 0, None, 0.0],
        ["fem.solve_linear", 6.0, 8.0, 2, 0, {"ndof": 3, "nnz": 4, "resid": 1e-13}, 0.0],
    ]
    bd = run_breakdown(spans)
    assert bd["fem.solve_linear.dual.calls"] == 1
    assert bd["fem.solve_linear.dual.busy_s"] == 3.0
    assert bd["fem.solve_linear.dual.ndof_max"] == 5
    assert bd["fem.solve_linear.project.calls"] == 1
    assert bd["fem.solve_linear.project.nnz_max"] == 4
    assert bd["projection.l2_project.self_s"] == 2.0
    # the probe after the dual solve is kept out of the stage's self time
    assert bd["layer.transport.self_s"] == 10.0 - 3.0 - 0.5 - 4.0
