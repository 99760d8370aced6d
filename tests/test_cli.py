import contextlib
import io
import json
import os
import sys
import tempfile
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualfem import cli
from dualfem.cli import (EXIT_BRANCH, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, ConfigError,
                         _write_csv, main, make_initial, run_config)
from dualfem.errors import InvalidArgumentError
from dualfem.mesh import NodalGrid
from dualfem.presets import PRESETS, get_preset, list_presets

FAST_HEAT = {
    "problem": "heat",
    "k": 1.0, "L": 1.0, "T": 1.1, "nx": 10, "nt": 11,
    "T_keep": 1.0,
    "right_mode": "dirichlet_theta",
    "theta_left": 1.0, "theta_right": 4.0,
    "initial": {"type": "linear", "slope": 3.0, "intercept": 1.0},
    "dual_bc": {"type": "zero"},
    "reference": {"type": "steady"},
    "metrics": ["pct"],
}

FAST_TRANSPORT = {
    "problem": "transport", "c": 0.25, "L": 2.0, "T_total": 0.5,
    "T_stage": 0.55, "T_keep": 0.5, "nx": 20, "nt": 11,
    "initial": {"type": "step", "x_jump": 0.2, "lo": 2.0, "hi": 4.0},
}
FAST_EULER = {
    "problem": "euler", "I": [1.0, 2.0, 3.0], "omega0": [1.0, 0.0, 3.0],
    "T_total": 0.375, "T_stage": 0.5, "ne_per_stage": 10, "N_c": 2,
}
FAST_DEMO = {"problem": "algebraic-demo", "n_cases": 2}

#: FAST_HEAT in the default right_mode, which reads pi_right, not theta_right
NEUMANN_HEAT = {**{k: v for k, v in FAST_HEAT.items() if k != "theta_right"},
                "right_mode": "neumann_pi", "pi_right": 0.0}


def test_list_presets_names():
    names = list_presets()
    assert names == sorted(PRESETS)
    assert len(names) == 11
    assert "heat-steady" in names and "euler-damped" in names


def test_get_preset_is_a_copy():
    a = get_preset("heat-steady")
    a["nx"] = 1
    assert PRESETS["heat-steady"]["nx"] == 100
    assert a["preset"] == "heat-steady"
    with pytest.raises(KeyError):
        get_preset("no-such-preset")


def test_list_presets_command(capsys):
    assert main(["list-presets"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out == sorted(PRESETS)


def test_unknown_preset_exits_config(capsys):
    assert main(["preset", "no-such-preset"]) == EXIT_CONFIG


def test_no_command_prints_help(capsys):
    assert main([]) == EXIT_CONFIG


def test_preset_run_writes_summary(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["preset", "algebraic-demo", "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["preset"] == "algebraic-demo"
    assert summary["config"]["problem"] == "algebraic-demo"
    assert summary["metrics"]["consistent_solved"] == 100
    assert summary["metrics"]["inconsistent_reported"] == 100
    assert summary["metrics"]["false_positives"] == 0
    assert summary["wall_time_s"] > 0
    # the printed output is the metrics block as JSON
    printed = json.loads(capsys.readouterr().out)
    assert printed == summary["metrics"]


def grid_rows(grid):
    """The (x, t, value) rows of a NodalGrid as a 2-D array, x varying fastest."""
    return np.column_stack([np.tile(grid.x, grid.t.size), np.repeat(grid.t, grid.x.size),
                            grid.values.ravel()])


def test_run_json_config_and_csv_roundtrip(tmp_path, capsys, monkeypatch):
    # for one config of each problem kind, the run writes exactly the CSVs its
    # runner returns, those are the kind's named files, and each parses back
    # bitwise to the returned array
    returned = {}
    for problem, runner in cli.RUNNERS.items():
        def recorded(cfg, problem=problem, runner=runner):
            returned[problem] = runner(cfg)
            return returned[problem]
        monkeypatch.setitem(cli.RUNNERS, problem, recorded)
    for cfg, csvs in ((FAST_HEAT, {"theta.csv", "error.csv"}),
                      (FAST_TRANSPORT, {"u.csv", "jump.csv"}),
                      (FAST_EULER, {"omega.csv", "newton.csv"}),
                      (FAST_DEMO, set())):
        problem = cfg["problem"]
        cfg_path = tmp_path / f"{problem}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / problem
        assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["preset"] is None
        _, artifacts = returned[problem]
        assert set(artifacts) == csvs
        assert cli._output_names(problem, cfg) == [*artifacts, "summary.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted([*csvs, "summary.json"])
        for name, (header, rows) in artifacts.items():
            rows = grid_rows(rows) if isinstance(rows, NodalGrid) else rows
            assert (out / name).read_text().split("\n", 1)[0] == ",".join(header)
            data = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
            assert data.shape == rows.shape and data.dtype == rows.dtype == np.float64
            assert data.tobytes() == rows.tobytes()
    assert set(returned) == set(cli.RUNNERS)

    out = tmp_path / "heat"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["max_pct_error_retained"] < 1.0
    lines = (out / "theta.csv").read_text().strip().splitlines()
    assert lines[0] == "x,t,theta"
    assert len(lines) == 1 + 11 * 12
    # 17-significant-digit output round-trips float64 exactly: the x column
    # must reproduce the mesh coordinates bitwise
    xs = sorted({float(l.split(",")[0]) for l in lines[1:]})
    assert xs == [i * 0.1 for i in range(11)]
    # pinned boundary value is exact
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[2]) == 1.0
    assert (out / "error.csv").exists()


def test_run_missing_and_invalid_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == EXIT_CONFIG
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"problem": "acoustics"}))
    assert main(["run", str(unknown)]) == EXIT_CONFIG
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"problem": "heat", "k": 1.0}))
    assert main(["run", str(missing)]) == EXIT_CONFIG


def count_euler_solves(monkeypatch):
    """Wrap euler.run_euler as the CLI calls it; returns its call list."""
    calls, run_euler = [], cli.euler_mod.run_euler
    monkeypatch.setattr(cli.euler_mod, "run_euler",
                        lambda config: calls.append(config) or run_euler(config))
    return calls


def test_unsupported_branch_exit_code(tmp_path, capsys, monkeypatch):
    # rotation about the intermediate axis (k^2 = 1) is exit 4 before any solve
    cfg = {
        "problem": "euler",
        "I": [1.0, 2.0, 3.0], "omega0": [0.0, 1.0, 0.0], "nu": 0.0,
        "T_total": 0.375, "T_stage": 0.5, "ne_per_stage": 10, "N_c": 2,
        "reference": "elliptic",
    }
    calls = count_euler_solves(monkeypatch)
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_BRANCH
    assert "unsupported branch" in capsys.readouterr().err
    assert calls == []


HEAT_JUMP = {**FAST_HEAT, "k": 0.1, "T": 0.1, "initial": {"type": "jump"},
             "theta_left": 10.0, "theta_right": 10.0}


@pytest.mark.parametrize("base, override, named", [
    (FAST_HEAT, {"k": -1}, "k=-1"),
    (FAST_TRANSPORT, {"T_keep": 0.6, "T_stage": 0.5}, "T_keep"),
    (FAST_HEAT, {"nx": 0}, "nx=0"),
    (FAST_EULER, {"omega0": [1.0, 0.0]}, "omega0"),
    (FAST_HEAT, {"right_mode": "foo"}, "'foo'"),
    (FAST_HEAT, {"k": "abc"}, "'k'"),
    (FAST_EULER, {"ne_per_stage": "x"}, "'ne_per_stage'"),
    (FAST_HEAT, {"nx": 10.7}, "'nx'"),
    (FAST_EULER, {"N_c": 2.5}, "'N_c'"),
    (FAST_EULER, {"refinements": [10, 20.5]}, "'refinements'"),
    (FAST_HEAT, {"k": True}, "'k'"),
    (FAST_HEAT, {"nx": True}, "'nx'"),
    (FAST_EULER, {"refinements": [10, True]}, "'refinements'"),
    (FAST_EULER, {"nu": True}, "'nu'"),
    (FAST_EULER, {"omega0": [1.0, False, 3.0]}, "'omega0'"),
    (FAST_HEAT, {"initial": None}, "'initial'"),
    (FAST_HEAT, {"initial": 5}, "'initial'"),
    (FAST_HEAT, {"reference": 5}, "'reference'"),
    (FAST_HEAT, {"dual_bc": 5}, "'dual_bc'"),
    (FAST_EULER, {"problem": ["euler"]}, "'problem'"),
    (FAST_EULER, {"refinements": "88"}, "'refinements'"),
    (FAST_HEAT, {"metrics": "err1err2"}, "'metrics'"),
    (FAST_HEAT, {"metrics": ["pct2", "err"]},
     "'metrics' is not valid: unknown heat metric 'pct2'"),
    (FAST_TRANSPORT, {"initial": {"type": "linear", "slope": 1.0}}, "'initial'"),
    (FAST_TRANSPORT, {"metrics": ["pct", "bogus"]},
     "'metrics' is not valid: unknown transport metric 'bogus'"),
    (FAST_TRANSPORT, {"metrics": "pct"}, "'metrics'"),
    (FAST_TRANSPORT, {"T_total": 0.0}, "T_total=0.0"),
    (FAST_TRANSPORT, {"T_total": -1.0}, "T_total=-1.0"),
    (FAST_EULER, {"T_total": 0.0}, "T_total=0.0"),
    (FAST_EULER, {"T_total": -1.0}, "T_total=-1.0"),
    (FAST_EULER, {"tol": 0.0}, "tol=0.0"),
    (FAST_EULER, {"tol": -1e-10}, "tol=-1e-10"),
    (FAST_HEAT, {"T_keep": -0.1}, "'T_keep'"),
    (FAST_HEAT, {"theta_rigth": 4.0}, "'theta_rigth' is unknown"),
    (FAST_EULER, {"lambda_T": 0.0}, "'lambda_T' is unknown"),
    (FAST_HEAT, {"initial": {"type": "linear", "slop": 3.0}}, "'initial.slop' is unknown"),
    (FAST_HEAT, {"dual_bc": {"type": "zero", "k": 1.0}}, "'dual_bc.k' is unknown"),
    (FAST_HEAT, {"reference": {"type": "steady", "n_terms": 10}},
     "'reference.n_terms' is unknown"),
    (FAST_HEAT, {"initial": {"slope": 3.0}}, "'initial'"),
    (FAST_HEAT, {"initial": {"type": "smoothed_jump", "eps": 0.0}}, "'initial.eps'"),
    (FAST_HEAT, {"reference": {"type": "fourier_discontinuous"}}, "'reference'"),
    (HEAT_JUMP, {"reference": {"type": "fourier_discontinuous", "n_terms": 0}}, "n_terms=0"),
    (FAST_TRANSPORT, {"c": float("nan")}, "'c'"),
    (FAST_TRANSPORT, {"c": float("inf")}, "'c'"),
    (FAST_EULER, {"nu": float("-inf")}, "'nu'"),
    (FAST_HEAT, {"nx": -1}, "'nx'"),
    (FAST_DEMO, {"rows": 0}, "'rows'"),
    (FAST_DEMO, {"cols": 0}, "'cols'"),
    (FAST_DEMO, {"n_cases": -1}, "'n_cases'"),
    (FAST_DEMO, {"n_cases": 0}, "'n_cases'"),
    (FAST_DEMO, {"seed": -1}, "'seed'"),
    (FAST_EULER, {"reference": "elliptic", "nu": 0.4}, "'reference'"),
    (FAST_HEAT, {"pi_right": 0.0}, "'pi_right'"),
    (NEUMANN_HEAT, {"theta_right": 4.0}, "'theta_right'"),
    (FAST_TRANSPORT, {"L": 1}, "'L' and 'nx'"),
    (FAST_TRANSPORT, {"nx": 5}, "'L' and 'nx'"),
], ids=["negative-k", "T_keep-past-T_stage", "no-elements", "omega0-of-2",
        "unknown-right-mode", "text-k", "text-ne_per_stage", "fractional-nx",
        "fractional-N_c", "fractional-refinement", "bool-k", "bool-nx",
        "bool-refinement", "bool-nu", "bool-omega0", "null-initial",
        "number-initial", "number-reference", "number-dual_bc", "list-problem",
        "text-refinements", "text-metrics", "unknown-metric", "linear-transport-initial",
        "unknown-transport-metric", "text-transport-metrics", "zero-transport-T_total",
        "negative-transport-T_total", "zero-euler-T_total", "negative-euler-T_total",
        "zero-euler-tol", "negative-euler-tol", "negative-heat-T_keep",
        "misspelled-key", "removed-lambda_T", "unknown-initial-key", "unknown-dual_bc-key",
        "unknown-reference-key", "initial-without-type", "zero-eps",
        "reference-initial-mismatch", "zero-series-terms", "nan-c", "infinite-c",
        "infinite-nu", "negative-nx", "zero-demo-rows", "zero-demo-cols",
        "negative-demo-n_cases", "zero-demo-n_cases", "negative-demo-seed",
        "damped-elliptic-reference", "pi_right-in-dirichlet_theta",
        "theta_right-in-neumann_pi", "short-transport-L", "coarse-transport-nx"])
def test_bad_values_exit_config(tmp_path, capsys, monkeypatch, base, override, named):
    # out-of-range and non-numeric values are configuration errors, found
    # before any solve, with a message instead of a traceback
    def no_solve(*args, **kwargs):
        raise AssertionError("solve reached")
    for module, name in ((cli.euler_mod, "run_euler"), (cli.heat_mod, "solve_heat_primal"),
                         (cli.transport, "run_time_sliced")):
        monkeypatch.setattr(module, name, no_solve)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base, **override}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


@pytest.mark.parametrize("override, message", [
    ({"omega0": [1.0, 0.5, 3.0]}, "omega_2(0) = 0"),
    ({"omega0": [1.0, 0.0, -3.0]}, "positive cn/dn branch"),
    ({"I": [3.0, 2.0, 1.0]}, "I1 < I2 < I3"),
], ids=["omega2-nonzero", "negative-omega3", "unordered-inertias"])
def test_elliptic_branch_checked_before_the_solve(tmp_path, capsys, monkeypatch,
                                                  override, message):
    # every check of the elliptic reference runs before run_euler; the same
    # configs with the rk45 reference solve
    calls = count_euler_solves(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**FAST_EULER, **override, "reference": "elliptic"}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_BRANCH
    assert message in capsys.readouterr().err
    assert calls == []
    path.write_text(json.dumps({**FAST_EULER, **override, "reference": "rk45"}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(calls) == 1


def test_transport_masks_that_leave_no_node_warn_nothing(tmp_path, capsys):
    # nanmax over a mask that covers every node used to warn "All-NaN slice"
    # and write NaN metrics
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**FAST_TRANSPORT, "L": 1}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not caught
    assert not (tmp_path / "o" / "summary.json").exists()


def test_non_object_config_exits_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for text in ("5", "null", '["heat"]'):
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("base, key", [
    (FAST_HEAT, "dual_bc"), (FAST_HEAT, "metrics"), (NEUMANN_HEAT, "right_mode"),
    (FAST_HEAT, "reference"), (FAST_EULER, "reference"),
], ids=["dual_bc", "metrics", "right_mode", "heat-reference", "euler-reference"])
def test_null_key_reads_as_absent(tmp_path, capsys, base, key):
    # a null key takes its default: the run matches one without the key
    runs = {"null": {**base, key: None},
            "absent": {k: v for k, v in base.items() if k != key}}
    metrics = {}
    for name, cfg in runs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / name)]) == EXIT_OK
        metrics[name] = json.loads((tmp_path / name / "summary.json").read_text())["metrics"]
    assert metrics["null"] == metrics["absent"]


def test_integral_float_counts_are_accepted(tmp_path):
    for nx, n in ((10.0, 10), ("12", 12)):
        out = tmp_path / str(n)
        run_config({**FAST_HEAT, "nx": nx}, str(out))
        assert len((out / "theta.csv").read_text().splitlines()) == 1 + (n + 1) * 12


def test_null_refinements_read_as_absent(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**FAST_EULER, "refinements": None}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    metrics = json.loads((tmp_path / "o" / "summary.json").read_text())["metrics"]
    assert not any(key.startswith("refinement") for key in metrics)


def test_refinement_ne_reports_parsed_counts():
    summary, _ = cli.run_euler_cfg({**FAST_EULER, "refinements": [10.0, 20.0]})
    assert summary["refinement_ne"] == [10, 20]
    assert all(type(ne) is int for ne in summary["refinement_ne"])
    assert len(summary["refinement_max_err"]) == 2


def test_wall_time_includes_csv_output(tmp_path, monkeypatch):
    write_csv = cli._write_csv

    def slow_write_csv(*args):
        time.sleep(0.05)
        write_csv(*args)

    monkeypatch.setattr(cli, "_write_csv", slow_write_csv)
    summary = run_config(dict(FAST_HEAT), str(tmp_path / "o"))
    assert summary["wall_time_s"] >= 0.05


def test_outdir_environment_variable(tmp_path, monkeypatch, capsys):
    target = tmp_path / "env-out"
    monkeypatch.setenv("DUALFEM_OUT", str(target))
    assert main(["preset", "algebraic-demo"]) == EXIT_OK
    assert (target / "summary.json").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "under-a-file"])
def test_unusable_output_directory_exits_config_before_any_solve(tmp_path, capsys,
                                                                 monkeypatch, below):
    calls = []
    monkeypatch.setitem(cli.RUNNERS, "algebraic-demo", lambda cfg: calls.append(cfg))
    blocker = tmp_path / "F"
    blocker.write_text("")
    out = str(blocker / below) if below else str(blocker)
    assert main(["preset", "algebraic-demo", "--out", out]) == EXIT_CONFIG
    assert repr(out) in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("args, kind, blocked, reason", [
    (["preset", "algebraic-demo"], "algebraic-demo", "summary.json", "it is a directory"),
    (["preset", "transport-step"], "transport", "u.csv", "it is a directory"),
    (["run", "HEAT"], "heat", "err2.csv", "it is a directory"),
    (["preset", "euler-free"], "euler", "newton.csv", "it is read-only"),
], ids=["demo-summary", "transport-u", "heat-err2", "euler-read-only"])
def test_unwritable_output_file_exits_config_before_any_solve(tmp_path, capsys, monkeypatch,
                                                              args, kind, blocked, reason):
    # a file the run would write that is a directory or read-only is found
    # from the config before the runner is called
    calls = []
    monkeypatch.setitem(cli.RUNNERS, kind, lambda cfg: calls.append(cfg))
    heat = tmp_path / "heat.json"
    heat.write_text(json.dumps({**FAST_HEAT, "metrics": ["pct", "err2"]}))
    out = tmp_path / "out"
    out.mkdir()
    if reason == "it is a directory":
        (out / blocked).mkdir()
    else:
        # a file mode does not stop a superuser, so the access check is faked
        (out / blocked).write_text("")
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: path != str(out / blocked)
                            and access(path, mode))
    args = [str(heat) if a == "HEAT" else a for a in args]
    assert main([*args, "--out", str(out)]) == EXIT_CONFIG
    assert f"{str(out / blocked)!r} cannot be written: {reason}" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("metrics", [{"n": 1, "bad": float("nan")},
                                     {"bad": float("inf")},
                                     {"n": 1, "bad": [0.5, -float("inf")]}],
                         ids=["nan", "inf", "-inf-in-a-list"])
def test_non_finite_summary_metric_exits_solver_and_writes_no_summary(tmp_path, capsys,
                                                                      monkeypatch, metrics):
    monkeypatch.setitem(cli.RUNNERS, "algebraic-demo", lambda cfg: (metrics, {}))
    out = tmp_path / "out"
    assert main(["preset", "algebraic-demo", "--out", str(out)]) == EXIT_SOLVER
    assert "summary metric 'bad'" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_make_initial_families(tmp_path):
    lin = make_initial({"type": "linear", "slope": 2.0, "intercept": 1.0})
    assert np.allclose(lin(np.array([0.0, 0.5])), [1.0, 2.0])
    step = make_initial({"type": "step", "x_jump": 0.2, "lo": 2.0, "hi": 4.0})
    assert np.allclose(step(np.array([0.0, 0.2, 0.3])), [2.0, 3.0, 4.0])
    # a node meant to lie on the jump takes the mean despite round-off in its
    # coordinate; beyond 1e-12 the step is lo or hi
    near = np.array([np.nextafter(0.2, -np.inf), np.nextafter(0.2, np.inf),
                     0.2 - 0.9e-12, 0.2 + 0.9e-12, 0.2 - 1.1e-12, 0.2 + 1.1e-12])
    assert np.array_equal(step(near), [3.0, 3.0, 3.0, 3.0, 2.0, 4.0])
    jump = make_initial({"type": "jump", "beta": 10.0})
    assert np.allclose(jump(np.array([0.25, 0.5, 0.75])), [10.5, 10.0, 9.5])
    for initial in ({"type": "sawtooth"}, {}):
        with pytest.raises(ConfigError):
            run_config({**FAST_HEAT, "initial": initial}, str(tmp_path / "o"))


def test_euler_refinements_share_one_reference_and_the_main_run(tmp_path, monkeypatch):
    # one RK45 integration, to the end of the longest run, serves every run,
    # and the refinement at the main run's ne_per_stage reuses that run
    meshes, runs, run_euler = [], [], cli.euler_mod.run_euler
    monkeypatch.setattr(cli.euler_mod, "run_euler", lambda config: meshes.append(
        config.ne_per_stage) or runs.append(run_euler(config)) or runs[-1])
    ends, rk45_reference = [], cli.oracles.rk45_reference
    monkeypatch.setattr(cli.oracles, "rk45_reference",
                        lambda *args, T: ends.append(T) or rk45_reference(*args, T=T))
    cfg = {**get_preset("euler-free-convergence"), "reference": "rk45"}
    summary = run_config(cfg, str(tmp_path / "o"))
    assert meshes == [20, 40, 80]
    assert ends == [max(float(r.t[-1]) for r in runs)]
    # each error agrees with that against the run's own reference to its end
    errs = summary["metrics"]["refinement_max_err"]
    assert errs[0] == summary["metrics"]["max_err_omega"]
    for run, err in zip(runs, errs):
        own = rk45_reference(cfg["I"], cfg["omega0"], cfg["nu"], T=float(run.t[-1]))
        assert abs(float(cli.metrics.err_omega(run.omega, own(run.t)).max()) - err) \
            <= 1e-9 + 1e-8 * err


def test_presets_and_benchmark_configs_read():
    # a slip in the key tables fails here rather than in the benchmark
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench"))
    from workloads import WORKLOADS, make_config
    configs = [get_preset(name) for name in list_presets()] + [
        make_config(w, 0, rep) for w in WORKLOADS for rep in (0, 3)]
    for cfg in configs:
        assert cli._read(cfg, cli.KEYS[cfg["problem"]], cfg["problem"])


#: values a fuzzed key takes: wrong types, non-finite and out-of-range
#: numbers, and small counts (no tiny lengths, so every run stays fast)
ADVERSARIAL = st.one_of(
    st.sampled_from([None, True, False, "", "x", "12", [], {}, float("nan"),
                     float("inf"), float("-inf"), -1, 0, 0.5, 2.5]),
    st.integers(1, 40))
FUZZED = {"heat": FAST_HEAT, "transport": FAST_TRANSPORT, "euler": FAST_EULER}


def _misspelled(key):
    return key[:-2] + key[-1] + key[-2] if len(key) > 1 else key + key


@st.composite
def fuzz_cases(draw):
    problem = draw(st.sampled_from(sorted(FUZZED)))
    keys = st.sampled_from(sorted(FUZZED[problem]))
    return (problem, draw(st.dictionaries(keys, ADVERSARIAL, min_size=1, max_size=2)),
            draw(st.none() | keys))


@settings(max_examples=60, deadline=None)
@example(case=("transport", {"c": float("nan")}, None))
@example(case=("heat", {}, "theta_right"))
@given(case=fuzz_cases())
def test_fuzzed_configs_exit_with_a_documented_code(case):
    # one or two keys set to adversarial values, and maybe one misspelled
    # key added: every run exits 0, 2, 3 or 4 with a message, never a traceback
    problem, edits, typo = case
    base = FUZZED[problem]
    cfg = {**base, **edits}
    if typo is not None:
        cfg[_misspelled(typo)] = base[typo]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", path, "--out", os.path.join(tmp, "o")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_BRANCH)
    assert "Traceback" not in err.getvalue()
    if typo is not None:
        assert code == EXIT_CONFIG


def test_run_config_rejects_unknown_problem(tmp_path):
    with pytest.raises(ConfigError):
        run_config({"problem": "nope"}, str(tmp_path / "x"))


def test_summary_config_matches_input(tmp_path):
    summary = run_config(dict(FAST_HEAT), str(tmp_path / "y"))
    assert summary["config"] == FAST_HEAT


def test_csv_writer_matches_per_value_format(tmp_path, rng):
    # the array writer's bytes equal per-value formatting, f"{v:.17g}" for
    # floats and str(v) for integer columns, for a short array and across
    # more than one block
    tiny = np.nextafter(0.0, 1.0)
    special = [(1, 1, 0.1 + 0.2), (1, 2, float("nan")), (2, 1, float("inf")),
               (2, 2, float("-inf")), (3, 1, -0.0), (3, 2, tiny),
               (4, 1, 2.2250738585072014e-308 / 3), (4, 2, -1e300), (12, 50, 1e-5)]
    random = [(int(i), int(j), float(v)) for i, j, v in
              zip(rng.integers(0, 10_000, 9000), rng.integers(1, 60, 9000),
                  rng.standard_normal(9000) * 10.0 ** rng.integers(-30, 30, 9000))]
    path = tmp_path / "new.csv"
    for rows in (special, special + random):
        _write_csv(str(path), ["stage", "iteration", "value"], np.array(rows, dtype=float))
        expected = "stage,iteration,value\n" + "".join(
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows)
        assert path.read_bytes() == expected.encode()


def _per_value(values):
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(1e-4, 1e17), st.floats(-1e17, -1e-4)),
                max_size=60))
def test_format_g17_matches_per_value_format(values):
    # any float64, NaN, infinities, zeros and subnormals included
    assert cli._format_g17(np.array(values, dtype=float)) == _per_value(values)


def test_format_g17_adversarial_families():
    families = []
    # exact ties: m / 2**(p + 1) with m odd and 5**p | 2 D + 1 is D + 1/2 at
    # scale 10**p, which %.17g rounds half to even; with their 1-ulp neighbours
    for p in range(1, 22):
        lo_m, hi_m = -(-2 * 10 ** 16 // 5 ** p), min(2 * 10 ** 17 // 5 ** p, 2 ** 53)
        m = np.unique(np.linspace(lo_m, hi_m - 1, 40).astype(np.int64) | 1)
        ties = np.ldexp(m.astype(float), -(p + 1))
        assert all((Fraction(v) * 10 ** p).denominator == 2 for v in ties.tolist())
        families += [ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)]
    # the nearest doubles to half-way points (D + 1/2) / 10**(16 - k), +-1 ulp
    D = np.linspace(10 ** 16, 10 ** 17 - 1, 50).astype(np.int64)
    for k in range(-5, 18):
        mid = (D + 0.5) / 10.0 ** (16 - k)
        families += [mid, np.nextafter(mid, 0), np.nextafter(mid, np.inf)]
    # 10**k and its neighbours across the fixed-notation band and its edges
    for k in range(-5, 18):
        p10 = np.array([10.0 ** k])
        families += [p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf),
                     np.nextafter(np.nextafter(p10, 0), 0)]
    # values that round up to the next power of ten at 17 digits: no double
    # in the fixed band does, so these are doubles just below 10**k that
    # print as 1e..., and 17-digit strings of 9s that round up on parsing
    families += [np.array([1e-14, 1e98, 1e153, 1e-305, 9.99999999999999999e16,
                           9.99999999999999999e-5, 0.099999999999999999,
                           99999999999999999.0, 9999999999999999.5])]
    # integers, short decimals, and the extremes
    families += [np.arange(0.0, 40.0), np.arange(40) / 8, np.arange(40) * 0.1,
                 np.array([0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e308, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 57])]
    values = np.concatenate(families)
    values = np.concatenate([values, -values])
    assert cli._format_g17(values) == _per_value(values)


def test_grid_writer_matches_row_array_writer(tmp_path, rng):
    # a grid writes the bytes of its (x, t, value) rows written as an array,
    # and both match per-value formatting
    tiny = np.nextafter(0.0, 1.0)
    x = np.concatenate([[-0.0, 0.0, tiny, 0.1 + 0.2, 1 / 3, 2.2250738585072014e-308 / 3],
                        rng.standard_normal(40) * 10.0 ** rng.integers(-20, 20, 40)])
    t = np.concatenate([[0.0, -0.0, 0.1 + 0.7, 2 / 3, 1e-310],
                        rng.random(95) * 10.0 ** rng.integers(-5, 5, 95)])
    shape = (t.size, x.size)       # half the values in %.17g's fixed-notation band
    values = rng.standard_normal(shape) * 10.0 ** np.where(
        rng.random(shape) < 0.5, rng.integers(-300, 300, shape), rng.integers(-8, 20, shape))
    values[0, :6] = [float("nan"), float("inf"), float("-inf"), -0.0, tiny, 1e-320]
    grid = NodalGrid(x, t, values)
    assert len(grid) == t.size * x.size
    rows = grid_rows(grid)
    assert values.size > cli._CSV_VALUES        # both writers use several blocks
    _write_csv(str(tmp_path / "grid.csv"), ["x", "t", "v"], grid)
    _write_csv(str(tmp_path / "rows.csv"), ["x", "t", "v"], rows)
    data = (tmp_path / "grid.csv").read_bytes()
    assert data == (tmp_path / "rows.csv").read_bytes()
    expected = "x,t,v\n" + "".join(f"{xv:.17g},{tv:.17g},{v:.17g}\n"
                                   for tv, row in zip(t.tolist(), values.tolist())
                                   for xv, v in zip(x.tolist(), row))
    assert data == expected.encode()
    assert data.count(b"\n") - 1 == len(grid)
    with pytest.raises(InvalidArgumentError):
        NodalGrid(x, t, values.T)
    with pytest.raises(ValueError):
        _write_csv(str(tmp_path / "bad.csv"), ["x", "v"], grid)
