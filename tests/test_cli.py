import json
import time

import numpy as np
import pytest

from dualfem import cli
from dualfem.cli import (EXIT_BRANCH, EXIT_CONFIG, EXIT_OK, ConfigError,
                         GridRows, _write_csv, main, make_initial, run_config)
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


def test_run_json_config_and_csv_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAST_HEAT))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_OK

    summary = json.loads((out / "summary.json").read_text())
    assert summary["preset"] is None
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


def test_unsupported_branch_exit_code(tmp_path, capsys):
    cfg = {
        "problem": "euler",
        "I": [1.0, 2.0, 3.0], "omega0": [0.0, 1.0, 0.0], "nu": 0.0,
        "T_total": 0.375, "T_stage": 0.5, "ne_per_stage": 10, "N_c": 2,
        "reference": "elliptic",
    }
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_BRANCH
    assert "unsupported branch" in capsys.readouterr().err


FAST_TRANSPORT = {
    "problem": "transport", "c": 0.25, "L": 2.0, "T_total": 0.5,
    "T_stage": 0.55, "T_keep": 0.5, "nx": 20, "nt": 11,
    "initial": {"type": "step", "x_jump": 0.2, "lo": 2.0, "hi": 4.0},
}
FAST_EULER = {
    "problem": "euler", "I": [1.0, 2.0, 3.0], "omega0": [1.0, 0.0, 3.0],
    "T_total": 0.375, "T_stage": 0.5, "ne_per_stage": 10, "N_c": 2,
}


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
], ids=["negative-k", "T_keep-past-T_stage", "no-elements", "omega0-of-2",
        "unknown-right-mode", "text-k", "text-ne_per_stage", "fractional-nx",
        "fractional-N_c", "fractional-refinement"])
def test_bad_values_exit_config(tmp_path, capsys, base, override, named):
    # out-of-range and non-numeric values are configuration errors, found
    # before any solve, with a message instead of a traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base, **override}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


def test_integral_float_counts_are_accepted():
    assert cli._number({"nx": 10.0}, "nx", kind=int) == 10
    assert cli._number({"nx": "12"}, "nx", kind=int) == 12


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


def test_make_initial_families():
    lin = make_initial({"type": "linear", "slope": 2.0, "intercept": 1.0})
    assert np.allclose(lin(np.array([0.0, 0.5])), [1.0, 2.0])
    step = make_initial({"type": "step", "x_jump": 0.2, "lo": 2.0, "hi": 4.0})
    assert np.allclose(step(np.array([0.0, 0.2, 0.3])), [2.0, 3.0, 4.0])
    jump = make_initial({"type": "jump", "beta": 10.0})
    assert np.allclose(jump(np.array([0.25, 0.5, 0.75])), [10.5, 10.0, 9.5])
    with pytest.raises(ConfigError):
        make_initial({"type": "sawtooth"})
    with pytest.raises(ConfigError):
        make_initial({})


def test_run_config_rejects_unknown_problem(tmp_path):
    with pytest.raises(ConfigError):
        run_config({"problem": "nope"}, str(tmp_path / "x"))


def test_summary_config_matches_input(tmp_path):
    summary = run_config(dict(FAST_HEAT), str(tmp_path / "y"))
    assert summary["config"] == FAST_HEAT


def test_csv_writer_matches_per_value_format(tmp_path, rng):
    # the array writer's bytes equal per-value formatting, f"{v:.17g}" for
    # floats and str(v) for integer columns, across more than one chunk
    tiny = np.nextafter(0.0, 1.0)
    special = [(1, 1, 0.1 + 0.2), (1, 2, float("nan")), (2, 1, float("inf")),
               (2, 2, float("-inf")), (3, 1, -0.0), (3, 2, tiny),
               (4, 1, 2.2250738585072014e-308 / 3), (4, 2, -1e300), (12, 50, 1e-5)]
    random = [(int(i), int(j), float(v)) for i, j, v in
              zip(rng.integers(0, 10_000, 9000), rng.integers(1, 60, 9000),
                  rng.standard_normal(9000) * 10.0 ** rng.integers(-30, 30, 9000))]
    rows = special + random
    path = tmp_path / "new.csv"
    _write_csv(str(path), ["stage", "iteration", "value"], np.array(rows, dtype=float))
    expected = "stage,iteration,value\n" + "".join(
        ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows)
    assert path.read_bytes() == expected.encode()


def test_grid_writer_matches_row_array_writer(tmp_path, rng):
    # a grid writes the bytes of its (x, t, value) rows written as an array
    tiny = np.nextafter(0.0, 1.0)
    x = np.concatenate([[-0.0, 0.0, tiny, 0.1 + 0.2, 1 / 3, 2.2250738585072014e-308 / 3],
                        rng.standard_normal(40) * 10.0 ** rng.integers(-20, 20, 40)])
    t = np.concatenate([[0.0, -0.0, 0.1 + 0.7, 2 / 3, 1e-310],
                        rng.random(95) * 10.0 ** rng.integers(-5, 5, 95)])
    values = rng.standard_normal((t.size, x.size)) * 10.0 ** rng.integers(-300, 300, (t.size, x.size))
    values[0, :6] = [float("nan"), float("inf"), float("-inf"), -0.0, tiny, 1e-320]
    grid = GridRows(x, t, values)
    assert len(grid) == t.size * x.size
    rows = np.column_stack([np.tile(x, t.size), np.repeat(t, x.size), values.ravel()])
    assert len(rows) > 4096                  # the array writer uses more than one chunk
    _write_csv(str(tmp_path / "grid.csv"), ["x", "t", "v"], grid)
    _write_csv(str(tmp_path / "rows.csv"), ["x", "t", "v"], rows)
    data = (tmp_path / "grid.csv").read_bytes()
    assert data == (tmp_path / "rows.csv").read_bytes()
    assert data.count(b"\n") - 1 == len(grid)
    with pytest.raises(ValueError):
        GridRows(x, t, values.T)
    with pytest.raises(ValueError):
        _write_csv(str(tmp_path / "bad.csv"), ["x", "v"], grid)
