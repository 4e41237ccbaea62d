"""Tests for the command-line interface: formats, flags, exit codes."""

import csv
import io
import json
import time

from firmglass.cli import cli
from firmglass.experiment import result_from_json

DESK = ["--n", "50", "--k", "4", "--seed", "1"]


def run_cli(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_json_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "run", *DESK, "--j0", "0", "--sigma-j", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["k_realizations"] == 4
    assert len(doc["points"]) == 1
    assert len(doc["points"][0]["nd_values"]) == 4


def test_run_csv_format(capsys):
    code, out, _ = run_cli(capsys, "run", *DESK, "--j0", "0.001", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "sweep_value"
    assert len(rows) == 2


def test_run_single_realization_has_null_semivariance(capsys):
    code, out, _ = run_cli(capsys, "run", "--n", "30", "--k", "1", "--seed", "3")
    assert code == 0
    assert json.loads(out)["points"][0]["semivariance_plus"] is None


def test_run_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "run", *DESK, "--out", str(target))
    assert code == 0
    assert out == ""
    assert result_from_json(target.read_text()).spec.k_realizations == 4


def test_run_constant_table_mode(capsys):
    code, out, _ = run_cli(capsys, "run", *DESK, "--f-mode", "constant_table")
    assert code == 0
    doc = json.loads(out)
    assert doc["f_mode"] == "constant_table"
    assert doc["base_params"]["f_table"]["0"] != 0.0


def test_sweep_runs_and_reports_argmin(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "40", "--k", "3", "--seed", "2",
        "--j0-min", "0", "--j0-max", "0.01", "--j0-points", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 3
    assert doc["argmin_index"] in (0, 1, 2)


def test_sweep_invalid_range_exits_one(capsys):
    code, _, err = run_cli(capsys, "sweep", *DESK, "--j0-min", "0", "--j0-max", "-1")
    assert code == 1
    assert "--j0-max" in err


def test_bad_thread_count_exits_one_before_any_work(capsys):
    for command in (["run", *DESK], ["reproduce", "fig1", "--n", "20", "--k", "2"]):
        code, out, err = run_cli(capsys, *command, "--threads", "0")
        assert code == 1
        assert "configuration error" in err and "--threads" in err
        assert "[firmglass] sweep" not in err
        assert out == ""


def test_unknown_flag_exits_one(capsys):
    code, _, _ = run_cli(capsys, "run", "--frobnicate", "1")
    assert code == 1


def test_missing_subcommand_exits_one(capsys):
    assert run_cli(capsys)[0] == 1


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_oracle_point_value(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--p", "0.3333333", "--q", "0.3333333")
    assert code == 0
    value = float(out.splitlines()[0].rsplit(":", 1)[1])
    assert abs(value - 0.202) <= 0.001


def test_oracle_requires_probabilities(capsys):
    assert run_cli(capsys, "oracle")[0] == 1
    assert run_cli(capsys, "oracle", "--p", "0.9", "--q", "0.9")[0] == 1
    for p, q in (("nan", "0"), ("0", "nan"), ("inf", "0")):
        code, _, err = run_cli(capsys, "oracle", "--p", p, "--q", q)
        assert code == 1 and "configuration error" in err


def test_oracle_grid_csv(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "oracle", "--grid", "--out", str(target))
    assert code == 0
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert rows[0] == ["p_up", "q_down", "markov", "closed_form", "abs_deviation"]
    assert len(rows) == 67  # header + 66 simplex points


def test_meanfield_json(capsys):
    code, out, _ = run_cli(
        capsys, "meanfield", "--beta-min", "0", "--beta-max", "6", "--beta-points", "4"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"steps", "r_max", "betas"}
    assert [entry["beta"] for entry in doc["betas"]] == [0.0, 2.0, 4.0, 6.0]
    strong = doc["betas"][-1]["fixed_points"]
    assert any(point["stable"] and point["p_up"] > 0.9 for point in strong)
    assert any(point["stable"] and point["q_down"] > 0.9 for point in strong)


def test_meanfield_covers_the_ordered_phase(capsys):
    code, out, _ = run_cli(capsys, "meanfield", "--beta-max", "40")
    assert code == 0
    strongest = json.loads(out)["betas"][-1]
    assert strongest["beta"] == 40.0
    assert sum(point["stable"] for point in strongest["fixed_points"]) == 3


def test_meanfield_j0_conversion(capsys):
    code, out, _ = run_cli(
        capsys, "meanfield", "--j0-min", "0", "--j0-max", "0.004",
        "--j0-points", "2", "--n", "1000", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    betas = {row[0] for row in rows[1:]}
    assert betas == {"0.0", "4.0"}


def test_meanfield_incomplete_j0_flags(capsys):
    assert run_cli(capsys, "meanfield", "--j0-min", "0")[0] == 1


def test_meanfield_j0_conversion_refuses_too_few_points_or_firms(capsys):
    for points, n in (("0", "1000"), ("1", "1000"), ("2", "0")):
        code, out, err = run_cli(capsys, "meanfield", "--j0-min", "0", "--j0-max", "0.004",
                                 "--j0-points", points, "--n", n)
        assert code == 1 and "configuration error" in err and out == ""


def test_meanfield_non_finite_flags_exit_one_before_any_work(capsys):
    for argv in (["--beta-max", "nan", "--beta-points", "2"],
                 ["--beta-min=-inf"],
                 ["--j0-min", "0", "--j0-max", "inf", "--j0-points", "2"],
                 ["--j0-min", "0", "--j0-max", "1e306", "--j0-points", "2"]):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "meanfield", *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 1, argv
        assert "configuration error" in err and "must be finite" in err
        assert out == ""


def test_chain_flags_exit_one_before_any_output(capsys):
    point = ["oracle", "--p", "0.3", "--q", "0.3"]
    for argv in (["meanfield", "--rmax", "0"], ["meanfield", "--steps", "-1"],
                 [*point, "--rmax", "0"], [*point, "--steps", "-1"],
                 ["oracle", "--grid", "--rmax", "0"],
                 ["oracle", "--grid", "--grid-step", "0"]):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 1, argv
        assert "configuration error" in err
        assert out == ""


def test_reproduce_desk_scale(tmp_path, capsys):
    target = tmp_path / "fig1.json"
    code, _, _ = run_cli(
        capsys, "reproduce", "fig1", "--n", "40", "--k", "3",
        "--out", str(target),
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["values"] == [0.0001]
    assert doc["base_params"]["n_firms"] == 40


def test_reproduce_unknown_preset_exits_one(capsys):
    assert run_cli(capsys, "reproduce", "fig99")[0] == 1


def test_io_failure_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "run", *DESK, "--out", "/nonexistent-dir/o.json"
    )
    assert code == 2
    assert "/nonexistent-dir/o.json" in err
