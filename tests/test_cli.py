"""Tests for the command-line interface: formats, flags, exit codes."""

import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import firmglass
from firmglass import cli as cli_module
from firmglass.cli import cli
from firmglass.core import RATING_DRIFT_WEIGHTS, f_table_from_weights
from firmglass.experiment import result_from_json

DESK = ["--n", "50", "--k", "4", "--seed", "1"]


def run_cli(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_dash_m_runs_the_cli():
    source_root = str(Path(firmglass.__file__).resolve().parents[1])
    paths = [source_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-m", "firmglass", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: firmglass" in done.stdout and "oracle" in done.stdout


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


def test_constant_table_takes_absent_weights_from_the_drift_default(capsys):
    code, out, _ = run_cli(capsys, "run", *DESK, "--f-mode", "constant_table",
                           "--f-up", "0.2")
    assert code == 0
    expected = f_table_from_weights(*RATING_DRIFT_WEIGHTS[:2], 0.2)
    table = json.loads(out)["base_params"]["f_table"]
    assert {int(move): f for move, f in table.items()} == expected


def test_drift_weights_without_a_table_exit_one_before_any_output(capsys):
    sweep = ["sweep", *DESK, "--j0-min", "0", "--j0-max", "0.01"]
    for argv in (["run", *DESK, "--f-down", "0.5", "--f-stay", "0.25", "--f-up", "0.25"],
                 ["run", *DESK, "--f-mode", "zero", "--f-stay", "0.75"],
                 [*sweep, "--f-up", "0.1"]):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 1, argv
        assert "configuration error" in err and "--f-mode constant_table" in err
        assert out == ""


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


def test_overflowing_couplings_exit_one_before_any_work(capsys):
    # only the last sweep value overflows, so every value is checked up front
    for argv in (["sweep", "--n", "50", "--k", "2", "--j0-min", "0", "--j0-max", "1e308",
                  "--j0-points", "2"],
                 ["run", "--n", "50", "--k", "2", "--sigma-j", "1e308"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert "configuration error" in err and "at most 1e300" in err
        assert "[firmglass] sweep" not in err
        assert out == ""


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


def test_meanfield_refuses_a_short_or_empty_beta_range(capsys):
    for argv in (["--beta-points", "1"], ["--beta-points", "0"],
                 ["--beta-min", "3", "--beta-max", "2"],
                 # equal to the default --beta-max of 6
                 ["--beta-min", "6"]):
        code, out, err = run_cli(capsys, "meanfield", *argv)
        assert code == 1, argv
        assert "configuration error" in err and out == ""


def test_meanfield_non_finite_flags_exit_one_before_any_work(capsys):
    for argv, problem in ((["--beta-max", "nan", "--beta-points", "2"], "must be finite"),
                          (["--beta-min=-inf"], "must be finite"),
                          # finite, but beyond what the root equation resolves
                          (["--beta-max", "1e308"], "beta must be in [0, 1e+300]")):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "meanfield", *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 1, argv
        assert "configuration error" in err and problem in err
        assert out == ""


def test_chain_flags_exit_one_before_any_output(capsys):
    point = ["oracle", "--p", "0.3", "--q", "0.3"]
    for argv in (["meanfield", "--rmax", "0"], ["meanfield", "--steps", "-1"],
                 [*point, "--rmax", "0"], [*point, "--steps", "-1"],
                 ["oracle", "--grid", "--rmax", "0"],
                 # the printed closed form exists at 8 steps and 7 levels only
                 ["oracle", "--grid", "--steps", "5", "--rmax", "4"],
                 ["oracle", "--grid", "--steps", "9"],
                 ["oracle", "--grid", "--rmax", "6"],
                 ["oracle", "--grid", "--grid-step", "0"],
                 ["oracle", "--grid", "--grid-step", "1e-4"],
                 # 1 / 0.3 is not a whole number of grid levels
                 ["oracle", "--grid", "--grid-step", "0.3"],
                 # the grid covers the whole simplex, so a point is a mistake
                 ["oracle", "--grid", "--p", "0.3", "--q", "0.9"],
                 ["oracle", "--grid", "--q", "0.3"]):
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


# sha256 of each sweep document, with metadata.wall_time_s (the one field
# that varies between runs) dropped from the JSON: pins the document layout
# and every value byte for byte
SWEEP_OUTPUT_COMMANDS = {
    "run": ["run", "--n", "50", "--k", "4", "--seed", "1", "--j0", "0.02"],
    "reproduce": ["reproduce", "fig8-9", "--n", "30", "--k", "3", "--threads", "2"],
}
SWEEP_OUTPUT_DIGESTS = {
    ("run", "json"):
        "5f6ae55e8da2f5b6b23d4f2492918b6bb555b92d86334c9f2b3d896ebf72939b",
    ("run", "csv"):
        "89e7ffe9f04f9dd8e5687dfedff7913619525f4b3321e9d5a2cfacb79cc0fcf2",
    ("reproduce", "json"):
        "ae80dddff2d1fd20862a408ba17d69dac0f8575cd2548985e251de514feb299d",
    ("reproduce", "csv"):
        "b109df4a3900b6b299d6e6497bf0f3e551ea408312961a9cc06df1ccda20c5ef",
}


@pytest.mark.parametrize("command, output_format", sorted(SWEEP_OUTPUT_DIGESTS))
def test_sweep_output_oracle(command, output_format, capsys):
    code, out, _ = run_cli(capsys, *SWEEP_OUTPUT_COMMANDS[command],
                           "--format", output_format)
    assert code == 0
    if output_format == "json":
        doc = json.loads(out)
        # the text is the plain indent-2 dump, so re-dumping drops only the key
        assert json.dumps(doc, indent=2) + "\n" == out
        del doc["metadata"]["wall_time_s"]
        out = json.dumps(doc, indent=2) + "\n"
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == SWEEP_OUTPUT_DIGESTS[command, output_format]


def test_reproduce_unknown_preset_exits_one(capsys):
    assert run_cli(capsys, "reproduce", "fig99")[0] == 1


def test_io_failure_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "run", *DESK, "--out", "/nonexistent-dir/o.json"
    )
    assert code == 2
    assert "/nonexistent-dir/o.json" in err


def readme_commands():
    """Every `firmglass ...` line of the README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("firmglass ")]


def test_readme_commands_build():
    # parse and build each documented command; nothing is simulated or written
    commands = readme_commands()
    assert len(commands) >= 10
    parser = cli_module.build_parser()
    builders = {**cli_module._SPEC_BUILDERS, **cli_module._PAYLOAD_BUILDERS}
    for argv in commands:
        args = parser.parse_args(argv)
        assert builders[args.command](args), argv
