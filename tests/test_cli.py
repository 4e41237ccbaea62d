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
from firmglass.core import F_TABLES, RATING_DRIFT_WEIGHTS, f_table_from_weights
from firmglass.experiment import preset_spec
from firmglass.meanfield import default_fraction_closed_form

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
    doc = json.loads(target.read_text())
    assert doc["k_realizations"] == 4
    assert len(doc["points"][0]["nd_values"]) == 4


def test_run_constant_table_mode(capsys):
    tables = {}
    for name in F_TABLES:
        code, out, _ = run_cli(capsys, "run", *DESK, "--f-mode", name)
        assert code == 0
        doc = json.loads(out)
        assert doc["f_mode"] == name
        tables[name] = {int(move): f for move, f in doc["base_params"]["f_table"].items()}
        assert tables[name] == F_TABLES[name]
    assert tables["zero"] == {-1: 0.0, 0: 0.0, 1: 0.0}
    assert tables["constant_table"] == f_table_from_weights(*RATING_DRIFT_WEIGHTS)
    assert preset_spec("fig8-9").base.f_table == tables["constant_table"]


# the portfolio and the drift weights are the paper's; no flag sets them
PORTFOLIO_FLAGS = ("--steps", "--rmax")
DRIFT_FLAGS = ("--f-down", "--f-stay", "--f-up")
DELETED_FLAGS = {
    "run": (["run", *DESK], PORTFOLIO_FLAGS + DRIFT_FLAGS),
    "sweep": (["sweep", *DESK, "--j0-min", "0", "--j0-max", "0.01"],
              PORTFOLIO_FLAGS + DRIFT_FLAGS),
    "meanfield": (["meanfield"], PORTFOLIO_FLAGS),
    "oracle": (["oracle", "--p", "0.3", "--q", "0.3"], PORTFOLIO_FLAGS),
}


@pytest.mark.parametrize("command", sorted(DELETED_FLAGS))
def test_deleted_portfolio_and_drift_flags_exit_one_before_any_output(command, capsys):
    argv, flags = DELETED_FLAGS[command]
    for flag in flags:
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, flag, "5")
        assert time.perf_counter() - started < 1.0
        assert code == 1, flag
        assert "unrecognized arguments" in err and flag in err
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


def test_threads_default_to_the_usable_cpus(capsys):
    # the library default is 1 worker; the command line uses every CPU this
    # process may run on, capped at the sweep's realizations
    cpus = cli_module._usable_cpus()
    if hasattr(os, "sched_getaffinity"):
        assert cpus == len(os.sched_getaffinity(0))
    assert cli_module.build_parser().parse_args(["run"]).threads == cpus
    code, _, err = run_cli(capsys, "run", "--n", "30", "--k", "8", "--seed", "3")
    assert code == 0
    assert err.splitlines() == [f"[firmglass] sweep 1/1 j0=0 workers={min(cpus, 8)} done"]


@pytest.mark.parametrize("count, default", [(3, 3), (None, 1)])
def test_threads_default_without_sched_getaffinity(monkeypatch, capsys, count, default):
    # macOS has no os.sched_getaffinity, and os.cpu_count may return None
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert cli(["--help"]) == 0
    assert "usage: firmglass" in capsys.readouterr().out
    assert cli_module.build_parser().parse_args(["run"]).threads == default


def test_sweep_invalid_range_exits_one(capsys):
    # a bound is refused by its flag before numpy or the model sees it
    for bounds, flag in ((["--j0-min", "0", "--j0-max", "-1"], "--j0-max"),
                         (["--j0-min", "nan", "--j0-max", "0.01"], "--j0-min"),
                         (["--j0-min", "0", "--j0-max", "inf"], "--j0-max"),
                         # each bound finite, but not the span between them
                         (["--j0-min=-1e308", "--j0-max", "1e308"], "--j0-max"),
                         # a span too narrow for distinct points
                         (["--j0-min", "0", "--j0-max", "5e-324", "--j0-points", "4"],
                          "--j0-points")):
        code, out, err = run_cli(capsys, "sweep", *DESK, *bounds)
        assert code == 1, bounds
        [line] = err.splitlines()
        assert line.startswith("firmglass: configuration error: " + flag), bounds
        assert out == ""


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


@pytest.mark.parametrize("flag, value, minimum", [("--n", "0", 1), ("--k", "0", 1),
                                                   ("--seed", "-1", 0)])
def test_bad_count_or_seed_names_its_flag_before_any_work(capsys, flag, value, minimum):
    for command in (["run"], ["sweep", "--j0-min", "0", "--j0-max", "0.01"],
                    ["reproduce", "fig1"]):
        code, out, err = run_cli(capsys, *command, *DESK, "--threads", "1", flag, value)
        assert code == 1, command
        assert f"configuration error: {flag} must be >= {minimum}, got {value}" in err
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
    markov, closed = out.splitlines()
    assert markov.startswith("markov default fraction: ")
    assert abs(float(markov.rsplit(":", 1)[1]) - 0.202) <= 0.001
    assert closed.startswith("closed-form default fraction: ")
    value = float(closed.rsplit(":", 1)[1])
    assert value == round(default_fraction_closed_form(0.3333333, 0.3333333), 6)


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


# sha256 of `oracle --grid` stdout, recorded when the step had a flag of its own
# (`--grid --grid-step STEP`); None is `--grid` alone, the 0.1 grid
GRID_OUTPUT_DIGESTS = {
    None: "2ff4ae15d3c8fbf21f810179efe7314844f116ca79284b0c428c1c0fb204c0e0",
    "0.05": "935d390717c506c50e1fbf2cf39096ce5af424cce0d4aed177181e709aa860ec",
}


@pytest.mark.parametrize("step", GRID_OUTPUT_DIGESTS, ids=str)
def test_oracle_grid_output_oracle(step, capsys):
    code, out, _ = run_cli(capsys, "oracle", "--grid", *filter(None, [step]))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GRID_OUTPUT_DIGESTS[step]


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
                 ["--beta-min", "6"],
                 # linspace repeats 0.0 in a span this narrow
                 ["--beta-max", "5e-324", "--beta-points", "4"]):
        code, out, err = run_cli(capsys, "meanfield", *argv)
        assert code == 1, argv
        assert "configuration error" in err and out == ""


def test_meanfield_non_finite_flags_exit_one_before_any_work(capsys):
    # a refusal names the flag and the value typed, not an interior beta
    for argv, problem in ((["--beta-max", "nan", "--beta-points", "2"],
                           "--beta-max must be finite"),
                          (["--beta-min=-inf"], "--beta-min must be finite"),
                          # finite, but beyond what the root equation resolves
                          (["--beta-max", "1e308"],
                           "--beta-max must be in [0, 1e+300], got 1e+308"),
                          (["--beta-max", "1e301"],
                           "--beta-max must be in [0, 1e+300], got 1e+301"),
                          (["--beta-min=-1"], "--beta-min must be in [0, 1e+300], got -1.0")):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "meanfield", *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 1, argv
        assert "configuration error" in err and problem in err
        assert out == ""


def test_chain_flags_exit_one_before_any_output(capsys):
    # each refusal names --grid, the flag typed, and a bad step's value
    for argv, problem in ((["--grid", "0"], "--grid must be in [0.001, 1], got 0.0"),
                          (["--grid", "1e-4"], "--grid must be in [0.001, 1], got 0.0001"),
                          # 1 / 0.3 is not a whole number of grid levels
                          (["--grid", "0.3"], "--grid must divide 1, got 0.3"),
                          # the grid covers the whole simplex, so a point is a mistake
                          (["--grid", "--p", "0.3", "--q", "0.9"], "with --grid"),
                          (["--grid", "--q", "0.3"], "with --grid"),
                          (["--p", "0.3", "--q", "0.3", "--grid"], "with --grid")):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "oracle", *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 1, argv
        assert "configuration error" in err and problem in err, argv
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
        "fef3ba5021fcebd8f5bb450ab94d989b4cd9dd46c141882b37d5b86d450f5532",
    ("run", "csv"):
        "cb81afd39f0102fb22847448b47117cb1171ff67aa90296cc992e6ed3d89bce1",
    ("reproduce", "json"):
        "fca0a4815b7b8c37428a87774be788a1c9ff81ff6e608c5cb8e6a31a1746c8f9",
    ("reproduce", "csv"):
        "77597689135d6999593ccb96f22269ae4580352504628efdb6b1e9de02934cad",
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


def test_io_failure_exits_two(tmp_path, capsys):
    # the directory exists, so only the write finds the name too long
    target = str(tmp_path / ("x" * 300))
    code, _, err = run_cli(capsys, "run", *DESK, "--out", target)
    assert code == 2
    assert target in err


@pytest.mark.parametrize("command", [
    ["run", *DESK],
    ["sweep", *DESK, "--j0-min", "0", "--j0-max", "0.01"],
    ["reproduce", "fig1", "--n", "5", "--k", "2"],
    ["meanfield"],
    ["oracle", "--grid"],
], ids=lambda command: command[0])
def test_unwritable_out_exits_one_before_any_work(command, tmp_path, capsys):
    for out, reason in ((tmp_path, "is a directory"),
                        (tmp_path / "missing" / "o.json", "does not exist")):
        code, stdout, err = run_cli(capsys, *command, "--out", str(out))
        assert code == 1, (command, out)
        [line] = err.splitlines()
        assert line.startswith(f"firmglass: configuration error: --out {out}"), line
        assert line.endswith(reason), line
        assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def readme_commands():
    """Every `firmglass ...` line of the README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("firmglass ")]


def test_readme_commands_build():
    # parse and build each documented command; no run step is called, so
    # nothing is simulated or written
    commands = readme_commands()
    assert len(commands) >= 10
    parser = cli_module.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert callable(args.build(args)), argv
