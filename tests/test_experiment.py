"""Tests for ensemble execution, sweeps, serialization and presets."""

import functools
import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from firmglass.core import ModelParams, f_table_from_weights, run_realization
from firmglass.experiment import (
    CSV_COLUMNS,
    SweepSpec,
    emit,
    preset_spec,
    result_from_dict,
    result_from_json,
    result_to_csv,
    result_to_json,
    run_ensemble,
    run_sweep,
)

DESK = ModelParams(n_firms=60, j0=0.001, sigma_j=0.02)


def desk_spec(values=(0.0, 0.002), k=6, seed=99, base=DESK):
    return SweepSpec(
        base=base,
        sweep_variable="j0",
        values=values,
        k_realizations=k,
        master_seed=seed,
    )


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        desk_spec(values=())
    with pytest.raises(ValueError):
        desk_spec(values=(0.2, 0.1))
    with pytest.raises(ValueError):
        desk_spec(values=(0.1, 0.1))
    with pytest.raises(ValueError):
        desk_spec(k=0)
    with pytest.raises(ValueError):
        SweepSpec(base=DESK, sweep_variable="r_max", values=(1.0,),
                  k_realizations=2, master_seed=0)


def test_f_mode_is_derived_from_f_table():
    assert desk_spec().f_mode == "zero"
    drift = replace(DESK, f_table=f_table_from_weights(0.15, 0.75, 0.10))
    assert desk_spec(base=drift).f_mode == "constant_table"
    doc = json.loads(result_to_json(run_sweep(desk_spec(k=2))))
    assert doc["f_mode"] == "zero"
    doc["f_mode"] = "constant_table"
    with pytest.raises(ValueError, match="f_mode"):
        result_from_dict(doc)


def test_params_at_replaces_the_swept_variable():
    spec = SweepSpec(base=DESK, sweep_variable="sigma_j", values=(0.1, 0.2),
                     k_realizations=2, master_seed=0)
    assert spec.params_at(0.2).sigma_j == 0.2
    assert spec.params_at(0.2).j0 == DESK.j0


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_ensemble_matches_individual_realizations():
    # realization k uses child k of the master seed sequence
    seeds = np.random.SeedSequence(31).spawn(5)
    expected = [run_realization(DESK, seed).nd for seed in seeds]
    stats = run_ensemble(DESK, 5, 31)
    assert stats.nd_values == expected


def test_single_realization_ensemble():
    stats = run_ensemble(DESK, 1, 32)
    only = run_realization(DESK, np.random.SeedSequence(32).spawn(1)[0])
    assert stats.nd_values == [only.nd]
    assert stats.mean_nd == float(only.nd)
    assert stats.semivariance_plus is None


def test_ensemble_thread_count_does_not_change_results():
    serial = run_ensemble(DESK, 8, 33, threads=1)
    parallel = run_ensemble(DESK, 8, 33, threads=2)
    assert serial == parallel


def test_ensemble_weak_coupling_level():
    # desk-scale sanity: weak coupling sits near the independent-firm level
    params = ModelParams(n_firms=200, j0=0.0001, sigma_j=0.001)
    stats = run_ensemble(params, 40, 34)
    assert abs(stats.mean_nd / 200 - 0.202) < 0.05


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_single_value_sweep_equals_ensemble():
    spec = desk_spec(values=(0.001,))
    result = run_sweep(spec)
    direct = run_ensemble(
        DESK if DESK.j0 == 0.001 else spec.params_at(0.001),
        spec.k_realizations,
        np.random.SeedSequence(spec.master_seed).spawn(1)[0],
    )
    assert len(result.points) == 1
    assert result.points[0].stats == direct


def test_sweep_records_argmin_and_phases():
    spec = desk_spec(values=(0.0, 0.002, 0.004), k=5)
    result = run_sweep(spec)
    means = [point.stats.mean_nd for point in result.points]
    assert result.argmin_index == int(np.argmin(means))
    assert result.argmin_sweep_value == spec.values[result.argmin_index]
    for point in result.points:
        assert point.phase.j_critical == 3.0 / DESK.n_firms
    assert result.metadata["failed_values"] == {}
    assert result.metadata["wall_time_s"] > 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip():
    result = run_sweep(desk_spec(k=4))
    text = result_to_json(result)
    restored = result_from_json(text)
    assert restored == result
    assert result_to_json(restored) == text


def test_csv_layout():
    spec = desk_spec(values=(0.0, 0.001, 0.002), k=3)
    lines = result_to_csv(run_sweep(spec)).strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(spec.values) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[4] in ("paramagnetic", "ferromagnetic", "spin_glass")
    assert int(first[5]) == 3 and int(first[6]) == DESK.n_firms


def test_emit_stdout_and_file(tmp_path, capsys):
    result = run_sweep(desk_spec(k=3))
    emit(result, format="json", path=None)
    captured = capsys.readouterr().out
    assert result_from_json(captured) == result
    target = tmp_path / "out.csv"
    emit(result, format="csv", path=target)
    assert target.read_text().startswith("sweep_value,")
    with pytest.raises(ValueError):
        emit(result, format="parquet")


def test_emit_reports_path_on_failure(tmp_path):
    result = run_sweep(desk_spec(k=3))
    bad_path = tmp_path / "missing" / "out.json"
    with pytest.raises(OSError, match="out.json"):
        emit(result, format="json", path=bad_path)


def _realization_nd_exhausted_at_0002(task):
    params, seed_seq = task
    if params.j0 == 0.002:
        raise MemoryError("couplings do not fit")
    return run_realization(params, seed_seq).nd


def test_exhausted_value_is_marked_failed_and_skipped(monkeypatch):
    import firmglass.experiment as experiment

    monkeypatch.setattr(experiment, "_realization_nd", _realization_nd_exhausted_at_0002)
    for threads in (1, 2):
        result = experiment.run_sweep(
            desk_spec(values=(0.0, 0.002, 0.004), k=3), threads=threads
        )
        assert [point.sweep_value for point in result.points] == [0.0, 0.004]
        assert "0.002" in next(iter(result.metadata["failed_values"]))
        assert result.argmin_index is not None


def _realization_nd_dying_at_0002(task):
    # a module-level function, so the worker processes can unpickle it
    params, seed_seq = task
    if params.j0 == 0.002:
        os._exit(1)
    return run_realization(params, seed_seq).nd


def test_dead_worker_is_marked_failed_and_skipped(monkeypatch):
    import firmglass.experiment as experiment

    spec = desk_spec(values=(0.0, 0.002, 0.004), k=4)
    reference = experiment.run_sweep(spec)
    monkeypatch.setattr(experiment, "_realization_nd", _realization_nd_dying_at_0002)
    result = experiment.run_sweep(spec, threads=2)
    assert [point.sweep_value for point in result.points] == [0.0, 0.004]
    assert [point.stats for point in result.points] == [
        reference.points[0].stats, reference.points[2].stats
    ]
    failed = result.metadata["failed_values"]
    assert list(failed) == ["0.002"]
    assert "BrokenProcessPool" in failed["0.002"]


def _realization_nd_dying_at(j0, task):
    params, seed_seq = task
    if params.j0 == j0:
        os._exit(1)
    return run_realization(params, seed_seq).nd


@pytest.mark.parametrize("dying", [0.0, 0.004])
def test_dead_worker_at_either_end_costs_only_its_value(monkeypatch, dying):
    import firmglass.experiment as experiment

    spec = desk_spec(values=(0.0, 0.002, 0.004), k=4)
    reference = experiment.run_sweep(spec)
    monkeypatch.setattr(
        experiment, "_realization_nd", functools.partial(_realization_nd_dying_at, dying)
    )
    result = experiment.run_sweep(spec, threads=2)
    survivors = [point for point in reference.points if point.sweep_value != dying]
    assert [point.sweep_value for point in result.points] == [
        point.sweep_value for point in survivors
    ]
    assert [point.stats for point in result.points] == [point.stats for point in survivors]
    failed = result.metadata["failed_values"]
    assert list(failed) == [repr(dying)]
    assert "BrokenProcessPool" in failed[repr(dying)]


def test_sweep_refuses_bad_thread_count_before_any_work(capsys):
    with pytest.raises(ValueError, match="threads"):
        run_sweep(desk_spec(), threads=0, progress=True)
    assert capsys.readouterr().err == ""


def test_sweep_builds_one_pool(monkeypatch):
    import firmglass.experiment as experiment

    built = []

    class CountingPool(experiment.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
    result = experiment.run_sweep(desk_spec(values=(0.0, 0.002, 0.004), k=4), threads=2)
    assert len(result.points) == 3
    assert len(built) == 1


def test_sweep_bytes_do_not_depend_on_worker_count():
    # K=25 is not a multiple of the chunk size at 2 workers (3) or 3 (2)
    spec = desk_spec(values=(0.0, 0.002, 0.004), k=25)
    texts = []
    for threads in (1, 2, 3):
        result = run_sweep(spec, threads=threads)
        result.metadata["wall_time_s"] = 0.0
        texts.append(result_to_json(result))
    assert texts[1] == texts[0]
    assert texts[2] == texts[0]


def _realization_nd_logged(log_path, task):
    time.sleep(0.02)
    with open(log_path, "a", encoding="utf-8") as log:
        log.write("x\n")
    return run_realization(*task).nd


def test_parent_error_cancels_the_queued_values(monkeypatch, tmp_path):
    import firmglass.experiment as experiment

    log_path = tmp_path / "realizations.log"
    monkeypatch.setattr(
        experiment, "_realization_nd", functools.partial(_realization_nd_logged, log_path)
    )

    def failing_stats(nd_values, bin_width=1):
        raise RuntimeError("stats failed")

    monkeypatch.setattr(experiment, "ensemble_stats", failing_stats)
    spec = desk_spec(values=tuple(0.001 * i for i in range(10)), k=8)
    # holding the traceback keeps run_sweep's frame alive, so only an
    # explicit shutdown, not garbage collection, stops the workers
    with pytest.raises(RuntimeError, match="stats failed") as _raised:
        experiment.run_sweep(spec, threads=2)
    # the first value's 8 realizations plus the chunks already handed to the
    # workers ran; the other 80 - 8 were cancelled, not drained, and no
    # worker is left running them in the background
    ran = len(log_path.read_text().splitlines())
    assert ran < 40
    time.sleep(0.3)
    assert len(log_path.read_text().splitlines()) == ran


def test_empty_result_emits_header_only(capsys):
    result = run_sweep(desk_spec(k=3))
    result.points = []
    result.argmin_index = None
    assert result_to_csv(result) == ",".join(CSV_COLUMNS) + "\n"
    assert result.argmin_sweep_value is None


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def test_seed_derivation_distinct_at_scale():
    children = np.random.SeedSequence(77).spawn(100_000)
    states = {tuple(child.generate_state(2)) for child in children}
    assert len(states) == 100_000


def test_master_seeds_decorrelate_ensembles():
    first = run_ensemble(DESK, 6, 1)
    second = run_ensemble(DESK, 6, 2)
    assert first.nd_values != second.nd_values or first.mean_nd != second.mean_nd


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_presets_match_published_parameters():
    for name in ("fig1", "fig2", "fig3-4", "fig5", "fig6-7", "fig8-9"):
        spec = preset_spec(name)
        assert spec.base.n_firms == 1000
        assert spec.k_realizations == 1000
        assert spec.base.steps == 8
        assert spec.base.r_max == 7
    assert preset_spec("fig1").values == (0.0001,)
    assert preset_spec("fig1").base.sigma_j == 0.001
    assert preset_spec("fig2").values == (0.02,)
    assert preset_spec("fig2").base.sigma_j == 0.001
    assert preset_spec("fig3-4").base.sigma_j == 0.001
    assert preset_spec("fig6-7").base.sigma_j == 0.2
    drift = preset_spec("fig8-9")
    assert drift.f_mode == "constant_table"
    assert drift.base.f_table[-1] == math.log(0.15)
    assert drift.base.f_table[0] == math.log(0.75)
    assert drift.base.f_table[1] == math.log(0.10)
    assert drift.values[0] == 0.0
    assert drift.values[-1] == pytest.approx(40.0 / 1000)


def test_preset_scales_with_n():
    desk = preset_spec("fig8-9", n_firms=300, k_realizations=10)
    assert desk.values[-1] == pytest.approx(40.0 / 300)
    assert desk.k_realizations == 10


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset_spec("fig42")
