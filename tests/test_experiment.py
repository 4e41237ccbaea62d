"""Tests for ensemble execution, sweeps, serialization and presets."""

import functools
import hashlib
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
    PRESET_NAMES,
    SweepResult,
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
from firmglass.riskstats import ensemble_stats

DESK = ModelParams(n_firms=60, j0=0.001, sigma_j=0.02)


def desk_spec(values=(0.0, 0.002), k=6, seed=99, base=DESK):
    return SweepSpec(
        base=base,
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
        desk_spec(values=(0.0, math.nan))
    for k, seed in ((2.5, 0), (True, 0), (2, 1.5), (2, -1)):
        with pytest.raises(ValueError):
            desk_spec(k=k, seed=seed)
        with pytest.raises(ValueError):
            run_ensemble(DESK, k, seed)


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
    assert desk_spec(values=(0.1, 0.2)).params_at(0.2) == replace(DESK, j0=0.2)


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


def test_ensemble_is_a_pure_function_of_its_seed():
    params = ModelParams(n_firms=20, sigma_j=0.3)
    seed = np.random.SeedSequence(5)
    first = run_ensemble(params, 4, seed).nd_values
    # the caller's SeedSequence is not advanced by the first call
    assert run_ensemble(params, 4, seed).nd_values == first
    assert run_ensemble(params, 4, 5).nd_values == first
    # a spawned child seeds realization k with its own child k
    nested = np.random.SeedSequence(5).spawn(2)[1]
    children = np.random.SeedSequence(5).spawn(2)[1].spawn(3)
    expected = [run_realization(params, child).nd for child in children]
    assert [run_ensemble(params, 3, nested).nd_values for _ in range(2)] == [expected] * 2


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
    specs = [desk_spec(k=4)]
    specs += [preset_spec(name, n_firms=20, k_realizations=2) for name in PRESET_NAMES]
    for spec in specs:
        result = run_sweep(spec)
        text = result_to_json(result)
        restored = result_from_json(text)
        assert restored == result
        assert result_to_json(restored) == text


def test_numpy_integers_are_stored_as_int_and_round_trip():
    base = ModelParams(n_firms=np.int64(10), r_max=np.int32(3), steps=np.int64(2))
    spec = SweepSpec(base=base, values=(0.0,), k_realizations=np.int64(2),
                     master_seed=np.int64(3))
    for value in (base.n_firms, base.r_max, base.steps, spec.k_realizations,
                  spec.master_seed):
        assert type(value) is int
    result = run_sweep(spec)
    text = result_to_json(result)
    assert result_from_json(text) == result
    plain = SweepSpec(ModelParams(n_firms=10, r_max=3, steps=2), (0.0,), 2, 3)
    assert run_sweep(plain).points == result.points


def rewrite_first_point(doc, nd_values):
    """Give the first point these ND values and rewrite every field they derive."""
    first = doc["points"][0]
    stats = ensemble_stats(nd_values)
    first.update(
        nd_values=stats.nd_values,
        mean_nd=stats.mean_nd,
        mean_nd_frac=stats.mean_nd / doc["base_params"]["n_firms"],
        semivariance_plus=stats.semivariance_plus,
        histogram={str(b): c for b, c in stats.histogram.items()},
    )
    argmin = int(np.argmin([point["mean_nd"] for point in doc["points"]]))
    doc.update(argmin_index=argmin,
               argmin_sweep_value=doc["points"][argmin]["sweep_value"])


def test_from_dict_refuses_a_document_its_spec_and_nd_values_do_not_give():
    text = result_to_json(run_sweep(desk_spec(values=(0.0, 0.002, 0.004), k=3)))
    for edit, field in (
        (lambda doc: doc.update(sweep_variable="sigma_j"), r"\bsweep_variable\b"),
        (lambda doc: doc["points"][1].update(bin_width=2), r"points\[1\]\.bin_width"),
        # a mean and a histogram that the ND values do not give
        (lambda doc: doc["points"][0].update(nd_values=[4, 4, 7], mean_nd=999.0,
                                             histogram={"5": 100}),
         r"points\[0\]\.mean_nd\b.*points\[0\]\.histogram"),
        (lambda doc: doc["base_params"].update(selection="permutation"), r"\bbase_params\b"),
        (lambda doc: doc.update(argmin_index=(doc["argmin_index"] + 1) % 3),
         r"\bargmin_index\b"),
        (lambda doc: doc["points"][0]["nd_values"].__setitem__(0, 1.5), r"\bnd_values\b"),
        (lambda doc: doc["points"][1].update(sweep_value=0.5), r"points\[1\]\.sweep_value"),
        (lambda doc: doc["points"].reverse(), r"points\[1\]\.sweep_value"),
        (lambda doc: rewrite_first_point(doc, doc["points"][0]["nd_values"][:2]),
         r"points\[0\]\.nd_values"),
        # more defaults than firms
        (lambda doc: rewrite_first_point(doc, [999, *doc["points"][0]["nd_values"][1:]]),
         r"points\[0\]\.nd_values"),
        # equal to the 1 written, but of another JSON type
        (lambda doc: doc["points"][1].update(bin_width=True), r"points\[1\]\.bin_width"),
        (lambda doc: doc["points"][1].update(bin_width=1.0), r"points\[1\]\.bin_width"),
    ):
        doc = json.loads(text)
        edit(doc)
        with pytest.raises(ValueError, match=field):
            result_from_dict(doc)


def test_malformed_document_is_refused_with_value_error():
    text = result_to_json(run_sweep(desk_spec(k=2)))
    no_mean = json.loads(text)
    del no_mean["points"][0]["mean_nd"]
    list_histogram = json.loads(text)
    list_histogram["points"][0]["histogram"] = [1, 2]
    scalar_points = {**json.loads(text), "points": 3}
    for bad, problem in (("{}", "lacks the key 'base_params'"),
                         ("[]", "wrong shape"),
                         ("3", "wrong shape"),
                         (json.dumps(no_mean), "lacks the key 'mean_nd'"),
                         (json.dumps(list_histogram), "wrong shape"),
                         (json.dumps(scalar_points), "wrong shape")):
        with pytest.raises(ValueError, match=problem):
            result_from_json(bad)


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
        # numpy floats, as `firmglass sweep` builds them, name the value as a float
        result = experiment.run_sweep(
            desk_spec(values=tuple(np.linspace(0.0, 0.004, 3)), k=3), threads=threads
        )
        assert [point.sweep_value for point in result.points] == [0.0, 0.004]
        assert list(result.metadata["failed_values"]) == ["0.002"]
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
    for threads in (0, 1.5):
        with pytest.raises(ValueError, match="threads"):
            run_sweep(desk_spec(), threads=threads, progress=True)
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


def test_pool_never_outnumbers_the_realizations(monkeypatch):
    import firmglass.experiment as experiment

    built = []

    class CappedPool(experiment.ProcessPoolExecutor):
        def __init__(self, *args, max_workers, **kwargs):
            # refused before any worker process is forked
            assert max_workers <= 3, f"{max_workers} workers for 3 realizations"
            built.append(max_workers)
            super().__init__(*args, max_workers=max_workers, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CappedPool)
    spec = desk_spec(values=(0.0,), k=3)
    result = experiment.run_sweep(spec, threads=64)
    assert built == [3]
    assert result.points == run_sweep(spec).points


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

    def failing_stats(nd_values):
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


# sha256 of the JSON of each preset's spec with no points, recorded before
# the presets moved into one table: any change to a preset's base, grid,
# K or seed shows up here
PRESET_SPEC_DIGESTS = {
    (1000, "fig1"): "2ae4de592ae70862dca66dfbb003d635be25648ca6344044b420f7e3171b5019",
    (1000, "fig2"): "0bd194ea242ff7c94ea730dda6ac5030e71bb7f061d7cc280429fbb712926f74",
    (1000, "fig3-4"): "8a2ebae18bd020cba0df82a4cce272e569c36c2950a5e0ea290e3b4159817bfa",
    (1000, "fig5"): "8a2ebae18bd020cba0df82a4cce272e569c36c2950a5e0ea290e3b4159817bfa",
    (1000, "fig6-7"): "e27c68f2c2940edd66079014bda9dc9f2fe70f60bb461a986b5394a932203a12",
    (1000, "fig8-9"): "6ce9c55fa48cf8442f6e2fc890e80ed98e1be4bd0a0dca1fa712cbe2e0e3b6fc",
    (300, "fig1"): "1e286f02109ac77469f35d3a508be903bb86b9db3f8c8677fc7f09940bfee592",
    (300, "fig2"): "53a3d80efebc6ab35b3d2eea8e3eb37803a611e8b1d299fbc8de3a55116b1158",
    (300, "fig3-4"): "aa3d7ae582a72f220c0c4c82446a0600d8c1db2e319adc143ca49976a73e6d2b",
    (300, "fig5"): "aa3d7ae582a72f220c0c4c82446a0600d8c1db2e319adc143ca49976a73e6d2b",
    (300, "fig6-7"): "1f3a14d6826e78e2df521dda6dad584d7b323b3e95a080620ea8b790622d0d15",
    (300, "fig8-9"): "add293707608110db69debd697514dfbb6bfe521114aa38a17a4f7299ae7cb1f",
    (7, "fig1"): "10854db3543ca043176bfb6017dc1a7b350d7fbc1fbae0736bcdf6bf08fabfa1",
    (7, "fig2"): "f4bce796ba30c048c0cbee01e2325febf58fd1cd8b2047ccd4ee69eecae4257e",
    (7, "fig3-4"): "6b7088a4378d0bd51f964a1085cf65060c2ed9364db6aa31f40e4a063e155a34",
    (7, "fig5"): "6b7088a4378d0bd51f964a1085cf65060c2ed9364db6aa31f40e4a063e155a34",
    (7, "fig6-7"): "cb14900fec9a402cca8ee3b957e7b91ab7790e7f7f7ccc5a21fe7a4b00df9e2f",
    (7, "fig8-9"): "db47c86290d5b97313a0f1ba89b713e6240ea092cdd0756c0af8953d9ab9ad3c",
}


def test_preset_specs_are_pinned():
    assert {name for _, name in PRESET_SPEC_DIGESTS} == set(PRESET_NAMES)
    for (n_firms, name), expected in PRESET_SPEC_DIGESTS.items():
        text = result_to_json(SweepResult(preset_spec(name, n_firms=n_firms), [], {}))
        assert hashlib.sha256(text.encode()).hexdigest() == expected, (n_firms, name)
