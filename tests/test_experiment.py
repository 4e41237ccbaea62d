"""Tests for ensemble execution, sweeps, serialization and presets."""

import functools
import hashlib
import json
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context

import numpy as np
import pytest

from firmglass.cli import _usable_cpus
from firmglass.core import (F_TABLES, R_MAX, SPIN_VALUES, STEPS, ModelParams, count_defaults,
                            f_table_from_weights, initial_state, run_realization, time_step)
from firmglass.experiment import (
    CSV_COLUMNS,
    PRESET_NAMES,
    SweepResult,
    SweepSpec,
    emit,
    preset_spec,
    result_to_csv,
    result_to_json,
    run_ensemble,
    run_sweep,
)
from firmglass.meanfield import default_fraction_markov
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
    assert drift.f_table == F_TABLES["constant_table"]
    for name, table in F_TABLES.items():
        assert desk_spec(base=replace(DESK, f_table=table)).f_mode == name
    signed_zero = replace(DESK, f_table={-1: -0.0, 0: 0.0, 1: 0.0})
    assert desk_spec(base=signed_zero).f_mode == "zero"
    # a table that no name holds is written as null, not as a name's table
    custom = replace(DESK, f_table=f_table_from_weights(0.2, 0.6, 0.2))
    assert desk_spec(base=custom).f_mode is None
    for base, f_mode in ((DESK, "zero"), (custom, None)):
        doc = json.loads(result_to_json(run_sweep(desk_spec(k=2, base=base))))
        assert doc["f_mode"] == f_mode


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


@pytest.mark.parametrize("threads", [1, 2])
def test_ensemble_of_a_sequence_that_has_spawned_seeds_as_a_fresh_one(threads):
    # realization k takes child k even of a sequence whose children 0 and 1
    # are already spawned, and the call spawns none on it
    seed = np.random.SeedSequence(6)
    seed.spawn(2)
    expected = run_ensemble(DESK, 5, np.random.SeedSequence(6), threads=threads).nd_values
    assert run_ensemble(DESK, 5, seed, threads=threads).nd_values == expected
    assert seed.n_children_spawned == 2


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


def test_sweep_records_argmin():
    spec = desk_spec(values=(0.0, 0.002, 0.004), k=5)
    result = run_sweep(spec)
    means = [point.stats.mean_nd for point in result.points]
    assert result.argmin_index == int(np.argmin(means))
    assert result.argmin_sweep_value == spec.values[result.argmin_index]
    for point in json.loads(result_to_json(result))["points"]:
        assert set(point) == {"sweep_value", "mean_nd", "mean_nd_frac",
                              "semivariance_plus", "nd_values", "histogram"}
    assert result.metadata["failed_values"] == {}
    assert result.metadata["wall_time_s"] > 0


def test_sweep_result_refuses_points_its_spec_does_not_give():
    result = run_sweep(desk_spec(values=(0.0, 0.002, 0.004), k=3))
    first, second, _ = result.points
    nd_values = first.stats.nd_values
    for points, problem in (
        ([second, first], r"points\[1\]\.sweep_value"),
        ([replace(first, sweep_value=0.5)], r"points\[0\]\.sweep_value"),
        ([replace(first, stats=ensemble_stats(nd_values[:2]))], "hold k_realizations"),
        # more defaults than firms
        ([replace(first, stats=ensemble_stats([999, *nd_values[1:]]))], "at most n_firms"),
    ):
        with pytest.raises(ValueError, match=problem):
            SweepResult(result.spec, points, result.metadata)
    assert SweepResult(result.spec, [first, second], result.metadata).points == [first, second]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip():
    # a document parses to the spec it was run from and each point's ND values
    specs = [desk_spec(k=4)]
    specs += [preset_spec(name, n_firms=20, k_realizations=2) for name in PRESET_NAMES]
    for spec in specs:
        result = run_sweep(spec)
        doc = json.loads(result_to_json(result))
        params = doc["base_params"]
        base = ModelParams(
            **{name: params[name] for name in ("n_firms", "j0", "sigma_j", "r_max", "steps")},
            f_table={int(move): f for move, f in params["f_table"].items()},
        )
        assert SweepSpec(base, tuple(doc["values"]), doc["k_realizations"],
                         doc["master_seed"]) == spec
        assert doc["f_mode"] in F_TABLES and doc["f_mode"] == spec.f_mode
        assert ([(point["sweep_value"], point["nd_values"]) for point in doc["points"]]
                == [(point.sweep_value, point.stats.nd_values) for point in result.points])


def test_numpy_integers_are_stored_as_int_and_round_trip():
    base = ModelParams(n_firms=np.int64(10), r_max=np.int32(3), steps=np.int64(2))
    spec = SweepSpec(base=base, values=(0.0,), k_realizations=np.int64(2),
                     master_seed=np.int64(3))
    for value in (base.n_firms, base.r_max, base.steps, spec.k_realizations,
                  spec.master_seed):
        assert type(value) is int
    result = run_sweep(spec)
    doc = json.loads(result_to_json(result))
    for value in (*(doc["base_params"][name] for name in ("n_firms", "r_max", "steps")),
                  doc["k_realizations"], doc["master_seed"]):
        assert type(value) is int
    plain = SweepSpec(ModelParams(n_firms=10, r_max=3, steps=2), (0.0,), 2, 3)
    assert run_sweep(plain).points == result.points


def test_csv_layout():
    spec = desk_spec(values=(0.0, 0.001, 0.002), k=3)
    lines = result_to_csv(run_sweep(spec)).strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(spec.values) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert int(first[4]) == 3 and int(first[5]) == DESK.n_firms


def test_emit_stdout_and_file(tmp_path, capsys):
    result = run_sweep(desk_spec(k=3))
    emit(result, format="json", path=None)
    captured = capsys.readouterr().out
    assert captured == result_to_json(result)
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


def _realization_nd_exhausted_at_0002(params, seed_seq):
    if params.j0 == 0.002:
        raise MemoryError("couplings do not fit")
    return run_realization(params, seed_seq).nd


def test_exhausted_value_is_marked_failed_and_skipped(monkeypatch, capsys):
    import firmglass.experiment as experiment

    # only pool workers run _realization_nd; one worker's value fails in
    # test_couplings_exhausted_fail_only_their_value
    monkeypatch.setattr(experiment, "_realization_nd", _realization_nd_exhausted_at_0002)
    # numpy floats, as `firmglass sweep` builds them, name the value as a float
    result = experiment.run_sweep(
        desk_spec(values=tuple(np.linspace(0.0, 0.004, 3)), k=3), threads=2
    )
    assert [point.sweep_value for point in result.points] == [0.0, 0.004]
    assert list(result.metadata["failed_values"]) == ["0.002"]
    assert result.argmin_index is not None
    # one progress line per value, in value order, naming the worker count
    assert capsys.readouterr().err.splitlines() == [
        "[firmglass] sweep 1/3 j0=0 workers=2 done",
        "[firmglass] sweep 2/3 j0=0.002 workers=2 failed",
        "[firmglass] sweep 3/3 j0=0.004 workers=2 done",
    ]


def _realization_nd_dying_at_0002(params, seed_seq):
    # a module-level function, so the worker processes can unpickle it
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


def _realization_nd_dying_at(j0, params, seed_seq):
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
            run_sweep(desk_spec(), threads=threads)
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


def _realization_nd_logged(log_path, params, seed_seq):
    time.sleep(0.02)
    with open(log_path, "a", encoding="utf-8") as log:
        log.write("x\n")
    return run_realization(params, seed_seq).nd


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


# ---------------------------------------------------------------------------
# one worker's helper thread for coupling draws
# ---------------------------------------------------------------------------

HELPER_POINTS = {
    "weak": ModelParams(n_firms=400, j0=1e-4, sigma_j=0.001),
    "glass": ModelParams(n_firms=400, j0=0.0, sigma_j=0.2),
    "drift": ModelParams(n_firms=400, j0=12 / 400, sigma_j=0.001,
                         f_table=F_TABLES["constant_table"]),
    # a lone firm draws no couplings: the helper fills an empty buffer
    "lone": ModelParams(n_firms=1, f_table=F_TABLES["constant_table"]),
    "desk": DESK,
}


def counting_helpers(monkeypatch):
    """Patch in a helper pool that logs each build; return the log."""
    import firmglass.experiment as experiment

    built = []

    class CountingHelper(experiment.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "ThreadPoolExecutor", CountingHelper)
    return built


def test_one_worker_builds_one_helper_per_value(monkeypatch):
    built = counting_helpers(monkeypatch)
    for base in (DESK, replace(DESK, n_firms=400)):
        built.clear()
        run_ensemble(base, 2, 40)
        assert built == [(1,)]
        run_sweep(desk_spec(values=(0.0, 0.002), k=2, base=base))
        assert built == [(1,), (1,), (1,)]


@pytest.mark.parametrize("point", sorted(HELPER_POINTS))
def test_helper_thread_leaves_every_nd_value(point):
    params = HELPER_POINTS[point]
    expected = [run_realization(params, child).nd
                for child in np.random.SeedSequence(41).spawn(3)]
    assert run_ensemble(params, 3, 41, threads=1).nd_values == expected
    assert run_ensemble(params, 3, 41, threads=2).nd_values == expected
    spec = desk_spec(values=(params.j0, params.j0 + 0.002), k=3, seed=42, base=params)
    texts = []
    for threads in (1, 2):
        result = run_sweep(spec, threads=threads)
        result.metadata["wall_time_s"] = 0.0
        texts.append(result_to_json(result))
    assert texts[1] == texts[0]


def test_couplings_exhausted_fail_only_their_value(monkeypatch, capsys):
    import firmglass.experiment as experiment

    fill = experiment.couplings_from_normals

    def exhausted_at_0002(params, normals):
        if params.j0 == 0.002:
            raise MemoryError("couplings do not fit")
        return fill(params, normals)

    monkeypatch.setattr(experiment, "couplings_from_normals", exhausted_at_0002)
    built = counting_helpers(monkeypatch)
    threads_before = set(threading.enumerate())
    # numpy floats, as `firmglass sweep` builds them, name the value as a float
    result = experiment.run_sweep(desk_spec(values=tuple(np.linspace(0.0, 0.004, 3)), k=3),
                                  threads=1)
    assert len(built) == 3
    assert set(threading.enumerate()) <= threads_before
    assert [point.sweep_value for point in result.points] == [0.0, 0.004]
    assert result.metadata["failed_values"] == {"0.002": "MemoryError: couplings do not fit"}
    assert result.argmin_index is not None
    # one progress line per value, in value order, naming the worker count
    assert capsys.readouterr().err.splitlines() == [
        "[firmglass] sweep 1/3 j0=0 workers=1 done",
        "[firmglass] sweep 2/3 j0=0.002 workers=1 failed",
        "[firmglass] sweep 3/3 j0=0.004 workers=1 done",
    ]


def test_helper_thread_never_outlives_the_call(monkeypatch):
    import firmglass.experiment as experiment

    built = counting_helpers(monkeypatch)
    threads_before = set(threading.enumerate())
    run_ensemble(DESK, 2, 43)
    assert set(threading.enumerate()) <= threads_before

    def failing_stats(nd_values):
        raise RuntimeError("stats failed")

    with monkeypatch.context() as patch:
        patch.setattr(experiment, "ensemble_stats", failing_stats)
        with pytest.raises(RuntimeError, match="stats failed"):
            run_sweep(desk_spec(values=(0.0, 0.002), k=2))
    assert set(threading.enumerate()) <= threads_before

    root = np.random.SeedSequence(44)
    values = [(DESK, child) for child in root.spawn(3)]
    outcomes = experiment._value_outcomes(values, 2, 1)
    assert next(outcomes)[0] == 0
    outcomes.close()
    assert set(threading.enumerate()) <= threads_before
    assert len(built) == 3


def test_empty_result_emits_header_only(capsys):
    result = run_sweep(desk_spec(k=3))
    result.points = []
    assert result_to_csv(result) == ",".join(CSV_COLUMNS) + "\n"
    assert result.argmin_sweep_value is None


# ---------------------------------------------------------------------------
# finite-N statistics: seeds fixed before the first run, bounds from the
# ensemble standard errors
# ---------------------------------------------------------------------------

WORKERS = _usable_cpus()


def standard_error(stats):
    return np.std(stats.nd_values, ddof=1) / math.sqrt(len(stats.nd_values))


def test_coupling_only_raises_defaults_without_damping():
    # the 0.40/0.20/0.40 drift does not damp rating changes: coupling only
    # raises the mean ND, so there is no interior optimum to find
    n = 300
    spec = SweepSpec(
        base=ModelParams(n_firms=n, sigma_j=0.001,
                         f_table=f_table_from_weights(0.40, 0.20, 0.40)),
        values=(0.0, 4.0 / n),
        k_realizations=150,
        master_seed=1101,
    )
    free, coupled = (point.stats for point in run_sweep(spec, threads=WORKERS).points)
    errors = [standard_error(stats) for stats in (free, coupled)]
    assert coupled.mean_nd - free.mean_nd > 2 * math.hypot(*errors), (
        free.mean_nd, coupled.mean_nd, errors)


def test_paper_drift_has_an_interior_optimum():
    # the paper's drift damps rating changes: coupling first lowers the mean
    # ND, then collective defaults raise it again, so j0*N = 12 lies below
    # both ends of the fig8-9 range
    n = 300
    spec = SweepSpec(
        base=ModelParams(n_firms=n, sigma_j=0.001, f_table=F_TABLES["constant_table"]),
        values=(0.0, 12.0 / n, 40.0 / n),
        k_realizations=200,
        master_seed=1102,
    )
    free, optimum, strong = (point.stats for point in run_sweep(spec, threads=WORKERS).points)
    for end in (free, strong):
        bound = 3 * math.hypot(standard_error(optimum), standard_error(end))
        assert optimum.mean_nd + bound < end.mean_nd, (optimum.mean_nd, end.mean_nd, bound)


def test_collective_onset_moves_up_with_n():
    # at zero drift and beta = j0*N = 3.5, above the N -> oo threshold 3,
    # collective defaults within the 8 steps get rarer as N grows
    beta, k = 3.5, 400
    shares = []
    for n, seed in ((100, 801), (300, 803)):
        params = ModelParams(n_firms=n, j0=beta / n, sigma_j=0.001)
        stats = run_ensemble(params, k, seed, threads=WORKERS)
        shares.append(np.mean(np.array(stats.nd_values) > n / 2))
    error = math.hypot(*(math.sqrt(share * (1 - share) / k) for share in shares))
    assert shares[0] - shares[1] > error, (shares, error)


def frozen_move_level(n):
    """ND/N if every firm kept one move at all 8N micro-updates: a third of
    the firms keep the down move and fall one rating at each of their
    Binomial(8N, 1/N) updates, so one starting at rating r (uniform on
    1..7) defaults after r of them."""
    trials, p = 8 * n, 1 / n
    below = [math.comb(trials, x) * p**x * (1 - p) ** (trials - x) for x in range(7)]
    return sum(1 - sum(below[:r]) for r in range(1, 8)) / 21


def test_strong_disorder_level_is_a_quench_above_the_frozen_moves():
    # as sigma_j * sqrt(N) grows the heat bath becomes an argmax: the level
    # stops depending on sigma_j and sits above the frozen-move level
    n, k = 100, 1600
    assert abs(frozen_move_level(n) - 0.30196) < 1e-5
    levels = [
        run_ensemble(ModelParams(n_firms=n, sigma_j=spread / math.sqrt(n)), k, seed,
                     threads=WORKERS)
        for spread, seed in ((100, 1201), (1000, 1202))
    ]
    means = [stats.mean_nd / n for stats in levels]
    errors = [standard_error(stats) / n for stats in levels]
    assert abs(means[0] - means[1]) < 3 * math.hypot(*errors), (means, errors)
    pooled = ensemble_stats([nd for stats in levels for nd in stats.nd_values])
    low = (pooled.mean_nd - 3 * standard_error(pooled)) / n
    assert low > frozen_move_level(n), (means, low, frozen_move_level(n))


def independent_move_level(n):
    """ND/N if every micro-update is an independent uniform move, as at zero
    field: a firm gets Binomial(8N, 1/N) of them, and the tail past 60
    updates is below 1e-30."""
    trials, p = 8 * n, 1 / n
    return sum(math.comb(trials, m) * p**m * (1 - p) ** (trials - m)
               * default_fraction_markov(1 / 3, 1 / 3, steps=m) for m in range(61))


def test_coupling_spread_raises_the_level_at_zero_mean_coupling():
    # at j0 = 0 and zero drift, ND/N rises with sigma_j * sqrt(N) as the
    # dynamics crosses over from independent moves to the glass
    n, k = 300, 200
    levels = [
        run_ensemble(ModelParams(n_firms=n, sigma_j=spread / math.sqrt(n)), k, seed,
                     threads=WORKERS)
        for spread, seed in ((0, 1301), (1, 1302), (3, 1303))
    ]
    means = [stats.mean_nd / n for stats in levels]
    errors = [standard_error(stats) / n for stats in levels]
    for i in range(2):
        bound = 3 * math.hypot(errors[i], errors[i + 1])
        assert means[i + 1] - means[i] > bound, (means, errors)
    exact = independent_move_level(n)
    assert abs(means[0] - exact) < 3 * errors[0], (means[0], exact, errors[0])


def test_zero_field_schedule_draws_firms_with_replacement():
    # at zero field ND/N counts the updates a firm gets: Binomial(8N, 1/N)
    # when each step draws its firms with replacement, exactly 8 when a step
    # visits every firm once
    n, k = 300, 1000
    stats = run_ensemble(ModelParams(n_firms=n, j0=0.0, sigma_j=0.0), k, 1401,
                         threads=WORKERS)
    mean, error = stats.mean_nd / n, standard_error(stats) / n
    with_replacement = independent_move_level(n)
    without_replacement = default_fraction_markov(1 / 3, 1 / 3, steps=8)
    assert abs(with_replacement - 0.198066) < 1e-6
    assert abs(without_replacement - 0.201907) < 1e-6
    # the bound must stay inside the gap, or a later N or K could not see it
    gap = without_replacement - with_replacement
    assert 3 * error < gap, (error, gap)
    assert abs(mean - with_replacement) < 3 * error, (mean, with_replacement, error)


def exact_nd_law(couplings, f_table, steps=STEPS, r_max=R_MAX):
    """Exact P(ND = 0..N) after ``steps`` * N micro-updates, one row per coupling matrix.

    ``couplings`` is a stack of symmetric, zero-diagonal N x N matrices with
    N <= 3.  The joint law of (ratings, moves), (r_max + 1)**N * 3**N states
    per matrix, starts from ratings uniform on 1..r_max and moves uniform.
    Each micro-update picks a firm with probability 1/N, replaces its move
    by the heat-bath draw given the other moves and the drift, and moves its
    rating with both barriers.
    """
    stack, n = couplings.shape[:2]
    # shift[v][r, r'] is 1 if move v takes rating r to r': 0 absorbs, r_max
    # reflects +1
    ratings = np.arange(r_max + 1)
    shift = [np.eye(r_max + 1)[np.where(ratings == 0, 0, np.clip(ratings + v, 0, r_max))]
             for v in SPIN_VALUES]
    drift = np.array([f_table[v] for v in SPIN_VALUES])
    # chosen[j, s_1..s_N, v] is 1 if firm j's move in the configuration is v
    chosen = (np.indices((3,) * n)[..., None] == np.arange(3)).astype(float)
    # weights[i][v][m, 1.., s_1..s_N] is P(firm i moves v | the other moves)
    # under matrix m, the softmax over v of sum_j J_ij * (s_j == v) + f(v);
    # it does not depend on s_i, whose axis has length 1
    weights = []
    for i in range(n):
        exponents = np.einsum("mj,j...v->m...v", couplings[:, i], chosen) + drift
        heat_bath = np.exp(exponents - exponents.max(axis=-1, keepdims=True))
        heat_bath = (heat_bath / heat_bath.sum(axis=-1, keepdims=True)).take([0], axis=1 + i)
        weights.append([heat_bath[..., v].reshape((stack,) + (1,) * n + heat_bath.shape[1:-1])
                        for v in range(3)])
    # law[m, r_1..r_N, s_1..s_N], the moves as indices 0, 1, 2 of -1, 0, +1
    law = np.zeros((stack,) + (r_max + 1,) * n + (3,) * n)
    law[(slice(None),) + (slice(1, None),) * n] = 1 / (r_max * 3) ** n

    def update(law, i):
        # the old move is replaced; the rating moves with the new one
        kept = np.moveaxis(law.sum(axis=1 + n + i, keepdims=True), 1 + i, -1)
        return np.concatenate([np.moveaxis(kept @ shift[v], -1, 1 + i) * weights[i][v]
                               for v in range(3)], axis=1 + n + i)

    for _ in range(steps * n):
        law = sum(update(law, i) for i in range(n)) / n
    rating_law = law.sum(axis=tuple(range(1 + n, 1 + 2 * n)))
    defaulted = sum(np.indices((r_max + 1,) * n) == 0)
    return np.stack([rating_law[:, defaulted == k].sum(axis=1) for k in range(n + 1)], axis=1)


def two_firm_mean_nd(j0, sigma_j, f_table, nodes=60):
    """Exact mean ND of two coupled firms, averaged over J ~ N(j0, sigma_j**2)
    by Gauss-Hermite quadrature over :func:`exact_nd_law`."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    couplings = (j0 + math.sqrt(2) * sigma_j * x)[:, None, None] * (1 - np.eye(2))
    return float(w @ exact_nd_law(couplings, f_table) @ np.arange(3)) / math.sqrt(math.pi)


def test_two_firm_ensembles_match_the_exact_chain():
    # with the N = 3 test below, the only checks of the whole dynamics with
    # couplings on against an exact law: selection, heat bath, drift and
    # both barriers together
    drift = F_TABLES["constant_table"]
    assert abs(two_firm_mean_nd(0.0, 0.0, F_TABLES["zero"]) - 0.399936) < 1e-6
    k = 10_000
    for j0, sigma_j, seed, level in ((1.5, 2.0, 1501, 0.310525), (-1.0, 3.0, 1502, 0.354949)):
        exact = two_firm_mean_nd(j0, sigma_j, drift)
        assert abs(exact - level) < 1e-6, (j0, sigma_j, exact)
        stats = run_ensemble(ModelParams(n_firms=2, j0=j0, sigma_j=sigma_j, f_table=drift),
                             k, seed, threads=1)
        error = standard_error(stats)
        assert abs(stats.mean_nd - exact) < 4 * error, (j0, sigma_j, stats.mean_nd, exact, error)


def three_firm_matrix(j12, j13, j23):
    return np.array([[0.0, j12, j13], [j12, 0.0, j23], [j13, j23, 0.0]])


def three_firm_nd_counts(case):
    """ND counts 0..3 of ``realizations`` runs on one fixed matrix, driven by
    core.initial_state and core.time_step from one generator."""
    couplings, f_mode, seed, realizations = case
    params = ModelParams(n_firms=3, f_table=F_TABLES[f_mode])
    rng = np.random.default_rng(seed)
    counts = np.zeros(4, dtype=int)
    for _ in range(realizations):
        state = initial_state(params, couplings, rng)
        for _ in range(params.steps):
            time_step(state, couplings, params, rng)
        counts[count_defaults(state)] += 1
    return counts


#: (J_12, J_13, J_23), drift and seed of the N = 3 chi-squared test, fixed
#: before its first run: mixed signs with and without the drift, and fields
#: of 60 and -45 that saturate the softmax
THREE_FIRM_CASES = (((1.3, -0.7, 2.1), "constant_table", 3101),
                    ((-2.4, 0.9, -1.6), "zero", 3102),
                    ((60.0, -45.0, 0.4), "constant_table", 3103))


def test_three_firm_nd_distribution_matches_the_exact_chain():
    # the whole dynamics with a fixed heterogeneous matrix against the exact
    # law: K = 10 000 per matrix in two fixed halves, so the counts do not
    # depend on the worker count; chi-squared on 3 degrees of freedom
    # against its 1e-4 upper quantile
    k, bound = 10_000, 21.1
    jobs = [(three_firm_matrix(*js), f_mode, child, k // 2)
            for js, f_mode, seed in THREE_FIRM_CASES
            for child in np.random.SeedSequence(seed).spawn(2)]
    if WORKERS == 1:
        halves = list(map(three_firm_nd_counts, jobs))
    else:
        # spawned, not forked: this process may hold BLAS or helper threads
        with ProcessPoolExecutor(WORKERS, mp_context=get_context("spawn")) as pool:
            halves = list(pool.map(three_firm_nd_counts, jobs))
    for index, (js, f_mode, _) in enumerate(THREE_FIRM_CASES):
        [law] = exact_nd_law(three_firm_matrix(*js)[None], F_TABLES[f_mode])
        assert abs(law.sum() - 1) < 1e-12
        expected = k * law
        assert expected.min() >= 5, (js, expected)  # the chi-squared law applies
        observed = halves[2 * index] + halves[2 * index + 1]
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < bound, (js, f_mode, observed.tolist(), expected.round(1).tolist(), chi2)


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
# the presets moved into one table (fig1 and fig2 re-recorded when a
# spec's base took its first value as j0): any change to a preset's base,
# grid, K or seed shows up here
PRESET_SPEC_DIGESTS = {
    (1000, "fig1"): "ace52df5631927c52993c0966f955e3d6712db7adcde64aac9d50f52da47c1bc",
    (1000, "fig2"): "4abe45a491298df0dfe869a4ba697dcdce222f7fa59530b989661b0244d8a8c2",
    (1000, "fig3-4"): "8a2ebae18bd020cba0df82a4cce272e569c36c2950a5e0ea290e3b4159817bfa",
    (1000, "fig5"): "8a2ebae18bd020cba0df82a4cce272e569c36c2950a5e0ea290e3b4159817bfa",
    (1000, "fig6-7"): "e27c68f2c2940edd66079014bda9dc9f2fe70f60bb461a986b5394a932203a12",
    (1000, "fig8-9"): "6ce9c55fa48cf8442f6e2fc890e80ed98e1be4bd0a0dca1fa712cbe2e0e3b6fc",
    (300, "fig1"): "c81a92152bbb29a57bf51c7b36fed440a640a6a85d375749ff4e444bb88215d9",
    (300, "fig2"): "60f6f4cd72545490f1edbaeda5939ece8eaa20c32e88840ea2d9524be597970f",
    (300, "fig3-4"): "aa3d7ae582a72f220c0c4c82446a0600d8c1db2e319adc143ca49976a73e6d2b",
    (300, "fig5"): "aa3d7ae582a72f220c0c4c82446a0600d8c1db2e319adc143ca49976a73e6d2b",
    (300, "fig6-7"): "1f3a14d6826e78e2df521dda6dad584d7b323b3e95a080620ea8b790622d0d15",
    (300, "fig8-9"): "add293707608110db69debd697514dfbb6bfe521114aa38a17a4f7299ae7cb1f",
    (7, "fig1"): "c5bafab7055d6bdee0886e73cc86dbd25efc5c2572361b0a92f9673aa7fbc496",
    (7, "fig2"): "37b4f36cb608022853b30b1b0a79ab32f3760e9fd4dfc57a6ab413c71ccbcae4",
    (7, "fig3-4"): "6b7088a4378d0bd51f964a1085cf65060c2ed9364db6aa31f40e4a063e155a34",
    (7, "fig5"): "6b7088a4378d0bd51f964a1085cf65060c2ed9364db6aa31f40e4a063e155a34",
    (7, "fig6-7"): "cb14900fec9a402cca8ee3b957e7b91ab7790e7f7f7ccc5a21fe7a4b00df9e2f",
    (7, "fig8-9"): "db47c86290d5b97313a0f1ba89b713e6240ea092cdd0756c0af8953d9ab9ad3c",
}


def test_document_base_j0_is_the_first_value():
    # base_params names a point the sweep realized, not the j0 it was built with
    for name in PRESET_NAMES:
        spec = preset_spec(name, n_firms=7)
        doc = json.loads(result_to_json(SweepResult(spec, [], {})))
        assert doc["base_params"]["j0"] == doc["values"][0], name
    assert desk_spec(values=(0.002, 0.004)).base == replace(DESK, j0=0.002)


def test_preset_specs_are_pinned():
    assert {name for _, name in PRESET_SPEC_DIGESTS} == set(PRESET_NAMES)
    for (n_firms, name), expected in PRESET_SPEC_DIGESTS.items():
        text = result_to_json(SweepResult(preset_spec(name, n_firms=n_firms), [], {}))
        assert hashlib.sha256(text.encode()).hexdigest() == expected, (n_firms, name)
