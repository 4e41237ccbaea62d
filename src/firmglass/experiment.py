"""Seeded ensemble execution, parameter sweeps and CSV/JSON emission.

Reproducibility contract: every realization gets its own child of the master
``SeedSequence`` (realization k of sweep value i is child k of child i), so
results are independent of scheduling and of the worker count.  Aggregation
walks realizations in index order, making whole sweep outputs bit-stable.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from collections.abc import Iterator
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import __version__
from .core import ModelParams, run_realization
from .meanfield import PhasePrediction, predict_phase
from .riskstats import EnsembleStats, ensemble_stats

SWEEP_VARIABLES = ("j0", "sigma_j")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base configuration, the varied parameter and its values."""

    base: ModelParams
    sweep_variable: str
    values: tuple[float, ...]
    k_realizations: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"sweep_variable must be one of {SWEEP_VARIABLES}, "
                f"got {self.sweep_variable!r}"
            )
        if len(self.values) == 0:
            raise ValueError("values must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"values must be strictly increasing, got {self.values}")
        if self.k_realizations < 1:
            raise ValueError(
                f"k_realizations must be >= 1, got {self.k_realizations}"
            )

    @property
    def f_mode(self) -> str:
        """``"zero"`` when every drift value is 0, else ``"constant_table"``."""
        if all(f == 0.0 for f in self.base.f_table.values()):
            return "zero"
        return "constant_table"

    def params_at(self, value: float) -> ModelParams:
        return replace(self.base, **{self.sweep_variable: value})


@dataclass
class SweepPoint:
    sweep_value: float
    stats: EnsembleStats
    phase: PhasePrediction


@dataclass
class SweepResult:
    """Per-value statistics and phase predictions plus run metadata.

    ``metadata`` carries the package version, wall time and any values that
    failed on resource exhaustion; everything needed to reproduce the run
    bit-identically lives in ``spec``.
    """

    spec: SweepSpec
    points: list[SweepPoint]
    argmin_index: int | None
    metadata: dict

    @property
    def argmin_sweep_value(self) -> float | None:
        if self.argmin_index is None:
            return None
        return self.points[self.argmin_index].sweep_value


def _realization_nd(task: tuple[ModelParams, np.random.SeedSequence]) -> int:
    params, seed_seq = task
    return run_realization(params, seed_seq).nd


def _chunk_nd(tasks: list[tuple[ModelParams, np.random.SeedSequence]]) -> list[int]:
    return [_realization_nd(task) for task in tasks]


def _realization_tasks(
    params: ModelParams, seed: np.random.SeedSequence, k_realizations: int
) -> list[tuple[ModelParams, np.random.SeedSequence]]:
    """Realization k of the ensemble is seeded with child k of ``seed``."""
    return [(params, child) for child in seed.spawn(k_realizations)]


def _submit_chunks(
    pool: ProcessPoolExecutor,
    tasks: list[tuple[ModelParams, np.random.SeedSequence]],
    threads: int,
) -> list[Future]:
    """Queue one value's realizations as about ``4 * threads`` chunks, in order."""
    chunk = max(1, len(tasks) // (threads * 4))
    return [
        pool.submit(_chunk_nd, tasks[start:start + chunk])
        for start in range(0, len(tasks), chunk)
    ]


def _value_outcomes(
    task_lists: list[list[tuple[ModelParams, np.random.SeedSequence]]], threads: int
) -> Iterator[tuple[int, list[int] | Exception]]:
    """Yield (value index, ND values or the error that failed it) in index order.

    With several workers, one fork-context pool takes every value's
    realizations up front as chunks, value-major, and the values are
    collected in order while the workers run ahead.  A ``MemoryError``
    fails its own value.  A dead worker breaks the pool and every pending
    future with it, so the value being collected is re-run alone on a fresh
    pool and fails only if it breaks that one too; every value not yet
    collected is then re-run on a fresh pool.  Close the generator to stop
    early: queued chunks are cancelled instead of run.
    """
    total = sum(len(tasks) for tasks in task_lists)
    if threads == 1 or total == 1:
        for index, tasks in enumerate(task_lists):
            try:
                nd_values = [_realization_nd(task) for task in tasks]
            except MemoryError as exc:
                yield index, exc
            else:
                yield index, nd_values
        return
    remaining = list(range(len(task_lists)))
    alone = False
    while remaining:
        batch = remaining[:1] if alone else list(remaining)
        alone = False
        pool = ProcessPoolExecutor(max_workers=threads, mp_context=get_context("fork"))
        try:
            futures = [_submit_chunks(pool, task_lists[index], threads) for index in batch]
            for index, value_futures in zip(batch, futures):
                try:
                    outcome = [nd for future in value_futures for nd in future.result()]
                except MemoryError as exc:
                    outcome = exc
                remaining.remove(index)
                yield index, outcome
        except BrokenProcessPool as exc:
            if len(batch) > 1:
                alone = True
                continue
            remaining.remove(batch[0])
            yield batch[0], exc
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def run_ensemble(
    params: ModelParams,
    k_realizations: int,
    master_seed: int | np.random.SeedSequence,
    *,
    threads: int = 1,
    bin_width: int = 1,
) -> EnsembleStats:
    """K independent realizations, each with fresh couplings and initial state.

    Realization k is seeded with child k of ``master_seed``, so the
    multiset of default counts (and their index order, hence all
    aggregates) does not depend on ``threads``.  This is the one-value case
    of the scheduler :func:`run_sweep` uses.
    """
    if k_realizations < 1:
        raise ValueError(f"k_realizations must be >= 1, got {k_realizations}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    root = (
        master_seed
        if isinstance(master_seed, np.random.SeedSequence)
        else np.random.SeedSequence(master_seed)
    )
    tasks = _realization_tasks(params, root, k_realizations)
    [(_, outcome)] = _value_outcomes([tasks], threads)
    if isinstance(outcome, Exception):
        raise outcome
    return ensemble_stats(outcome, bin_width)


def run_sweep(
    spec: SweepSpec,
    *,
    threads: int = 1,
    bin_width: int = 1,
    progress: bool = False,
) -> SweepResult:
    """Run one ensemble per sweep value and collect stats, phases and argmin.

    Every value's realizations share one worker pool.  A value that
    exhausts memory or loses a worker process is recorded under
    metadata["failed_values"] and skipped; the remaining values are
    unaffected.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    started = time.perf_counter()
    root = np.random.SeedSequence(spec.master_seed)
    value_seeds = root.spawn(len(spec.values))
    params_by_value = [spec.params_at(value) for value in spec.values]
    task_lists = [
        _realization_tasks(params, seed, spec.k_realizations)
        for params, seed in zip(params_by_value, value_seeds)
    ]
    points: list[SweepPoint] = []
    failed: dict[str, str] = {}
    with closing(_value_outcomes(task_lists, threads)) as outcomes:
        for index, outcome in outcomes:
            value = spec.values[index]
            lost = isinstance(outcome, Exception)
            if progress:
                print(
                    f"[firmglass] sweep {index + 1}/{len(spec.values)} "
                    f"{spec.sweep_variable}={value:g} {'failed' if lost else 'done'}",
                    file=sys.stderr,
                    flush=True,
                )
            if lost:
                failed[repr(value)] = f"{type(outcome).__name__}: {outcome}"
                continue
            points.append(
                SweepPoint(
                    sweep_value=value,
                    stats=ensemble_stats(outcome, bin_width),
                    phase=predict_phase(params_by_value[index]),
                )
            )
    argmin_index = None
    if points:
        argmin_index = int(
            np.argmin([point.stats.mean_nd for point in points])
        )
    metadata = {
        "package_version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "failed_values": failed,
    }
    return SweepResult(
        spec=spec, points=points, argmin_index=argmin_index, metadata=metadata
    )


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

CSV_COLUMNS = (
    "sweep_value",
    "mean_nd",
    "mean_nd_frac",
    "semivar_plus",
    "regime",
    "k",
    "n",
    "steps",
    "seed",
)


def result_to_dict(result: SweepResult) -> dict:
    """Lossless plain-dict form of a sweep result (JSON document layout)."""
    spec = result.spec
    return {
        "sweep_variable": spec.sweep_variable,
        "values": list(spec.values),
        "k_realizations": spec.k_realizations,
        "master_seed": spec.master_seed,
        "f_mode": spec.f_mode,
        "base_params": {
            "n_firms": spec.base.n_firms,
            "j0": spec.base.j0,
            "sigma_j": spec.base.sigma_j,
            "r_max": spec.base.r_max,
            "steps": spec.base.steps,
            "selection": spec.base.selection,
            "f_table": {str(s): spec.base.f_table[s] for s in (-1, 0, 1)},
        },
        "points": [
            {
                "sweep_value": point.sweep_value,
                "mean_nd": point.stats.mean_nd,
                "mean_nd_frac": point.stats.mean_nd / spec.base.n_firms,
                "semivariance_plus": point.stats.semivariance_plus,
                "nd_values": point.stats.nd_values,
                "histogram": {str(b): c for b, c in point.stats.histogram.items()},
                "bin_width": point.stats.bin_width,
                "phase": {
                    "j_critical": point.phase.j_critical,
                    "sigma_glass": point.phase.sigma_glass,
                    "regime": point.phase.regime,
                },
            }
            for point in result.points
        ],
        "argmin_index": result.argmin_index,
        "argmin_sweep_value": result.argmin_sweep_value,
        "metadata": result.metadata,
    }


def result_from_dict(doc: dict) -> SweepResult:
    """Inverse of :func:`result_to_dict`.

    Raises ValueError when the document's ``f_mode`` contradicts its
    ``f_table``, since the mode is derived from the table.
    """
    base = ModelParams(
        n_firms=doc["base_params"]["n_firms"],
        j0=doc["base_params"]["j0"],
        sigma_j=doc["base_params"]["sigma_j"],
        r_max=doc["base_params"]["r_max"],
        steps=doc["base_params"]["steps"],
        selection=doc["base_params"]["selection"],
        f_table={int(s): f for s, f in doc["base_params"]["f_table"].items()},
    )
    spec = SweepSpec(
        base=base,
        sweep_variable=doc["sweep_variable"],
        values=tuple(doc["values"]),
        k_realizations=doc["k_realizations"],
        master_seed=doc["master_seed"],
    )
    if doc["f_mode"] != spec.f_mode:
        raise ValueError(
            f"f_mode {doc['f_mode']!r} contradicts the f_table, which makes it "
            f"{spec.f_mode!r}"
        )
    points = [
        SweepPoint(
            sweep_value=entry["sweep_value"],
            stats=EnsembleStats(
                nd_values=list(entry["nd_values"]),
                mean_nd=entry["mean_nd"],
                semivariance_plus=entry["semivariance_plus"],
                histogram={int(b): c for b, c in entry["histogram"].items()},
                bin_width=entry["bin_width"],
            ),
            phase=PhasePrediction(
                j_critical=entry["phase"]["j_critical"],
                sigma_glass=entry["phase"]["sigma_glass"],
                regime=entry["phase"]["regime"],
            ),
        )
        for entry in doc["points"]
    ]
    return SweepResult(
        spec=spec,
        points=points,
        argmin_index=doc["argmin_index"],
        metadata=doc["metadata"],
    )


def result_to_json(result: SweepResult) -> str:
    return json.dumps(result_to_dict(result), indent=2) + "\n"


def result_from_json(text: str) -> SweepResult:
    return result_from_dict(json.loads(text))


def result_to_csv(result: SweepResult) -> str:
    """One CSV row per sweep value with the fixed column set."""
    spec = result.spec
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for point in result.points:
        semivar = point.stats.semivariance_plus
        writer.writerow(
            [
                point.sweep_value,
                point.stats.mean_nd,
                point.stats.mean_nd / spec.base.n_firms,
                "" if semivar is None else semivar,
                point.phase.regime,
                spec.k_realizations,
                spec.base.n_firms,
                spec.base.steps,
                spec.master_seed,
            ]
        )
    return buffer.getvalue()


def emit(result: SweepResult, format: str = "json", path: str | Path | None = None) -> None:
    """Write a sweep result as JSON or CSV to ``path``, or stdout if None."""
    if format == "json":
        payload = result_to_json(result)
    elif format == "csv":
        payload = result_to_csv(result)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    write_payload(payload, path)


def write_payload(payload: str, path: str | Path | None) -> None:
    """Write text to ``path``, or stdout if None; a failure names the path."""
    if path is None:
        sys.stdout.write(payload)
        return
    try:
        Path(path).write_text(payload, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# --------------------------------------------------------------------------
# Built-in study presets (the published simulation set)
# --------------------------------------------------------------------------

_DEFAULT_PRESET_SEED = 20_260_809


def _j0_sweep(base: ModelParams, values, k: int, seed: int) -> SweepSpec:
    return SweepSpec(
        base=base,
        sweep_variable="j0",
        values=tuple(float(v) for v in values),
        k_realizations=k,
        master_seed=seed,
    )


def preset_spec(
    name: str,
    n_firms: int = 1000,
    k_realizations: int = 1000,
    master_seed: int = _DEFAULT_PRESET_SEED,
) -> SweepSpec:
    """SweepSpec for one of the published study scenarios.

    Defaults reproduce the full-scale runs (N=1000, K=1000, 8 steps); pass a
    smaller ``n_firms``/``k_realizations`` for desk-scale runs.  The
    drift-field sweep (fig8-9) is parametrized by j0 * N in [0, 40], so its
    j0 grid rescales automatically with ``n_firms``; the fixed-j0 presets
    keep their published values regardless of N.
    """
    zero = ModelParams(n_firms=n_firms, sigma_j=0.001)
    if name == "fig1":
        # weak-coupling default-count distribution
        return _j0_sweep(zero, [0.0001], k_realizations, master_seed)
    if name == "fig2":
        # strong-coupling (collective) default-count distribution
        return _j0_sweep(zero, [0.02], k_realizations, master_seed)
    if name in ("fig3-4", "fig5"):
        # mean defaults and semivariance across the transition, f == 0
        values = np.round(np.linspace(0.0, 0.008, 17), 12)
        return _j0_sweep(zero, values, k_realizations, master_seed)
    if name == "fig6-7":
        # same sweep in the strong-disorder (glass) regime
        glassy = ModelParams(n_firms=n_firms, sigma_j=0.2)
        values = np.round(np.linspace(0.0, 0.02, 11), 12)
        return _j0_sweep(glassy, values, k_realizations, master_seed)
    if name == "fig8-9":
        # drift-field case: j0 * N in [0, 40]
        from .core import RATING_DRIFT_WEIGHTS, f_table_from_weights

        drift = ModelParams(
            n_firms=n_firms,
            sigma_j=0.001,
            f_table=f_table_from_weights(*RATING_DRIFT_WEIGHTS),
        )
        values = np.round(np.linspace(0.0, 40.0, 21) / n_firms, 12)
        return _j0_sweep(drift, values, k_realizations, master_seed)
    raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESET_NAMES)}")


PRESET_NAMES = ("fig1", "fig2", "fig3-4", "fig5", "fig6-7", "fig8-9")
