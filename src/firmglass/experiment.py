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
import math
import sys
import time
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    RATING_DRIFT_WEIGHTS,
    ModelParams,
    f_table_from_weights,
    require_integer,
    run_realization,
    seed_sequence,
    zero_f_table,
)
from .meanfield import PhasePrediction, predict_phase
from .riskstats import EnsembleStats, ensemble_stats


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base configuration and the j0 values it takes in turn.

    The mean coupling j0 is the model's one control parameter; every other
    parameter stays at its ``base`` value.
    """

    base: ModelParams
    values: tuple[float, ...]
    k_realizations: int
    master_seed: int

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("values must be non-empty")
        if not all(math.isfinite(value) for value in self.values):
            raise ValueError(f"values must be finite, got {self.values}")
        # numpy scalars are stored as the floats they equal
        object.__setattr__(self, "values", tuple(float(value) for value in self.values))
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"values must be strictly increasing, got {self.values}")
        for name, minimum in (("k_realizations", 1), ("master_seed", 0)):
            object.__setattr__(self, name, require_integer(name, getattr(self, name), minimum))
        for value in self.values:
            self.params_at(value)  # a value the model refuses is refused here

    @property
    def f_mode(self) -> str:
        """``"zero"`` when every drift value is 0, else ``"constant_table"``."""
        if all(f == 0.0 for f in self.base.f_table.values()):
            return "zero"
        return "constant_table"

    def params_at(self, value: float) -> ModelParams:
        return replace(self.base, j0=value)


@dataclass
class SweepPoint:
    sweep_value: float
    stats: EnsembleStats
    phase: PhasePrediction


@dataclass
class SweepResult:
    """Per-value statistics and phase predictions plus run metadata.

    The points follow ``spec.values`` in order, one per value that did not
    fail, each with ``spec.k_realizations`` ND values of at most
    ``spec.base.n_firms`` (else ``ValueError``).
    ``metadata`` carries the package version, wall time and any values that
    failed on resource exhaustion; everything needed to reproduce the run
    bit-identically lives in ``spec``.
    """

    spec: SweepSpec
    points: list[SweepPoint]
    metadata: dict

    def __post_init__(self) -> None:
        # ``in`` consumes ``values`` up to the match, so each point's value
        # must come later in the spec than the previous point's
        values = iter(self.spec.values)
        for index, point in enumerate(self.points):
            if point.sweep_value not in values:
                raise ValueError(f"points[{index}].sweep_value is not a later value of the spec")
            if len(point.stats.nd_values) != self.spec.k_realizations:
                raise ValueError(f"points[{index}].nd_values must hold k_realizations values")
            if max(point.stats.nd_values) > self.spec.base.n_firms:
                raise ValueError(f"points[{index}].nd_values must be at most n_firms")

    @property
    def argmin_index(self) -> int | None:
        """Index of the point with the lowest mean ND, the first on a tie."""
        means = [point.stats.mean_nd for point in self.points]
        return means.index(min(means)) if means else None

    @property
    def argmin_sweep_value(self) -> float | None:
        if self.argmin_index is None:
            return None
        return self.points[self.argmin_index].sweep_value


def _realization_nd(task: tuple[ModelParams, np.random.SeedSequence]) -> int:
    params, seed_seq = task
    return run_realization(params, seed_seq).nd


def _realization_tasks(
    params: ModelParams, seed: np.random.SeedSequence, k_realizations: int
) -> list[tuple[ModelParams, np.random.SeedSequence]]:
    """Realization k of the ensemble is seeded with child k of ``seed``, the
    child ``spawn`` gives a fresh sequence; ``seed`` itself is not advanced."""
    return [
        (params, np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, k),
                                        pool_size=seed.pool_size))
        for k in range(k_realizations)
    ]


def _value_outcomes(
    task_lists: list[list[tuple[ModelParams, np.random.SeedSequence]]], threads: int
) -> Iterator[tuple[int, list[int] | Exception]]:
    """Yield (value index, ND values or the error that failed it) in index order.

    One loop runs every value on ``min(threads, realizations)`` workers: one
    worker maps each value in this process; several share one fork-context
    pool, whose ``map`` takes every value's realizations up front, value-major,
    in chunks of about ``len(tasks) / (4 * workers)``, while the values are
    collected in order.  A ``MemoryError`` fails its own value.  A dead
    worker breaks the pool and every pending future with it, so the value
    being collected is re-run alone on a fresh pool and fails only if it
    breaks that one too; every value not yet collected is then re-run on a
    fresh pool.  Close the generator to stop early: queued chunks are
    cancelled instead of run.
    """
    workers = min(threads, sum(len(tasks) for tasks in task_lists))
    remaining = list(range(len(task_lists)))
    alone = False
    while remaining:
        batch = remaining[:1] if alone else list(remaining)
        alone = False
        pool = (ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"))
                if workers > 1 else None)
        try:
            results = [
                map(_realization_nd, tasks) if pool is None else
                pool.map(_realization_nd, tasks, chunksize=max(1, len(tasks) // (workers * 4)))
                for tasks in (task_lists[index] for index in batch)
            ]
            for index, nd_values in zip(batch, results):
                try:
                    outcome = list(nd_values)
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
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)


def run_ensemble(
    params: ModelParams,
    k_realizations: int,
    master_seed: int | np.random.SeedSequence,
    *,
    threads: int = 1,
) -> EnsembleStats:
    """K independent realizations, each with fresh couplings and initial state.

    Realization k is seeded with child k of ``master_seed``, so the
    multiset of default counts (and their index order, hence all
    aggregates) does not depend on ``threads``.  This is the one-value case
    of the scheduler :func:`run_sweep` uses.  The histogram counts each
    default count on its own.
    ``k_realizations`` and ``threads`` must be integers >= 1 and
    ``master_seed`` an integer >= 0 or a ``SeedSequence``, which is not
    advanced; anything else raises ``ValueError`` before any work.
    """
    require_integer("k_realizations", k_realizations, 1)
    require_integer("threads", threads, 1)
    root = seed_sequence("master_seed", master_seed)
    tasks = _realization_tasks(params, root, k_realizations)
    [(_, outcome)] = _value_outcomes([tasks], threads)
    if isinstance(outcome, Exception):
        raise outcome
    return ensemble_stats(outcome)


def _sweep_point(spec: SweepSpec, value: float, nd_values: Sequence[int]) -> SweepPoint:
    """The point of one sweep value: its ND values' stats and its phase."""
    return SweepPoint(value, ensemble_stats(nd_values), predict_phase(spec.params_at(value)))


def run_sweep(
    spec: SweepSpec,
    *,
    threads: int = 1,
    progress: bool = False,
) -> SweepResult:
    """Run one ensemble per sweep value and collect stats, phases and argmin.

    Every value's realizations share one worker pool.  A value that
    exhausts memory or loses a worker process is recorded under
    metadata["failed_values"] and skipped; the remaining values are
    unaffected.  A thread count that is not an integer >= 1 raises
    ``ValueError`` before any work.
    """
    require_integer("threads", threads, 1)
    started = time.perf_counter()
    value_seeds = np.random.SeedSequence(spec.master_seed).spawn(len(spec.values))
    task_lists = [
        _realization_tasks(spec.params_at(value), seed, spec.k_realizations)
        for value, seed in zip(spec.values, value_seeds)
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
                    f"j0={value:g} {'failed' if lost else 'done'}",
                    file=sys.stderr,
                    flush=True,
                )
            if lost:
                failed[repr(value)] = f"{type(outcome).__name__}: {outcome}"
                continue
            points.append(_sweep_point(spec, value, outcome))
    metadata = {
        "package_version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "failed_values": failed,
    }
    return SweepResult(spec=spec, points=points, metadata=metadata)


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
        "sweep_variable": "j0",
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
            "selection": "with_replacement",
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
                "bin_width": 1,
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

    Rebuilds the result from the spec, each point's sweep value and ND
    values, and the metadata, with the code :func:`run_sweep` uses.  Raises
    ValueError for a document that lacks a key or has the wrong shape, and
    for one that is not what :func:`result_to_dict` writes for the rebuilt
    result, naming every field that differs.
    """
    try:
        return _result_from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"sweep document lacks the key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"sweep document has the wrong shape: {exc}") from exc


def _result_from_dict(doc: dict) -> SweepResult:
    params = doc["base_params"]
    spec = SweepSpec(
        base=ModelParams(
            n_firms=params["n_firms"],
            j0=params["j0"],
            sigma_j=params["sigma_j"],
            r_max=params["r_max"],
            steps=params["steps"],
            f_table={int(s): f for s, f in params["f_table"].items()},
        ),
        values=tuple(doc["values"]),
        k_realizations=doc["k_realizations"],
        master_seed=doc["master_seed"],
    )
    points = [
        _sweep_point(spec, entry["sweep_value"], entry["nd_values"])
        for entry in doc["points"]
    ]
    result = SweepResult(spec=spec, points=points, metadata=doc["metadata"])
    differences = _differences(result_to_dict(result), doc)
    if differences:
        raise ValueError("sweep document differs from what its spec and ND values give "
                         f"at: {', '.join(differences)}")
    return result


def _differences(written: object, doc: object, path: str = "") -> list[str]:
    """Where ``doc`` departs from ``written``, each place named by its path.

    A leaf differs when its value or its type does: ``true`` or ``1.0``
    where ``1`` is written would load, then be written back as ``1``.
    """
    if isinstance(written, list):
        # a list rebuilt from the document has its length
        places = [(f"{path}[{index}]", item, doc[index]) for index, item in enumerate(written)]
        found = []
    elif isinstance(written, dict) and isinstance(doc, dict):
        prefix = f"{path}." if path else ""
        places = [(prefix + key, item, doc[key]) for key, item in written.items() if key in doc]
        found = [f"{path or 'the document'} lacks the key {key!r}"
                 for key in written if key not in doc]
        found += [prefix + key for key in doc if key not in written]
    elif type(doc) is type(written) and doc == written:
        return []
    else:
        return [f"{path} has the wrong shape" if isinstance(written, dict) else path]
    for where, item, entry in places:
        found += _differences(item, entry, where)
    return found


def result_to_json(result: SweepResult) -> str:
    return json.dumps(result_to_dict(result), indent=2) + "\n"


def result_from_json(text: str) -> SweepResult:
    return result_from_dict(json.loads(text))


_CSV_CHUNK_ROWS = 4096


def csv_chunks(header: Sequence, rows: Iterable[Sequence]) -> Iterator[str]:
    """CSV text of a header row and then ``rows``, with newline line ends.

    The text comes in chunks of up to 4096 rows, so a caller that writes
    each chunk as it comes never holds the whole text.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for count, row in enumerate(rows, 1):
        writer.writerow(row)
        if count % _CSV_CHUNK_ROWS == 0:
            yield buffer.getvalue()
            buffer.seek(0)
            buffer.truncate()
    yield buffer.getvalue()


def result_to_csv(result: SweepResult) -> str:
    """One CSV row per sweep value with the fixed column set."""
    spec = result.spec
    rows = []
    for point in result.points:
        semivar = point.stats.semivariance_plus
        rows.append([point.sweep_value, point.stats.mean_nd,
                     point.stats.mean_nd / spec.base.n_firms,
                     "" if semivar is None else semivar, point.phase.regime,
                     spec.k_realizations, spec.base.n_firms, spec.base.steps,
                     spec.master_seed])
    return "".join(csv_chunks(CSV_COLUMNS, rows))


def emit(result: SweepResult, format: str = "json", path: str | Path | None = None) -> None:
    """Write a sweep result as JSON or CSV to ``path``, or stdout if None."""
    if format == "json":
        payload = result_to_json(result)
    elif format == "csv":
        payload = result_to_csv(result)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    write_payload((payload,), path)


def write_payload(chunks: Iterable[str], path: str | Path | None) -> None:
    """Write text chunks in turn to ``path``, or stdout if None.

    A failure to write names the path; what came before it stays written.
    """
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# --------------------------------------------------------------------------
# Built-in study presets (the published simulation set)
# --------------------------------------------------------------------------

_DEFAULT_PRESET_SEED = 20_260_809

# the transition sweep: mean defaults and semivariance across it, f == 0
_TRANSITION = (0.001, False, lambda n: np.linspace(0.0, 0.008, 17))

#: name -> (sigma_j, drift on, j0 grid as a function of N)
_PRESETS = {
    # weak-coupling default-count distribution
    "fig1": (0.001, False, lambda n: [0.0001]),
    # strong-coupling (collective) default-count distribution
    "fig2": (0.001, False, lambda n: [0.02]),
    "fig3-4": _TRANSITION,
    "fig5": _TRANSITION,
    # the transition sweep in the strong-disorder (glass) regime
    "fig6-7": (0.2, False, lambda n: np.linspace(0.0, 0.02, 11)),
    # drift-field case: j0 * N in [0, 40]
    "fig8-9": (0.001, True, lambda n: np.linspace(0.0, 40.0, 21) / n),
}

PRESET_NAMES = tuple(_PRESETS)


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
    keep their published values regardless of N.  ``fig5`` is ``fig3-4``.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESET_NAMES)}")
    sigma_j, drift, grid = _PRESETS[name]
    f_table = f_table_from_weights(*RATING_DRIFT_WEIGHTS) if drift else zero_f_table()
    return SweepSpec(
        base=ModelParams(n_firms=n_firms, sigma_j=sigma_j, f_table=f_table),
        values=tuple(float(v) for v in np.round(grid(n_firms), 12)),
        k_realizations=k_realizations,
        master_seed=master_seed,
    )
