"""Seeded ensemble execution, parameter sweeps, CSV/JSON emission and presets.

Reproducibility contract: every realization gets its own child of the master
``SeedSequence``: sweep value i is child i of ``master.spawn``, and its
realization k is child k of that value's ``spawn``, taken once per value on
a copy so that no caller's sequence advances.  Results are therefore
independent of scheduling and of the worker count.  Aggregation walks
realizations in index order, making whole sweep outputs bit-stable.

A preset names its drift by a key of ``core.F_TABLES``, which holds each
name's table; a sweep document's ``f_mode`` is the name of its table there,
or null for any other table.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import sys
import time
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import __version__
from .core import (F_TABLES, ModelParams, couplings_from_normals, require_integer,
                   require_real, run_realization, seed_sequence, simulate)
# unused here: perfbench's traced sweep patches this name and
# test_modules_expose_traced_names requires it; the benchmark change of
# ROADMAP item 5 removes both
from .meanfield import predict_phase  # noqa: F401
from .riskstats import EnsembleStats, ensemble_stats


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base configuration and the j0 values it takes in turn.

    The mean coupling j0 is the model's one control parameter; every other
    parameter stays at its ``base`` value.  ``base`` is stored with the first
    value as its j0, so a document's ``base_params`` name a realized point.
    """

    base: ModelParams
    values: tuple[float, ...]
    k_realizations: int
    master_seed: int

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("values must be non-empty")
        # numpy scalars are stored as the floats they equal
        object.__setattr__(self, "values", tuple(require_real("values", v) for v in self.values))
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"values must be strictly increasing, got {self.values}")
        for name, minimum in (("k_realizations", 1), ("master_seed", 0)):
            object.__setattr__(self, name, require_integer(name, getattr(self, name), minimum))
        object.__setattr__(self, "base", self.params_at(self.values[0]))
        for value in self.values[1:]:
            self.params_at(value)  # a value the model refuses is refused here

    @property
    def f_mode(self) -> str | None:
        """The :data:`core.F_TABLES` name of the drift table, else ``None``."""
        return next((name for name, table in F_TABLES.items() if table == self.base.f_table), None)

    def params_at(self, value: float) -> ModelParams:
        return replace(self.base, j0=value)


@dataclass
class SweepPoint:
    sweep_value: float
    stats: EnsembleStats


@dataclass
class SweepResult:
    """Per-value statistics plus run metadata.

    The points follow ``spec.values`` in order, one per value that did not
    fail, each with ``spec.k_realizations`` ND values of at most
    ``spec.base.n_firms`` (else ``ValueError``).
    ``metadata`` carries the package version, wall time and any values that
    failed on resource exhaustion; everything needed to reproduce the run
    bit-identically lives in ``spec``.  :func:`result_to_json` writes the
    result as a JSON document, which ``json.load`` reads as plain data.
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


def _realization_nd(params: ModelParams, seed_seq: np.random.SeedSequence) -> int:
    return run_realization(params, seed_seq).nd


def _one_worker_nds(params: ModelParams, seeds: list[np.random.SeedSequence]) -> Iterator[int]:
    """ND values of one value's realizations, run in order in this process.

    At every N, one helper thread fills a preallocated buffer with
    realization k + 1's standard normals (``rng.standard_normal(out=...)``,
    which releases the GIL, so it runs on a second CPU) while this thread
    runs realization k.  This thread then waits for that draw, turns the
    buffer into couplings with :func:`couplings_from_normals`, which gives
    ``rng.normal``'s bits, and only then submits the next draw into the same
    buffer.  Each realization keeps its own generator and draw order, so
    every ND value is :func:`run_realization`'s and the output does not
    depend on the thread.  Below N of about 200 the two thread hand-offs,
    about 0.1 ms per realization, cost more than the overlap saves; no
    benchmark workload runs one worker there, and the command line's
    ``--threads`` default does so only where ``cli._usable_cpus()`` is 1,
    which makes it one worker at every N.  The helper is shut down before
    the generator finishes, raises or is closed, so no helper thread
    outlives the call or is alive when a later pool forks.  Pool workers
    never start one: every CPU is busy there.
    """
    normals = np.empty(params.n_firms * (params.n_firms - 1) // 2)
    rngs = map(np.random.default_rng, seeds)
    rng = next(rngs)
    with ThreadPoolExecutor(1) as helper:
        draw = helper.submit(rng.standard_normal, out=normals)
        for following in itertools.chain(rngs, [None]):
            draw.result()
            couplings = couplings_from_normals(params, normals)
            if following is not None:
                draw = helper.submit(following.standard_normal, out=normals)
            nd = simulate(params, rng, couplings).nd
            # the next fill allocates a fresh matrix: hold no second one
            del couplings
            yield nd
            rng = following


def _value_outcomes(
    values: list[tuple[ModelParams, np.random.SeedSequence]], k_realizations: int, workers: int
) -> Iterator[tuple[int, list[int] | Exception]]:
    """Yield (value index, ND values or the error that failed it) in index order.

    A value is its params and its root ``SeedSequence``; realization k is
    seeded with child k of the root's ``spawn``, taken once per value on a
    copy of the root, so no root advances and a re-run value keeps its seeds.
    One loop runs every value on ``workers`` worker processes, which the
    callers cap at the number of realizations.  One worker runs each value
    in this process through :func:`_one_worker_nds`, with its helper thread
    at every N.  Several workers share one fork-context pool, whose ``map``
    takes every value's realizations up front, value-major, in chunks of
    about ``k_realizations / (4 * workers)``, while the values are collected
    in order.
    A ``MemoryError`` fails its own value.  A dead worker breaks the pool
    and every pending future with it, so the value being collected is
    re-run alone on a fresh pool and fails only if it breaks that one too;
    every value not yet collected is then re-run on a fresh pool.  Close the
    generator to stop early: queued chunks are cancelled instead of run.
    """
    runs = [
        (params, np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key,
                                        pool_size=root.pool_size).spawn(k_realizations))
        for params, root in values
    ]
    chunksize = max(1, k_realizations // (workers * 4))
    remaining = list(range(len(runs)))
    alone = False
    while remaining:
        batch = remaining[:1] if alone else list(remaining)
        alone = False
        pool = (ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"))
                if workers > 1 else None)
        try:
            results = [
                _one_worker_nds(params, seeds) if pool is None else
                pool.map(_realization_nd, itertools.repeat(params), seeds, chunksize=chunksize)
                for params, seeds in (runs[index] for index in batch)
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

    Realization k is seeded with child k of ``master_seed``, as a fresh
    sequence's ``spawn`` gives it, so the multiset of default counts (and
    their index order, hence all aggregates) does not depend on ``threads``,
    the number of worker processes.  One worker runs in this process, as
    :func:`_one_worker_nds` describes.  This is the one-value case of the
    scheduler :func:`run_sweep` uses.  The histogram counts each default
    count on its own.
    ``k_realizations`` and ``threads`` must be integers >= 1 and
    ``master_seed`` an integer >= 0 or a ``SeedSequence``, which is not
    advanced; anything else raises ``ValueError`` before any work.
    """
    require_integer("k_realizations", k_realizations, 1)
    require_integer("threads", threads, 1)
    root = seed_sequence("master_seed", master_seed)
    [(_, outcome)] = _value_outcomes([(params, root)], k_realizations, min(threads, k_realizations))
    if isinstance(outcome, Exception):
        raise outcome
    return ensemble_stats(outcome)


def run_sweep(spec: SweepSpec, *, threads: int = 1) -> SweepResult:
    """Run one ensemble per sweep value and collect its stats and the argmin.

    ``threads`` counts worker processes, and every value's realizations
    share one worker pool.  One worker runs in this process, as
    :func:`_one_worker_nds` describes.  As each value is
    collected, one ``[firmglass] sweep i/n j0=... workers=w done`` line
    (``failed`` for a lost value) goes to stderr; w is ``threads``, capped at
    the sweep's realizations.  A value that exhausts memory or loses a worker
    process is recorded under metadata["failed_values"] and skipped; the
    remaining values are unaffected.  A thread count that is not an integer
    >= 1 raises ``ValueError`` before any work.
    """
    require_integer("threads", threads, 1)
    started = time.perf_counter()
    roots = np.random.SeedSequence(spec.master_seed).spawn(len(spec.values))
    values = [(spec.params_at(value), root) for value, root in zip(spec.values, roots)]
    workers = min(threads, len(spec.values) * spec.k_realizations)
    points: list[SweepPoint] = []
    failed: dict[str, str] = {}
    with closing(_value_outcomes(values, spec.k_realizations, workers)) as outcomes:
        for index, outcome in outcomes:
            value = spec.values[index]
            lost = isinstance(outcome, Exception)
            print(
                f"[firmglass] sweep {index + 1}/{len(spec.values)} "
                f"j0={value:g} workers={workers} {'failed' if lost else 'done'}",
                file=sys.stderr,
                flush=True,
            )
            if lost:
                failed[repr(value)] = f"{type(outcome).__name__}: {outcome}"
                continue
            points.append(SweepPoint(value, ensemble_stats(outcome)))
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
            "f_table": dict(zip(("-1", "0", "1"), spec.base.f_table)),
        },
        "points": [
            {
                "sweep_value": point.sweep_value,
                "mean_nd": point.stats.mean_nd,
                "mean_nd_frac": point.stats.mean_nd / spec.base.n_firms,
                "semivariance_plus": point.stats.semivariance_plus,
                "nd_values": point.stats.nd_values,
                "histogram": {str(b): c for b, c in point.stats.histogram.items()},
            }
            for point in result.points
        ],
        "argmin_index": result.argmin_index,
        "argmin_sweep_value": result.argmin_sweep_value,
        "metadata": result.metadata,
    }


def result_to_json(result: SweepResult) -> str:
    return json.dumps(result_to_dict(result), indent=2) + "\n"


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
    """One CSV row per point of :func:`result_to_dict`, with the fixed column set."""
    document = result_to_dict(result)
    base = document["base_params"]
    run = (document["k_realizations"], base["n_firms"], base["steps"], document["master_seed"])
    rows = ((point["sweep_value"], point["mean_nd"], point["mean_nd_frac"],
             "" if point["semivariance_plus"] is None else point["semivariance_plus"], *run)
            for point in document["points"])
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

#: the master seed of every preset unless the caller gives another
PRESET_SEED = 20_260_809

# the transition sweep: mean defaults and semivariance across it, f == 0
_TRANSITION = (0.001, "zero", lambda n: np.linspace(0.0, 0.008, 17))

#: name -> (sigma_j, f_mode, j0 grid as a function of N)
_PRESETS = {
    # weak-coupling default-count distribution
    "fig1": (0.001, "zero", lambda n: [0.0001]),
    # strong-coupling (collective) default-count distribution
    "fig2": (0.001, "zero", lambda n: [0.02]),
    "fig3-4": _TRANSITION,
    "fig5": _TRANSITION,
    # the transition sweep in the strong-disorder (glass) regime
    "fig6-7": (0.2, "zero", lambda n: np.linspace(0.0, 0.02, 11)),
    # drift-field case: j0 * N in [0, 40]
    "fig8-9": (0.001, "constant_table", lambda n: np.linspace(0.0, 40.0, 21) / n),
}

PRESET_NAMES = tuple(_PRESETS)


def preset_spec(
    name: str,
    n_firms: int = 1000,
    k_realizations: int = 1000,
    master_seed: int = PRESET_SEED,
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
    sigma_j, f_mode, grid = _PRESETS[name]
    return SweepSpec(
        base=ModelParams(n_firms=n_firms, sigma_j=sigma_j, f_table=F_TABLES[f_mode]),
        values=tuple(float(v) for v in np.round(grid(n_firms), 12)),
        k_realizations=k_realizations,
        master_seed=master_seed,
    )
