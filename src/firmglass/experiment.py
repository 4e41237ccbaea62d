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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import __version__
from .core import ModelParams, run_realization
from .meanfield import PhasePrediction, predict_phase
from .riskstats import EnsembleStats, ensemble_stats

SWEEP_VARIABLES = ("j0", "sigma_j")
F_MODES = ("zero", "constant_table")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base configuration, the varied parameter and its values."""

    base: ModelParams
    sweep_variable: str
    values: tuple[float, ...]
    k_realizations: int
    master_seed: int
    f_mode: str = "zero"

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
        if self.f_mode not in F_MODES:
            raise ValueError(f"f_mode must be one of {F_MODES}, got {self.f_mode!r}")
        if self.f_mode == "zero" and any(f != 0.0 for f in self.base.f_table.values()):
            raise ValueError(
                f"f_mode 'zero' needs an all-zero f_table, got {dict(self.base.f_table)}"
            )

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
    aggregates) does not depend on ``threads``.
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
    children = root.spawn(k_realizations)
    tasks = [(params, child) for child in children]
    if threads == 1 or k_realizations == 1:
        nd_values = [_realization_nd(task) for task in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=threads, mp_context=get_context("fork")
        ) as pool:
            chunk = max(1, k_realizations // (threads * 4))
            nd_values = list(pool.map(_realization_nd, tasks, chunksize=chunk))
    return ensemble_stats(nd_values, bin_width)


def run_sweep(
    spec: SweepSpec,
    *,
    threads: int = 1,
    bin_width: int = 1,
    progress: bool = False,
) -> SweepResult:
    """Run one ensemble per sweep value and collect stats, phases and argmin.

    A value that exhausts memory is recorded under metadata["failed_values"]
    and skipped; the remaining values are unaffected.
    """
    started = time.perf_counter()
    root = np.random.SeedSequence(spec.master_seed)
    value_seeds = root.spawn(len(spec.values))
    points: list[SweepPoint] = []
    failed: dict[str, str] = {}
    for index, value in enumerate(spec.values):
        params = spec.params_at(value)
        if progress:
            print(
                f"[firmglass] sweep {index + 1}/{len(spec.values)} "
                f"{spec.sweep_variable}={value:g} ...",
                file=sys.stderr,
                flush=True,
            )
        try:
            stats = run_ensemble(
                params,
                spec.k_realizations,
                value_seeds[index],
                threads=threads,
                bin_width=bin_width,
            )
        except MemoryError as exc:
            failed[repr(value)] = f"resource exhaustion: {exc}"
            continue
        points.append(
            SweepPoint(sweep_value=value, stats=stats, phase=predict_phase(params))
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
    """Inverse of :func:`result_to_dict`."""
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
        f_mode=doc["f_mode"],
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


def _j0_sweep(base: ModelParams, values, k: int, seed: int, f_mode: str) -> SweepSpec:
    return SweepSpec(
        base=base,
        sweep_variable="j0",
        values=tuple(float(v) for v in values),
        k_realizations=k,
        master_seed=seed,
        f_mode=f_mode,
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
        return _j0_sweep(zero, [0.0001], k_realizations, master_seed, "zero")
    if name == "fig2":
        # strong-coupling (collective) default-count distribution
        return _j0_sweep(zero, [0.02], k_realizations, master_seed, "zero")
    if name in ("fig3-4", "fig5"):
        # mean defaults and semivariance across the transition, f == 0
        values = np.round(np.linspace(0.0, 0.008, 17), 12)
        return _j0_sweep(zero, values, k_realizations, master_seed, "zero")
    if name == "fig6-7":
        # same sweep in the strong-disorder (glass) regime
        glassy = ModelParams(n_firms=n_firms, sigma_j=0.2)
        values = np.round(np.linspace(0.0, 0.02, 11), 12)
        return _j0_sweep(glassy, values, k_realizations, master_seed, "zero")
    if name == "fig8-9":
        # drift-field case: j0 * N in [0, 40]
        from .core import RATING_DRIFT_WEIGHTS, f_table_from_weights

        drift = ModelParams(
            n_firms=n_firms,
            sigma_j=0.001,
            f_table=f_table_from_weights(*RATING_DRIFT_WEIGHTS),
        )
        values = np.round(np.linspace(0.0, 40.0, 21) / n_firms, 12)
        return _j0_sweep(drift, values, k_realizations, master_seed, "constant_table")
    raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESET_NAMES)}")


PRESET_NAMES = ("fig1", "fig2", "fig3-4", "fig5", "fig6-7", "fig8-9")
