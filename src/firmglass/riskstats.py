"""Ensemble statistics over default counts: mean, upper semivariance, histogram."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import require_integer


def mean_nd(nd_values: Sequence[int]) -> float:
    """Arithmetic mean of default counts over realizations."""
    if len(nd_values) == 0:
        raise ValueError("mean_nd needs at least one realization")
    return float(np.mean(nd_values))


def upper_semivariance(nd_values: Sequence[int]) -> float:
    """Average squared deviation above the mean, with a K - 1 denominator.

    Only realizations strictly above the mean contribute; ties add zero.
    A proxy for unexpected-loss risk: large when the distribution has a
    heavy upper tail of collective-default outcomes.
    """
    values = np.asarray(nd_values, dtype=np.float64)
    if values.size < 2:
        raise ValueError("upper_semivariance needs at least two realizations")
    deviations = values - values.mean()
    return float(np.sum(deviations[deviations > 0] ** 2) / (values.size - 1))


def histogram(nd_values: Sequence[int], bin_width: int = 1) -> dict[int, int]:
    """Counts per integer bin index, bin b covering [b * width, (b + 1) * width)."""
    require_integer("bin_width", bin_width, 1)
    counts = Counter(int(v) // int(bin_width) for v in nd_values)
    return dict(sorted(counts.items()))


@dataclass
class EnsembleStats:
    """Aggregate of one ensemble's default counts.

    ``nd_values`` keeps the per-realization counts in realization-index
    order (reproducible reduction order).  ``semivariance_plus`` is None for
    single-realization ensembles, where it is undefined.
    """

    nd_values: list[int]
    mean_nd: float
    semivariance_plus: float | None
    histogram: dict[int, int]
    bin_width: int = 1


def ensemble_stats(nd_values: Sequence[int], bin_width: int = 1) -> EnsembleStats:
    """Bundle mean, upper semivariance and histogram for a list of counts."""
    values = [int(v) for v in nd_values]
    return EnsembleStats(
        nd_values=values,
        mean_nd=mean_nd(values),
        semivariance_plus=upper_semivariance(values) if len(values) >= 2 else None,
        histogram=histogram(values, bin_width),
        bin_width=int(bin_width),
    )
