"""Ensemble statistics over default counts: mean, upper semivariance, histogram."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import require_integer


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


def ensemble_stats(nd_values: Iterable[int]) -> EnsembleStats:
    """Mean, upper semivariance and histogram of one ensemble's default counts.

    A count that is not an integer >= 0, or an empty input, raises
    ``ValueError``.  The upper semivariance is the average squared deviation
    above the mean, with a K - 1 denominator: only realizations strictly
    above the mean contribute, and ties add zero.  It is a proxy for
    unexpected-loss risk, large when the distribution has a heavy upper tail
    of collective-default outcomes.  The histogram counts the realizations
    at each default count, in count order.
    """
    values = [require_integer("each of nd_values", value, 0) for value in nd_values]
    if not values:
        raise ValueError("nd_values must hold at least one realization")
    semivariance = None
    if len(values) >= 2:
        array = np.asarray(values, dtype=np.float64)
        deviations = array - array.mean()
        semivariance = float(np.sum(deviations[deviations > 0] ** 2) / (array.size - 1))
    return EnsembleStats(
        nd_values=values,
        mean_nd=float(np.mean(values)),
        semivariance_plus=semivariance,
        histogram=dict(sorted(Counter(values).items())),
    )
