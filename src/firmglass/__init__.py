"""firmglass: Potts-glass simulator and analytics for collective firm defaults.

A portfolio of N firms carries discrete credit ratings that random-walk one
notch per move, absorbed at default; moves are coupled across firms through
a Gaussian interaction matrix.  The package simulates ensembles of such
portfolios, computes default-count risk statistics, and carries the matching
mean-field theory with an exact single-firm Markov oracle.
"""

__version__ = "0.1.0"

from .core import (
    ModelParams,
    RATING_DRIFT_WEIGHTS,
    RealizationOutcome,
    f_table_from_weights,
    run_realization,
)
from .experiment import (
    PRESET_NAMES,
    SweepPoint,
    SweepResult,
    SweepSpec,
    emit,
    preset_spec,
    result_to_json,
    run_ensemble,
    run_sweep,
)
from .meanfield import (
    MeanFieldPoint,
    PhasePrediction,
    closed_form_deviation_grid,
    critical_beta,
    default_fraction_closed_form,
    default_fraction_markov,
    mean_field_fixed_points,
    ordered_phase_default_fraction,
    predict_phase,
    transition_beta,
)
from .riskstats import EnsembleStats, ensemble_stats

__all__ = [
    "EnsembleStats",
    "MeanFieldPoint",
    "ModelParams",
    "PRESET_NAMES",
    "PhasePrediction",
    "RATING_DRIFT_WEIGHTS",
    "RealizationOutcome",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "closed_form_deviation_grid",
    "critical_beta",
    "default_fraction_closed_form",
    "default_fraction_markov",
    "emit",
    "ensemble_stats",
    "f_table_from_weights",
    "mean_field_fixed_points",
    "ordered_phase_default_fraction",
    "predict_phase",
    "preset_spec",
    "result_to_json",
    "run_ensemble",
    "run_realization",
    "run_sweep",
    "transition_beta",
]
