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
    zero_f_table,
)
from .experiment import (
    PRESET_NAMES,
    SweepPoint,
    SweepResult,
    SweepSpec,
    emit,
    preset_spec,
    result_from_json,
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
    effective_beta,
    mean_field_fixed_points,
    ordered_phase_default_fraction,
    predict_phase,
    rating_transition_matrix,
)
from .riskstats import (
    EnsembleStats,
    ensemble_stats,
    histogram,
    mean_nd,
    upper_semivariance,
)

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
    "effective_beta",
    "emit",
    "ensemble_stats",
    "f_table_from_weights",
    "histogram",
    "mean_field_fixed_points",
    "mean_nd",
    "ordered_phase_default_fraction",
    "predict_phase",
    "preset_spec",
    "rating_transition_matrix",
    "result_from_json",
    "result_to_json",
    "run_ensemble",
    "run_realization",
    "run_sweep",
    "upper_semivariance",
    "zero_f_table",
]
