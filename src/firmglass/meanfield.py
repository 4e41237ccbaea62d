"""Mean-field theory of the rating model, plus an exact single-firm oracle.

The mean-field picture replaces a firm's neighbours by two ensemble-wide
probabilities: p_up (a firm's move is +1) and q_down (it is -1).  Iterating
the self-consistency map finds the phase structure: below the critical
effective coupling beta = 3 only the symmetric point (1/3, 1/3) exists; above
it the symmetric point destabilizes and three ordered solutions appear.  The
crossing is exact: the map's Jacobian at (1/3, 1/3) is (beta / 3) * I, so
:func:`critical_beta` returns 3.0 without a numerical search.

The exponent scale ``beta`` is the *effective* coupling.  With couplings of
mean j0 shared by all N firms, a move adopted by a fraction x of the
population contributes j0 * N * x to the exponent, so beta = j0 * n_firms
and the instability sits at the critical mean coupling 3 / N.

The map applies the simulation's heat-bath softmax
(:func:`core.heat_bath_weights`) to the occupied fractions.  Stability comes
from the map's exact 2x2 Jacobian (:func:`mean_field_jacobian`), which needs
no evaluation off the simplex, so fixed points at the ordered corners are
classified for any beta >= 0.

Two independent routes predict the default fraction reached from uniformly
distributed starting ratings:

* :func:`default_fraction_markov` - exact (r_max + 1)-state absorbing-chain
  computation; the ground truth used by tests and the sweep analytics.
* :func:`default_fraction_closed_form` - a printed degree-8 polynomial for
  the paper's portfolio (``core.STEPS`` = 8 steps, ``core.R_MAX`` = 7
  levels) and no other.  NOTE its first argument is the per-step
  *decrease* probability and the second the *increase* probability, i.e.
  the reverse of the markov signature: the closed form evaluates to 1 at
  (1, 0) (all moves down, everyone defaults).  Map mean-field solutions
  into it as ``default_fraction_closed_form(q_down, p_up)``.  The two
  routes agree at the anchor points but deviate in the mid-range;
  :func:`closed_form_deviation_grid` quantifies the gap at that portfolio
  instead of hiding it, and the markov route wins wherever they disagree.

Both routes are evaluated in numpy blocks of (p_up, q_down) pairs; a scalar
call is the one-pair block, so every grid row is bit-identical to it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import R_MAX, STEPS, ModelParams, heat_bath_weights, require_integer

PARAMAGNETIC = "paramagnetic"
FERROMAGNETIC = "ferromagnetic"
SPIN_GLASS = "spin_glass"

_SIMPLEX_TOL = 1e-9
_GRID_BLOCK_ROWS = 512  # a block's (R_MAX + 1)-square matrix stack: exactly 256 KiB

# find_fixed_point's damped iteration: step size, residual bound, iteration cap.
# The cap is sized from measurement: on the beta grid [0, 40] step 0.01 the
# slowest converging start needs 7 119 iterations (beta = 2.99); only within
# about 0.0065 of beta = 3 does a result depend on it (see find_fixed_point).
_DAMPING = 0.5
_TOL = 1e-10
_MAX_ITER = 10_000


def _require_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")


def _require_simplex(prob_up: float, prob_down: float) -> None:
    """Refuse a move-probability pair off the simplex; NaN fails every test."""
    on_simplex = prob_up + prob_down <= 1 + _SIMPLEX_TOL
    if not (prob_up >= 0 and prob_down >= 0 and on_simplex):
        raise ValueError(
            "probabilities must be >= 0 with a sum <= 1, got "
            f"up {prob_up}, down {prob_down}"
        )


@dataclass(frozen=True)
class MeanFieldPoint:
    """A (p_up, q_down) pair at effective coupling beta, with stability."""

    p_up: float
    q_down: float
    beta: float
    stable: bool

    def __post_init__(self) -> None:
        _require_simplex(self.p_up, self.q_down)
        _require_beta(self.beta)


@dataclass(frozen=True)
class PhasePrediction:
    """Phase classification of a parameter point.

    j_critical is the ferromagnetic threshold 3 / N for the mean coupling;
    sigma_glass is the glass threshold 3 / sqrt(N) for the coupling spread.
    """

    j_critical: float
    sigma_glass: float
    regime: str


def mean_field_map(p_up: float, q_down: float, beta: float) -> tuple[float, float]:
    """One application of the self-consistency map.

    The updated (p_up, q_down) are the softmax weights of the three moves
    under exponents beta * (occupied fraction of each move); the stay
    fraction is 1 - p_up - q_down.  The weights come from
    :func:`heat_bath_weights`, whose max shift makes any beta >= 0 safe.
    """
    if not p_up + q_down <= 1 + _SIMPLEX_TOL:  # NaN fails this test too
        raise ValueError(f"p_up + q_down must be <= 1, got {p_up + q_down}")
    ea, eb, ec = heat_bath_weights(
        beta * p_up, beta * q_down, beta * (1.0 - p_up - q_down)
    )
    z = ea + eb + ec
    return ea / z, eb / z


def mean_field_jacobian(p_up: float, q_down: float, beta: float) -> np.ndarray:
    """Exact 2x2 Jacobian of the map at (p_up, q_down).

    With (u, d) the map's value and s = 1 - u - d, the softmax derivatives
    through the exponents beta * p_up, beta * q_down and
    beta * (1 - p_up - q_down) give
    beta * [[u (1 - u + s), -u (d - s)], [-d (u - s), d (1 - d + s)]].
    """
    u, d = mean_field_map(p_up, q_down, beta)
    s = 1.0 - u - d
    return beta * np.array(
        [[u * (1.0 - u + s), -u * (d - s)], [-d * (u - s), d * (1.0 - d + s)]]
    )


def find_fixed_point(
    p_start: float, q_start: float, beta: float
) -> tuple[float, float] | None:
    """Damped fixed-point iteration from one start; None if it does not converge.

    Each iterate moves the fraction ``_DAMPING`` of the way to its image.
    Returns a point whose residual ||map(x) - x||_inf is below ``_TOL``, or
    None if no iterate reaches that within ``_MAX_ITER`` (10 000) iterations.
    A start off the simplex or a beta that is not finite and >= 0 is refused.

    The budget covers every converging start of :func:`mean_field_fixed_points`
    on the beta grid [0, 40] step 0.01 (the slowest needs 7 119 iterations,
    at beta = 2.99).  At beta = 3 the symmetric point's Jacobian is the
    identity, the iteration slows down critically, and three starts run out
    of budget.  So within about 0.0065 of beta = 3 the result depends on the
    budget: just below 3 a slow start may return None where a larger budget
    would return a copy of (1/3, 1/3) up to 6e-7 off; just above 3, up to
    about 3.006, the unstable fixed point on the p = q line is not resolved.
    """
    _require_simplex(p_start, q_start)
    _require_beta(beta)
    p, q = p_start, q_start
    for _ in range(_MAX_ITER):
        p_next, q_next = mean_field_map(p, q, beta)
        res_p = p_next - p
        res_q = q_next - q
        if max(abs(res_p), abs(res_q)) < _TOL:
            return p, q
        p += _DAMPING * res_p
        q += _DAMPING * res_q
    return None


def mean_field_fixed_points(beta: float) -> list[MeanFieldPoint]:
    """All distinct fixed points found from a simplex grid of starts.

    Starts are the (p, q) grid with both coordinates on 7 equispaced levels
    in [0, 1] and p + q <= 1 (28 starts, which include the symmetric point
    1/3); each runs :func:`find_fixed_point`.  Duplicates closer than 1e-6
    are merged; non-convergent starts are dropped.
    Stability is the spectral radius of the exact Jacobian being < 1.
    A beta that is not finite and >= 0 is refused, not iterated.
    """
    _require_beta(beta)
    levels = np.linspace(0.0, 1.0, 7).tolist()
    found: list[tuple[float, float]] = []
    for p0 in levels:
        for q0 in levels:
            if p0 + q0 > 1 + _SIMPLEX_TOL:
                continue
            fp = find_fixed_point(p0, q0, beta)
            if fp is None:
                continue
            if any(
                abs(fp[0] - p) < 1e-6 and abs(fp[1] - q) < 1e-6 for p, q in found
            ):
                continue
            found.append(fp)
    points = []
    for p, q in found:
        eigenvalues = np.linalg.eigvals(mean_field_jacobian(p, q, beta))
        radius = float(np.max(np.abs(eigenvalues)))
        points.append(
            MeanFieldPoint(p_up=p, q_down=q, beta=beta, stable=radius < 1.0)
        )
    return points


def critical_beta() -> float:
    """The beta where the symmetric point loses stability: exactly 3.

    At (1/3, 1/3) the map returns u = d = s = 1/3, so the exact Jacobian
    (:func:`mean_field_jacobian`) is (beta / 3) * I; its spectral radius
    beta / 3 crosses 1 at beta = 3, i.e. at j_critical = 3 / n_firms.
    """
    return 3.0


def predict_phase(params: ModelParams) -> PhasePrediction:
    """Classify a parameter point by the 3/sqrt(N) and 3/N thresholds."""
    j_critical = critical_beta() / params.n_firms
    sigma_glass = 3.0 / math.sqrt(params.n_firms)
    if params.sigma_j >= sigma_glass:
        regime = SPIN_GLASS
    elif params.j0 > j_critical:
        regime = FERROMAGNETIC
    else:
        regime = PARAMAGNETIC
    return PhasePrediction(
        j_critical=j_critical, sigma_glass=sigma_glass, regime=regime
    )


# --------------------------------------------------------------------------
# Exact single-firm rating chain (the oracle) and the printed closed form
# --------------------------------------------------------------------------


def _transition_matrices(ups: np.ndarray, downs: np.ndarray, r_max: int) -> np.ndarray:
    """Stack of one-move rating transition matrices, one per (up, down) pair."""
    require_integer("r_max", r_max, 1)
    matrices = np.zeros((len(ups), r_max + 1, r_max + 1))
    rated = np.arange(1, r_max + 1)
    matrices[:, 0, 0] = 1.0
    matrices[:, rated[:-1], rated[:-1] + 1] = ups[:, None]
    matrices[:, rated, rated - 1] = downs[:, None]
    matrices[:, rated, rated] = (1.0 - ups - downs)[:, None]
    matrices[:, r_max, r_max] = 1.0 - downs  # an up-move at r_max reflects
    return matrices


def _default_fractions(
    ups: np.ndarray, downs: np.ndarray, steps: int, r_max: int
) -> np.ndarray:
    """The markov route's default fraction, one per (up, down) pair."""
    require_integer("steps", steps, 0)
    evolved = np.linalg.matrix_power(_transition_matrices(ups, downs, r_max), steps)
    return evolved[:, 1:, 0].mean(axis=1)


def rating_transition_matrix(
    prob_up: float, prob_down: float, r_max: int = R_MAX
) -> np.ndarray:
    """(r_max + 1)-state one-move transition matrix of a lone firm's rating.

    Up with prob_up, down with prob_down, stay otherwise; state 0 absorbs,
    an up-move at r_max reflects (the firm stays put).
    """
    _require_simplex(prob_up, prob_down)
    return _transition_matrices(np.array([prob_up]), np.array([prob_down]), r_max)[0]


def default_fraction_markov(
    prob_up: float, prob_down: float, steps: int = STEPS, r_max: int = R_MAX
) -> float:
    """Exact default fraction of independent firms after ``steps`` moves.

    Starts uniform over the non-default classes {1, ..., r_max}, applies the
    rating chain ``steps`` times and returns the probability mass absorbed
    at 0 (averaged over the start classes, which keeps the deterministic
    corner cases exact in floating point).
    """
    _require_simplex(prob_up, prob_down)
    ups, downs = np.array([prob_up]), np.array([prob_down])
    return float(_default_fractions(ups, downs, steps, r_max)[0])


# Bracket coefficients of the printed degree-8 closed form, one entry per
# power of the second argument; each value lists the polynomial in the first
# argument, highest power first (np.polyval order).
_CLOSED_FORM_BRACKETS: dict[int, list[float]] = {
    7: [1, 0],
    6: [-14, 1, 0],
    5: [12, 1, 0],
    4: [70, -80, 10, 1, 0],
    3: [70, -120, 40, 8, 1, 0],
    2: [30, -60, 24, 6, 1, 0],
    1: [-21, 80, -102, 32, 12, 4, 1, 0],
    0: [-7, 21, -24, 2, 8, 4, 2, 1, 0],
}


def _closed_form_values(downs: np.ndarray, ups: np.ndarray) -> np.ndarray:
    """The printed closed form per (down, up) pair; argument order as below."""
    total = np.zeros(len(ups))
    for power, coefficients in _CLOSED_FORM_BRACKETS.items():
        # Python's float ** keeps the scalar rounding; numpy's power differs
        # from it in the last ulp on some rows, which changes the archived grid
        up_power = np.array([up**power for up in ups.tolist()])
        total += np.polyval(coefficients, downs) * up_power
    return total / 7.0


def default_fraction_closed_form(prob_down: float, prob_up: float) -> float:
    """Printed degree-8 default fraction for the 8-step, 7-level portfolio.

    Argument order: decrease probability first (see the module docstring).
    Every term carries a factor of prob_down, so the value is 0 whenever
    prob_down = 0, and it is exactly 1 at (1, 0).
    """
    _require_simplex(prob_up, prob_down)
    return float(_closed_form_values(np.array([prob_down]), np.array([prob_up]))[0])


def ordered_phase_default_fraction(steps: int = STEPS, r_max: int = R_MAX) -> float:
    """Default fraction averaged over the three fully ordered outcomes.

    The ordered solutions (all stay, all up, all down) are equally likely by
    symmetry; only the all-down one defaults everybody, so for steps >= r_max
    the average is exactly 1/3.
    """
    corners = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    return (
        sum(default_fraction_markov(p, q, steps, r_max) for p, q in corners) / 3.0
    )


def _deviation_grid_rows(
    grid_step: float,
) -> Iterator[tuple[float, float, float, float, float]]:
    """The rows of :func:`closed_form_deviation_grid`, built lazily.

    The step is checked on the call, before any row; a caller that streams
    the rows holds one numpy block at a time, never the whole grid.
    """
    if not 1e-3 <= grid_step <= 1:
        raise ValueError(f"grid_step must be in [0.001, 1], got {grid_step}")
    n_levels = round(1.0 / grid_step)
    up_index, down_end = np.triu_indices(n_levels + 1)
    return _deviation_blocks(up_index / n_levels, (down_end - up_index) / n_levels)


def _deviation_blocks(
    p_up: np.ndarray, q_down: np.ndarray
) -> Iterator[tuple[float, float, float, float, float]]:
    for start in range(0, len(p_up), _GRID_BLOCK_ROWS):
        ups = p_up[start:start + _GRID_BLOCK_ROWS]
        downs = q_down[start:start + _GRID_BLOCK_ROWS]
        markov = _default_fractions(ups, downs, STEPS, R_MAX)
        closed = _closed_form_values(downs, ups)
        columns = (ups, downs, markov, closed, np.abs(markov - closed))
        yield from zip(*(column.tolist() for column in columns))


def closed_form_deviation_grid(
    grid_step: float = 0.1,
) -> list[tuple[float, float, float, float, float]]:
    """Markov-vs-closed-form comparison on a simplex grid.

    Returns rows (p_up, q_down, markov, closed_form, abs_deviation) of floats,
    p_up-major, for all grid points with p_up + q_down <= 1; they are computed
    in numpy blocks.  Both routes run at (STEPS, R_MAX), the only portfolio
    the printed polynomial describes.  The closed form is evaluated with its
    reversed argument convention, i.e. at (q_down, p_up).  Steps below 1e-3
    (501 501 rows) are refused.
    """
    return list(_deviation_grid_rows(grid_step))
