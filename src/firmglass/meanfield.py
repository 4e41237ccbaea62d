"""Mean-field theory of the rating model, plus an exact single-firm oracle.

The mean-field picture replaces a firm's neighbours by two ensemble-wide
probabilities: p_up (a firm's move is +1) and q_down (it is -1).  The fixed
points of the self-consistency map give the phase structure, with three
constants:

* below the spinodal beta_s ~ 2.7456 the symmetric point (1/3, 1/3) is the
  only fixed point;
* above it there are 7: the symmetric point, 3 ordered points (one move
  dominates; stable) and 3 saddles (unstable).  The ordered points have the
  lower free energy above the first-order point 4 ln 2 ~ 2.7726
  (:func:`transition_beta`);
* the symmetric point loses stability at beta = 3.  The crossing is exact:
  the map's Jacobian at (1/3, 1/3) is (beta / 3) * I, so
  :func:`critical_beta` returns 3.0 without a numerical search.  At beta = 3
  exactly the saddles merge into the symmetric point, which leaves 4 fixed
  points.

:func:`mean_field_fixed_points` finds every fixed point from one scalar
root equation, bracketed at its own extrema, with no start points, no
iteration budget and no scan grid; its docstring gives the method and the
output order.  A point's stability follows from the kind of root it comes
from alone: the symmetric point is stable iff beta < 3, the ordered points
always, the saddles never.  A stable point is a local minimum of the free
energy (Wu, Rev. Mod. Phys. 54, 235 (1982)); the docstring proves the rule,
so no Jacobian is built and no float rounding can flip a flag.

The exponent scale ``beta`` is the *effective* coupling.  With couplings of
mean j0 shared by all N firms, a move adopted by a fraction x of the
population contributes j0 * N * x to the exponent, so beta = j0 * n_firms
and the instability sits at the critical mean coupling 3 / N.

The map applies the simulation's heat-bath softmax
(:func:`core.heat_bath_weights`) to the occupied fractions.

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
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import R_MAX, STEPS, ModelParams, heat_bath_weights, require_integer

PARAMAGNETIC = "paramagnetic"
FERROMAGNETIC = "ferromagnetic"
SPIN_GLASS = "spin_glass"

_SIMPLEX_TOL = 1e-9
_BLOCK_FLOATS = 1 << 15  # 256 KiB of matrix stack per block: 512 pairs at R_MAX

_EXP_CAP = 709.0  # exp() of a larger exponent overflows a float
# above ~2.74e307 the capped g stays negative at its maximum, and the
# ordered and saddle roots would be lost
_BETA_MAX = 1e300


def _require_beta(beta: float) -> None:
    if not 0 <= beta <= _BETA_MAX:  # NaN fails the comparison
        raise ValueError(f"beta must be in [0, {_BETA_MAX:g}], got {beta}")


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
    A pair off the simplex (NaN included) or a beta outside [0, 1e300]
    (NaN included) is refused.
    """
    _require_simplex(p_up, q_down)
    _require_beta(beta)
    ea, eb, ec = heat_bath_weights(
        beta * p_up, beta * q_down, beta * (1.0 - p_up - q_down)
    )
    z = ea + eb + ec
    return ea / z, eb / z


def _g(a: float, beta: float) -> float:
    """g(a) = a * (2 + exp(beta * (1 - 3a))) - 1, the fixed-point equation.

    It is evaluated as 3x + a * expm1(-3 * beta * x) with x = a - 1/3.  Near
    beta = 3, g between the saddle root and 1/3 is smaller than the rounding
    of the form above; this one keeps its digits there.  x is exact for a
    in [1/6, 2/3] (Sterbenz), and g(1/3) is exactly 0.0.  The exponent is
    capped below float overflow; the cap can change the sign of g only where
    a * exp(709) < 2, i.e. for a < 2.5e-308, so it moves a root (near
    exp(-beta) once beta > 709) by less than that.
    """
    x = a - 1.0 / 3.0
    exponent = -3.0 * beta * x
    if exponent > _EXP_CAP:  # a conditional, as builtin min costs more than exp
        exponent = _EXP_CAP
    return 3.0 * x + a * math.expm1(exponent)


def _g_slope(a: float, beta: float) -> float:
    """g'(a) = 2 + exp(beta * (1 - 3a)) * (1 - 3 * beta * a), capped as in g."""
    exponent = beta * (1.0 - 3.0 * a)
    if exponent > _EXP_CAP:
        exponent = _EXP_CAP
    return 2.0 + math.exp(exponent) * (1.0 - 3.0 * beta * a)


def _bisect(f: Callable[[float, float], float], lo: float, hi: float,
            lo_negative: bool, beta: float) -> float:
    """The zero of f(., beta) in [lo, hi], halving until the midpoint is an
    endpoint; f(lo) < 0 <= f(hi) if ``lo_negative``, else f(lo) > 0 >= f(hi)."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        value = f(mid, beta)
        if value == 0.0:
            return mid
        if (value < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid


def _roots_off_third(beta: float) -> list[float]:
    """The roots a != 1/3 of g on [0, 1/2], ascending.

    g'' has the sign of 3 * beta * a - 2, so g' is smallest at 2/(3 beta),
    where it is 2 - exp(beta - 2): up to beta = 2 + ln 2 g only increases.
    Above, g' has one zero on each side of 2/(3 beta), g's maximum ``peak``
    and its minimum ``dip``.  g(peak) <= 0 below the spinodal; otherwise
    g(0) = -1 brackets the ordered root in [0, peak].  As g'(1/3) = 3 - beta,
    1/3 lies after dip below 3 and before it above 3, so g(dip) < 0 for
    every beta != 3 and is never computed: the saddle root is in [peak, dip]
    below 3 and in [dip, 1/2] above it (g(1/2) >= 0).  At 3, 1/3 is the
    double root dip, and there is no saddle.
    """
    if beta <= 2.0 + math.log(2.0):
        return []
    turn = 2.0 / (3.0 * beta)
    peak = _bisect(_g_slope, 0.0, turn, False, beta)
    if _g(peak, beta) <= 0.0:
        return []
    ordered = _bisect(_g, 0.0, peak, True, beta)
    if beta == 3.0:
        return [ordered]
    dip = _bisect(_g_slope, turn, 0.5, True, beta)
    if beta < 3.0:
        return [ordered, _bisect(_g, peak, dip, False, beta)]
    return [ordered, _bisect(_g, dip, 0.5, True, beta)]


def mean_field_fixed_points(beta: float) -> list[MeanFieldPoint]:
    """Every fixed point of the map at ``beta``, each with its stability.

    At a fixed point every move fraction x solves x * exp(-beta * x) = 1/Z,
    and t -> t * exp(-beta * t) takes each value at most twice, so the
    fractions are (a, a, 1 - 2a) in some order with a a root of
    g(a) = a * (2 + exp(beta * (1 - 3a))) - 1 on [0, 1/2].  a = 1/3 is a
    root for every beta (g(1/3) == 0.0 in floats) and gives the symmetric
    point; the other roots are bisected between g's extrema
    (:func:`_roots_off_third`), so none depends on a start, a budget or a grid.

    Output order: the symmetric point (1/3, 1/3) first; then, for each root
    a != 1/3 in increasing order, (a, a) (stay is the odd move),
    (1 - 2a, a) (up) and (a, 1 - 2a) (down).  That gives 1 point below the
    spinodal beta_s ~ 2.7456, 7 above it (at beta = 3 exactly, where 1/3 is
    a double root, 4).  A beta outside [0, 1e300] (NaN included) is refused.

    Stability comes from the kind of root alone: the symmetric point is
    stable iff beta < 3, the ordered root's three points (the smaller root)
    always, the saddle root's never.  Proof: on the move fractions x the
    map's Jacobian is J = beta * (D - x x^T) with D = diag(x), and on the
    plane sum(v) = 0 it holds that (D - x x^T) D^-1 v = v.  So the spectral
    radius is < 1 iff v^T D^-1 v > beta * |v|^2 there, i.e. iff the Hessian
    of the free energy -(beta / 2) sum x^2 + sum x ln x is positive definite
    on the plane.  At (a, a, 1 - 2a) the directions (1, -1, 0) and
    (1, 1, -2) diagonalize that form; their values give 1 / a > beta and
    g'(a) = 1 / a - 3 beta (1 - 2a) > 0.  The symmetric point (g'(1/3) =
    3 - beta) meets both iff beta < 3.  The ordered root meets both, as
    a < 2 / (3 beta) and g rises through it; the saddle fails the second
    below 3 (g falls through it) and the first above 3 (a > 1/3).
    """
    _require_beta(beta)
    scalar = float(beta)  # numpy scalars bisect slowly and make numpy bools; store floats
    third = 1.0 / 3.0
    points = [MeanFieldPoint(p_up=third, q_down=third, beta=scalar, stable=scalar < 3.0)]
    for a, stable in zip(_roots_off_third(scalar), (True, False)):
        b = 1.0 - 2.0 * a
        points += [MeanFieldPoint(p_up=p, q_down=q, beta=scalar, stable=stable)
                   for p, q in ((a, a), (b, a), (a, b))]
    return points


def critical_beta() -> float:
    """The beta where the symmetric point loses stability: exactly 3.

    At (1/3, 1/3) the map's Jacobian is (beta / 3) * I, so its spectral
    radius beta / 3 crosses 1 at beta = 3, i.e. at j_critical = 3 / n_firms.
    Below 3 the symmetric point is a minimum of the free energy and above
    it a maximum; :func:`mean_field_fixed_points` sets its ``stable`` flag
    by that comparison alone.
    """
    return 3.0


def transition_beta() -> float:
    """The first-order transition: exactly 4 ln 2 ~ 2.7726.

    Above the spinodal beta_s ~ 2.7456 an ordered minimum exists beside the
    symmetric one; at 4 ln 2 their free energies
    -(beta / 2) * sum x^2 + sum x ln x cross, and the ordered minimum is
    (1/6, 1/6, 2/3).  This is the q = 3 case of the mean-field Potts value
    2 (q - 1) ln(q - 1) / (q - 2) (Wu, Rev. Mod. Phys. 54, 235 (1982)).
    """
    return 4.0 * math.log(2.0)


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


@lru_cache(maxsize=1)
def _transition_template(r_max: int) -> np.ndarray:
    """Where each entry of a flattened transition matrix comes from: an index
    into a pair's row (0, 1, up, down, stay, 1 - down) of
    :func:`_transition_matrices`.  Read-only, as every call shares it."""
    template = np.zeros((r_max + 1, r_max + 1), dtype=np.intp)
    rated = np.arange(1, r_max + 1)
    template[0, 0] = 1
    template[rated[:-1], rated[:-1] + 1] = 2
    template[rated, rated - 1] = 3
    template[rated, rated] = 4
    template[r_max, r_max] = 5  # an up-move at r_max reflects
    template = template.ravel()
    template.setflags(write=False)
    return template


def _transition_matrices(ups: np.ndarray, downs: np.ndarray, r_max: int) -> np.ndarray:
    """Stack of one-move rating transition matrices, one per (up, down) pair,
    gathered from each pair's six distinct entries; the callers check r_max."""
    values = np.empty((len(ups), 6))
    columns = values.T
    columns[0] = 0.0
    columns[1] = 1.0
    columns[2] = ups
    columns[3] = downs
    np.subtract(1.0, ups, out=columns[4])
    columns[4] -= downs  # stay = (1 - up) - down, the scalar rounding
    np.subtract(1.0, downs, out=columns[5])
    return values[:, _transition_template(r_max)].reshape(-1, r_max + 1, r_max + 1)


def _default_fractions(
    ups: np.ndarray, downs: np.ndarray, steps: int, r_max: int
) -> np.ndarray:
    """The markov route's default fraction, one per (up, down) pair, in
    blocks whose matrix stack holds at most ``_BLOCK_FLOATS`` floats."""
    require_integer("steps", steps, 0)
    require_integer("r_max", r_max, 1)
    block = max(1, _BLOCK_FLOATS // (r_max + 1) ** 2)
    levels = np.empty(len(ups))
    for start in range(0, len(ups), block):
        stop = start + block
        matrices = _transition_matrices(ups[start:stop], downs[start:stop], r_max)
        # numpy's own multiplication order: a squaring loop of our own
        # differs from it in the last bit at steps = 3
        evolved = np.linalg.matrix_power(matrices, steps)
        evolved[:, 1:, 0].sum(axis=1, out=levels[start:stop])
    levels /= r_max  # the mean over start classes, divided as ndarray.mean does
    return levels


def rating_transition_matrix(
    prob_up: float, prob_down: float, r_max: int = R_MAX
) -> np.ndarray:
    """(r_max + 1)-state one-move transition matrix of a lone firm's rating.

    Up with prob_up, down with prob_down, stay otherwise; state 0 absorbs,
    an up-move at r_max reflects (the firm stays put).
    """
    _require_simplex(prob_up, prob_down)
    require_integer("r_max", r_max, 1)
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
    distinct, position = np.unique(ups, return_inverse=True)
    bases = distinct.tolist()
    total = np.zeros(len(ups))
    for power, coefficients in _CLOSED_FORM_BRACKETS.items():
        # Python's float ** keeps the scalar rounding; numpy's power differs
        # from it in the last ulp on some rows, which changes the archived grid.
        # Each distinct up is raised once (a grid block repeats a few of them).
        up_power = np.array([up**power for up in bases])[position]
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
    if abs(n_levels * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step must divide 1, got {grid_step}")
    up_index, down_end = np.triu_indices(n_levels + 1)
    return _deviation_blocks(up_index / n_levels, (down_end - up_index) / n_levels)


def _deviation_blocks(
    p_up: np.ndarray, q_down: np.ndarray
) -> Iterator[tuple[float, float, float, float, float]]:
    block = _BLOCK_FLOATS // (R_MAX + 1) ** 2
    for start in range(0, len(p_up), block):
        ups = p_up[start:start + block]
        downs = q_down[start:start + block]
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
    (501 501 rows) are refused, as is a step whose inverse is not an integer.
    """
    return list(_deviation_grid_rows(grid_step))
