"""Tests for the mean-field theory and the exact rating-chain computations."""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from firmglass.core import ModelParams
from firmglass.meanfield import (
    MeanFieldPoint,
    closed_form_deviation_grid,
    critical_beta,
    default_fraction_closed_form,
    default_fraction_markov,
    find_fixed_point,
    mean_field_fixed_points,
    mean_field_jacobian,
    mean_field_map,
    ordered_phase_default_fraction,
    predict_phase,
    rating_transition_matrix,
    symmetric_point_radius,
)

# ---------------------------------------------------------------------------
# self-consistency map and fixed points
# ---------------------------------------------------------------------------


def test_map_with_zero_coupling_is_uniform():
    for p, q in [(0.0, 0.0), (0.9, 0.05), (0.2, 0.7), (1.0, 0.0)]:
        assert mean_field_map(p, q, 0.0) == (1 / 3, 1 / 3)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0, 10.0, 100.0])
def test_symmetric_point_always_fixed(beta):
    p, q = mean_field_map(1 / 3, 1 / 3, beta)
    assert abs(p - 1 / 3) < 1e-12
    assert abs(q - 1 / 3) < 1e-12


def test_map_rejects_points_outside_simplex():
    with pytest.raises(ValueError):
        mean_field_map(0.7, 0.7, 1.0)


def test_strong_coupling_orders_from_asymmetric_start():
    # plain damped iteration, independent of the multi-start search
    p, q = 0.5, 0.25
    for _ in range(10_000):
        p_next, q_next = mean_field_map(p, q, 10.0)
        p += 0.5 * (p_next - p)
        q += 0.5 * (q_next - q)
    assert p > 0.9
    assert abs(mean_field_map(p, q, 10.0)[0] - p) < 1e-9


def test_fixed_points_zero_coupling():
    points = mean_field_fixed_points(0.0)
    assert len(points) == 1
    only = points[0]
    assert only.p_up == pytest.approx(1 / 3, abs=1e-9)
    assert only.q_down == pytest.approx(1 / 3, abs=1e-9)
    assert only.stable


@pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
def test_fixed_points_refuse_a_beta_that_is_not_finite_and_non_negative(beta):
    started = time.perf_counter()
    with pytest.raises(ValueError, match="beta"):
        mean_field_fixed_points(beta)
    assert time.perf_counter() - started < 1.0  # refused, not iterated


def test_fixed_points_strong_coupling():
    points = mean_field_fixed_points(10.0)
    # residual guarantee for every returned point
    for point in points:
        mapped = mean_field_map(point.p_up, point.q_down, 10.0)
        assert max(abs(mapped[0] - point.p_up), abs(mapped[1] - point.q_down)) < 1e-10
        assert point.p_up + point.q_down <= 1 + 1e-9

    def find(predicate):
        matches = [pt for pt in points if predicate(pt)]
        assert matches, f"no fixed point matching {predicate}"
        return matches[0]

    symmetric = find(lambda pt: abs(pt.p_up - 1 / 3) < 1e-6 and abs(pt.q_down - 1 / 3) < 1e-6)
    assert not symmetric.stable
    up_ordered = find(lambda pt: pt.p_up > 0.99)
    down_ordered = find(lambda pt: pt.q_down > 0.99)
    stay_ordered = find(lambda pt: pt.p_up < 0.01 and pt.q_down < 0.01)
    assert up_ordered.stable and down_ordered.stable and stay_ordered.stable


@pytest.mark.parametrize("beta", [14.0, 20.0, 40.0])
def test_fixed_points_deep_in_the_ordered_phase(beta):
    # the ordered corners sit on the simplex edge, where a finite-difference
    # Jacobian would have to step outside the simplex
    points = mean_field_fixed_points(beta)
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    stable = sorted((pt.p_up, pt.q_down) for pt in points if pt.stable)
    assert len(stable) == 3
    for (p, q), (p_corner, q_corner) in zip(stable, sorted(corners)):
        assert abs(p - p_corner) < 1e-5 and abs(q - q_corner) < 1e-5
    symmetric = [pt for pt in points
                 if abs(pt.p_up - 1 / 3) < 1e-6 and abs(pt.q_down - 1 / 3) < 1e-6]
    assert len(symmetric) == 1 and not symmetric[0].stable


def central_difference_jacobian(p_up, q_down, beta, step=1e-6):
    jac = np.empty((2, 2))
    for col, (dp, dq) in enumerate(((step, 0.0), (0.0, step))):
        plus = mean_field_map(p_up + dp, q_down + dq, beta)
        minus = mean_field_map(p_up - dp, q_down - dq, beta)
        jac[0, col] = (plus[0] - minus[0]) / (2 * step)
        jac[1, col] = (plus[1] - minus[1]) / (2 * step)
    return jac


@pytest.mark.parametrize("beta", [0.5, 3.5, 10.0])
def test_exact_jacobian_matches_central_differences(beta):
    for p, q in [(1 / 3, 1 / 3), (0.2, 0.5), (0.6, 0.1), (0.05, 0.05), (0.45, 0.45)]:
        np.testing.assert_allclose(
            mean_field_jacobian(p, q, beta),
            central_difference_jacobian(p, q, beta),
            rtol=0, atol=1e-8,
        )


def test_non_convergent_start_reports_none():
    assert find_fixed_point(0.5, 0.25, 10.0, max_iter=3) is None


def test_symmetric_stability_crossing():
    assert symmetric_point_radius(2.99) < 1.0
    assert symmetric_point_radius(3.01) > 1.0


def test_critical_beta_value():
    # the bisection bracket [1, 5] holds the crossing
    assert symmetric_point_radius(1.0) < 1.0 < symmetric_point_radius(5.0)
    assert abs(critical_beta() - 3.0) <= 0.01


def test_fixed_points_hold_floats():
    for beta in (0.0, 2.0, 6.0, 40.0):
        for point in mean_field_fixed_points(beta):
            assert type(point.p_up) is float and type(point.q_down) is float
            assert type(point.beta) is float and type(point.stable) is bool


def test_meanfield_point_validation():
    with pytest.raises(ValueError):
        MeanFieldPoint(p_up=0.8, q_down=0.3, beta=1.0, stable=True)
    with pytest.raises(ValueError):
        MeanFieldPoint(p_up=0.2, q_down=0.2, beta=-1.0, stable=True)


# ---------------------------------------------------------------------------
# phase classification
# ---------------------------------------------------------------------------


def test_predict_phase_reference_points():
    weak = predict_phase(ModelParams(n_firms=1000, j0=0.0001, sigma_j=0.001))
    assert weak.regime == "paramagnetic"
    strong = predict_phase(ModelParams(n_firms=1000, j0=0.02, sigma_j=0.001))
    assert strong.regime == "ferromagnetic"
    disordered = predict_phase(ModelParams(n_firms=1000, j0=0.0, sigma_j=0.2))
    assert disordered.regime == "spin_glass"
    assert weak.j_critical == 3.0 / 1000
    assert weak.sigma_glass == 3.0 / math.sqrt(1000)


# ---------------------------------------------------------------------------
# exact rating chain
# ---------------------------------------------------------------------------


def test_transition_matrix_structure():
    matrix = rating_transition_matrix(0.2, 0.3, r_max=7)
    assert matrix.shape == (8, 8)
    np.testing.assert_allclose(matrix.sum(axis=1), np.ones(8), rtol=0, atol=1e-12)
    assert matrix[0, 0] == 1.0
    assert matrix[7, 7] == 1.0 - 0.3  # up-move at the top reflects into staying
    assert np.all(matrix >= 0)
    with pytest.raises(ValueError):
        rating_transition_matrix(0.8, 0.3)
    with pytest.raises(ValueError):
        rating_transition_matrix(-0.1, 0.3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: default_fraction_markov(math.nan, 0.0),
        lambda: default_fraction_markov(0.2, 0.2, r_max=True),
        lambda: default_fraction_markov(0.2, 0.2, steps=2.5),
        lambda: rating_transition_matrix(0.1, math.nan),
    ],
    ids=["nan-up", "bool-r_max", "fractional-steps", "nan-down"],
)
def test_chain_refuses_bad_input(call):
    with pytest.raises(ValueError):
        call()


def test_markov_corner_cases():
    assert default_fraction_markov(0.0, 1.0, steps=8, r_max=7) == 1.0
    assert default_fraction_markov(1.0, 0.0, steps=8, r_max=7) == 0.0
    assert default_fraction_markov(0.0, 0.0, steps=8, r_max=7) == 0.0
    # only starts 1..3 can reach default within 3 all-down moves
    assert default_fraction_markov(0.0, 1.0, steps=3, r_max=7) == 3 / 7


def test_markov_symmetric_level():
    assert abs(default_fraction_markov(1 / 3, 1 / 3, 8, 7) - 0.202) <= 0.001


def test_markov_against_independent_recursion():
    # path-recursion cross-check, independent of the matrix-power route
    def absorbed(prob_up, prob_down, r_max):
        @lru_cache(maxsize=None)
        def prob(level, moves_left):
            if level == 0:
                return 1.0
            if moves_left == 0:
                return 0.0
            up = prob(min(level + 1, r_max), moves_left - 1)
            down = prob(level - 1, moves_left - 1)
            stay = prob(level, moves_left - 1)
            return (
                prob_up * up
                + prob_down * down
                + (1.0 - prob_up - prob_down) * stay
            )

        return sum(prob(r, 8) for r in range(1, r_max + 1)) / r_max

    rng = np.random.default_rng(16)
    for _ in range(25):
        p = float(rng.uniform(0, 1))
        q = float(rng.uniform(0, 1 - p))
        assert default_fraction_markov(p, q, 8, 7) == pytest.approx(
            absorbed(p, q, 7), abs=1e-12
        )


def test_markov_monotone_in_down_probability():
    for p_up in np.arange(0.0, 1.0001, 0.05):
        previous = -1.0
        for q_down in np.arange(0.0, 1.0001 - p_up, 0.05):
            value = default_fraction_markov(float(p_up), float(q_down))
            assert value >= previous - 1e-12
            previous = value


def test_markov_mass_conservation():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = float(rng.uniform(0, 1))
        q = float(rng.uniform(0, 1 - p))
        matrix = rating_transition_matrix(p, q)
        evolved = np.linalg.matrix_power(matrix, 8)
        survival = evolved[1:, 1:].sum(axis=1).mean()
        defaulted = default_fraction_markov(p, q)
        assert abs(defaulted + survival - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# printed closed form
# ---------------------------------------------------------------------------


def test_closed_form_zero_down_probability():
    for q_up in np.arange(0.0, 1.0001, 0.1):
        assert default_fraction_closed_form(0.0, float(q_up)) == 0.0


def test_closed_form_certain_down():
    # constant bracket sums to -7 + 21 - 24 + 2 + 8 + 4 + 2 + 1 = 7
    assert default_fraction_closed_form(1.0, 0.0) == 1.0


def test_closed_form_symmetric_level():
    value = default_fraction_closed_form(1 / 3, 1 / 3)
    assert abs(value - 0.202) <= 0.005
    assert abs(value - default_fraction_markov(1 / 3, 1 / 3)) <= 5e-3


def test_closed_form_domain():
    with pytest.raises(ValueError):
        default_fraction_closed_form(0.8, 0.4)
    with pytest.raises(ValueError):
        default_fraction_closed_form(-0.1, 0.2)


def test_closed_form_matches_markov_at_anchors():
    # agreement holds at the corners and the symmetric point; mid-range
    # differences are real and are reported by the deviation grid instead
    for p_up, q_down in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1 / 3, 1 / 3)]:
        markov = default_fraction_markov(p_up, q_down)
        closed = default_fraction_closed_form(q_down, p_up)
        assert abs(markov - closed) <= 5e-3


def test_ordered_phase_average():
    assert ordered_phase_default_fraction() == 1 / 3
    # closed-form route with swapped arguments reaches the same average
    closed_route = (
        default_fraction_closed_form(0.0, 0.0)
        + default_fraction_closed_form(0.0, 1.0)
        + default_fraction_closed_form(1.0, 0.0)
    ) / 3.0
    assert closed_route == 1 / 3
    # with fewer moves than rating levels not every descent completes
    assert ordered_phase_default_fraction(steps=3, r_max=7) < 1 / 3


def test_deviation_grid_shape_and_content():
    grid = closed_form_deviation_grid(0.1)
    assert len(grid) == 66  # simplex points with both coordinates on a 0.1 lattice
    for p_up, q_down, markov, closed, deviation in grid:
        assert p_up + q_down <= 1 + 1e-9
        assert 0.0 <= markov <= 1.0
        assert deviation == abs(markov - closed)
    corner_rows = [row for row in grid if (row[0], row[1]) in {(0, 0), (1, 0), (0, 1)}]
    assert len(corner_rows) == 3
    assert all(row[4] <= 5e-3 for row in corner_rows)
    with pytest.raises(ValueError):
        closed_form_deviation_grid(0.0)
