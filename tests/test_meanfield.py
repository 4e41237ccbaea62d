"""Tests for the mean-field theory and the exact rating-chain computations."""

import hashlib
import math
import time
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np
import pytest

from firmglass.cli import cli
from firmglass.core import R_MAX, STEPS, ModelParams
from firmglass.meanfield import (
    _CLOSED_FORM_BRACKETS,
    MeanFieldPoint,
    _closed_form_values,
    _default_fractions,
    _deviation_grid_rows,
    closed_form_deviation_grid,
    critical_beta,
    default_fraction_closed_form,
    default_fraction_markov,
    mean_field_fixed_points,
    mean_field_map,
    ordered_phase_default_fraction,
    predict_phase,
    rating_transition_matrix,
    transition_beta,
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


# above ~2.74e307 the float root equation would lose 6 of the 7 points
@pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0, 1e301, 1e308])
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


@pytest.mark.parametrize("beta", [14.0, 20.0, 40.0, 1000.0])
def test_fixed_points_deep_in_the_ordered_phase(beta):
    # the ordered corners sit on the simplex edge, where a finite-difference
    # Jacobian would have to step outside the simplex; at 1000, exp(beta)
    # overflows a float and g(1/2) is 0.0, so the bisection returns 1/2 itself
    points = mean_field_fixed_points(beta)
    assert len(points) == 7
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    stable = sorted((pt.p_up, pt.q_down) for pt in points if pt.stable)
    assert len(stable) == 3
    for (p, q), (p_corner, q_corner) in zip(stable, sorted(corners)):
        assert abs(p - p_corner) < 1e-5 and abs(q - q_corner) < 1e-5
    symmetric = [pt for pt in points
                 if abs(pt.p_up - 1 / 3) < 1e-6 and abs(pt.q_down - 1 / 3) < 1e-6]
    assert len(symmetric) == 1 and not symmetric[0].stable


def reference_jacobian(p_up, q_down, beta):
    """The map's exact 2x2 Jacobian at (p_up, q_down).

    With (u, d) the map's value and s = 1 - u - d, the softmax derivatives
    through the exponents beta * p_up, beta * q_down and
    beta * (1 - p_up - q_down) give these entries.
    """
    u, d = mean_field_map(p_up, q_down, beta)
    s = 1.0 - u - d
    return beta * np.array(
        [[u * (1.0 - u + s), -u * (d - s)], [-d * (u - s), d * (1.0 - d + s)]]
    )


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
            reference_jacobian(p, q, beta),
            central_difference_jacobian(p, q, beta),
            rtol=0, atol=1e-8,
        )


@pytest.mark.parametrize(
    "point, beta, match",
    [
        ((math.nan, 0.2), 1.0, "probabilities"),
        ((0.2, math.nan), 1.0, "probabilities"),
        ((-0.1, 0.2), 1.0, "probabilities"),
        ((0.7, 0.7), 1.0, "probabilities"),
        ((0.2, 0.2), math.nan, "beta"),
        ((0.2, 0.2), math.inf, "beta"),
        ((0.2, 0.2), -1.0, "beta"),
        ((0.2, 0.2), 1e301, "beta"),
    ],
    ids=["nan-p", "nan-q", "negative-p", "off-simplex", "nan-beta", "inf-beta",
         "negative-beta", "huge-beta"],
)
def test_map_and_jacobian_refuse_bad_input(point, beta, match):
    with pytest.raises(ValueError, match=match):
        mean_field_map(*point, beta)


def spectral_radius(p_up, q_down, beta):
    """Spectral radius of the map's exact Jacobian at (p_up, q_down)."""
    jac = reference_jacobian(p_up, q_down, beta)
    return float(np.max(np.abs(np.linalg.eigvals(jac))))


def symmetric_point_radius(beta):
    return spectral_radius(1 / 3, 1 / 3, beta)


def test_symmetric_stability_crossing():
    assert symmetric_point_radius(2.99) < 1.0
    assert symmetric_point_radius(3.01) > 1.0
    # the Jacobian there is (beta / 3) * I, so the radius is beta / 3
    for beta in (0.0, 1.0, 3.0, 5.0, 40.0):
        assert symmetric_point_radius(beta) == pytest.approx(beta / 3, abs=1e-12)


def stability_test_betas():
    """The 0.01 grid on [0, 40] plus the betas where the radius sits nearest 1
    or the Jacobian is extreme: within 1e-9 and 1e-6 of 3, across the
    spinodal, at 2 + ln 2 (where g' first vanishes), at 4 ln 2, and at the
    exponent cap and beyond."""
    offsets = [k * scale for k in range(1, 6) for scale in (1e-9, 1e-6)]
    return (
        np.linspace(0.0, 40.0, 4001).tolist()
        + [3.0 + offset for offset in offsets]
        + [3.0 - offset for offset in offsets]
        + np.linspace(2.7455, 2.7457, 41).tolist()
        + [2.0 + math.log(2.0), 4.0 * math.log(2.0), 709.0, 1000.0]
    )


def test_closed_form_radius_matches_the_eigenvalue_solver():
    # the flags come from the kind of root alone; numpy's eigenvalue solver on
    # the exact Jacobian must agree at every point
    for beta in stability_test_betas():
        for point in mean_field_fixed_points(beta):
            radius = spectral_radius(point.p_up, point.q_down, beta)
            assert point.stable == (radius < 1.0), (beta, point, radius)


def test_critical_beta_value():
    beta_c = critical_beta()
    assert beta_c == 3.0
    assert symmetric_point_radius(beta_c) == pytest.approx(1.0, abs=1e-12)
    assert symmetric_point_radius(beta_c - 1e-6) < 1.0 < symmetric_point_radius(
        beta_c + 1e-6
    )


def test_fixed_points_hold_floats():
    for beta in (0.0, 2.0, 6.0, 40.0):
        for point in mean_field_fixed_points(beta):
            assert type(point.p_up) is float and type(point.q_down) is float
            assert type(point.beta) is float and type(point.stable) is bool
    # the CLI passes np.linspace values: a flag compared in numpy scalars
    # would be a numpy.bool, which json cannot write
    for beta in np.linspace(0.0, 40.0, 17):
        for point in mean_field_fixed_points(beta):
            assert type(point.p_up) is float and type(point.q_down) is float
            assert type(point.beta) is float and type(point.stable) is bool


def test_meanfield_point_validation():
    with pytest.raises(ValueError):
        MeanFieldPoint(p_up=0.8, q_down=0.3, beta=1.0, stable=True)
    for beta in (-1.0, math.nan, math.inf, 1e301):
        with pytest.raises(ValueError, match="beta"):
            MeanFieldPoint(p_up=0.2, q_down=0.2, beta=beta, stable=True)


# ---------------------------------------------------------------------------
# the phase diagram: spinodal ~2.7456, first-order point 4 ln 2, instability 3
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "beta, count, stable",
    [
        (2.7450, 1, 1),  # below the spinodal: the symmetric point alone
        (2.745646, 7, 4),  # 2e-6 above the spinodal: two roots 8e-4 apart
        (2.7456485, 7, 4),
        (2.7460, 7, 4),  # coexistence: 3 ordered minima, 3 saddles
        (2.999, 7, 4),  # a saddle within 3e-4 of 1/3
        (3.0 - 1e-9, 7, 4),  # a saddle within 1e-8 of 1/3
        (3.0, 4, 3),  # 1/3 is a double root: the saddles merged into it
        (3.0 + 1e-9, 7, 3),
        (3.001, 7, 3),  # the saddles came out on the other side of 1/3
        (40.0, 7, 3),  # ordered roots near exp(-40) ~ 4e-18
        # past ~3.3e17 a float Jacobian at (1/3, 1/3) collapses onto a corner
        # and its spectral radius would call the symmetric point stable
        (1e20, 7, 3),
        (1e300, 7, 3),
    ],
)
def test_fixed_point_count_across_the_phase_diagram(beta, count, stable):
    points = mean_field_fixed_points(beta)
    assert len(points) == count
    assert sum(point.stable for point in points) == stable
    assert (points[0].p_up, points[0].q_down) == (1 / 3, 1 / 3)


def exact_saddle_root(beta):
    """The saddle root of g, bisected in 60-digit decimals.

    Near 1/3, g(1/3 + x) ~ (3 - beta) x + 4.5 x^2, so the saddle sits near
    x = (beta - 3) / 4.5; the bracket [0.1, 0.5] * (beta - 3) holds it alone.
    """
    with localcontext() as context:
        context.prec = 60
        exact_beta = Decimal(beta)

        def g(a):
            return a * (2 + (exact_beta * (1 - 3 * a)).exp()) - 1

        third, gap = Decimal(1) / 3, exact_beta - 3
        lo, hi = third + gap / 10, third + gap / 2
        assert g(lo) * g(hi) < 0
        for _ in range(200):
            mid = (lo + hi) / 2
            if (g(mid) < 0) == (g(lo) < 0):
                lo = mid
            else:
                hi = mid
        return lo


@pytest.mark.parametrize("beta", [3.0 - 1e-6, 3.0 - 1e-9, 3.0 + 1e-9, 3.0 + 1e-6])
def test_saddle_root_keeps_its_digits_near_beta_3(beta):
    # g is nearly flat between the saddle and 1/3 there: a value of g with
    # the rounding of a * (2 + exp(...)) - 1 puts the root off by up to 3e-9
    saddle = mean_field_fixed_points(beta)[4]
    assert saddle.p_up == saddle.q_down and not saddle.stable
    assert abs(Decimal(saddle.p_up) - exact_saddle_root(beta)) <= Decimal("1e-15")


def free_energy(p_up, q_down, beta):
    """-(beta/2) * sum x^2 + sum x ln x over the three move fractions."""
    fractions = (p_up, q_down, 1.0 - p_up - q_down)
    return sum(-0.5 * beta * x * x + (x * math.log(x) if x > 0 else 0.0)
               for x in fractions)


def free_energy_gap(beta):
    """Free energy of the stable ordered point minus the symmetric point's."""
    symmetric, *others = mean_field_fixed_points(beta)
    ordered = next(point for point in others if point.stable)
    return (free_energy(ordered.p_up, ordered.q_down, beta)
            - free_energy(symmetric.p_up, symmetric.q_down, beta))


def test_transition_beta_is_where_the_free_energies_cross():
    lo, hi = 2.75, 2.8  # both above the spinodal, where the ordered branch exists
    assert free_energy_gap(lo) > 0 > free_energy_gap(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if free_energy_gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(mid - transition_beta()) <= 1e-12
    assert transition_beta() == 4 * math.log(2)
    # there the ordered minimum is (1/6, 1/6, 2/3), stay being the odd move
    ordered = mean_field_fixed_points(transition_beta())[1]
    assert ordered.stable
    assert abs(ordered.p_up - 1 / 6) <= 1e-12 and abs(ordered.q_down - 1 / 6) <= 1e-12


# ---------------------------------------------------------------------------
# the damped multi-start iteration the root solver replaced, as a reference
# ---------------------------------------------------------------------------


def reference_fixed_point(p_start, q_start, beta):
    """Damped iteration (step 0.5, residual 1e-10, 10 000 iterations); None if
    it does not converge."""
    p, q = p_start, q_start
    for _ in range(10_000):
        p_next, q_next = mean_field_map(p, q, beta)
        res_p = p_next - p
        res_q = q_next - q
        if max(abs(res_p), abs(res_q)) < 1e-10:
            return p, q
        p += 0.5 * res_p
        q += 0.5 * res_q
    return None


def reference_fixed_points(beta):
    """(p, q, stable) of every distinct point reached from 28 simplex starts.

    The starts are the 7-level grid in [0, 1] with p + q <= 1; points closer
    than 1e-6 are merged and starts that do not converge are dropped.  The
    iteration reaches attracting points, and saddles only from their stable
    line, so it misses most saddles.
    """
    levels = np.linspace(0.0, 1.0, 7).tolist()
    found = []
    for p0 in levels:
        for q0 in levels:
            if p0 + q0 > 1 + 1e-9:
                continue
            point = reference_fixed_point(p0, q0, beta)
            if point is None or any(
                abs(point[0] - p) < 1e-6 and abs(point[1] - q) < 1e-6
                for p, q in found
            ):
                continue
            found.append(point)
    return [(p, q, spectral_radius(p, q, beta) < 1.0) for p, q in found]


def test_solver_reports_every_point_of_the_damped_iteration():
    # the 0.01 grid on [0, 40]; 1e-7, not 1e-9, because within 0.03 of beta = 3
    # the damped iteration's own points sit up to 3e-8 from the exact ones
    missed_by_reference = 0
    for beta in np.linspace(0.0, 40.0, 4001).tolist():
        points = mean_field_fixed_points(beta)
        for point in points:
            image = mean_field_map(point.p_up, point.q_down, beta)
            assert abs(image[0] - point.p_up) <= 1e-12, (beta, point)
            assert abs(image[1] - point.q_down) <= 1e-12, (beta, point)
        reference = reference_fixed_points(beta)
        for p, q, stable in reference:
            assert any(
                abs(point.p_up - p) <= 1e-7 and abs(point.q_down - q) <= 1e-7
                and point.stable == stable
                for point in points
            ), (beta, p, q, stable)
        missed_by_reference += len(points) - len(reference)
    assert missed_by_reference > 0  # the saddles the iteration cannot reach


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
    assert weak.j_critical == 3.0 / 1000 == critical_beta() / 1000
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


@pytest.mark.parametrize("grid_step", [0.0, 1e-4, 9.99e-4, 1.5, math.nan, -0.1, 0.3, 0.7])
def test_deviation_grid_refuses_a_step_outside_its_range(grid_step):
    # below 1e-3 the grid would exceed 501 501 rows; refused before any row
    started = time.perf_counter()
    with pytest.raises(ValueError, match="grid_step"):
        closed_form_deviation_grid(grid_step)
    with pytest.raises(ValueError, match="grid_step"):
        _deviation_grid_rows(grid_step)  # on the call, with no row asked for
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# the blocked chain routes against the scalar per-row loop they replaced
# ---------------------------------------------------------------------------


def reference_transition_matrix(prob_up, prob_down, r_max):
    matrix = np.zeros((r_max + 1, r_max + 1))
    matrix[0, 0] = 1.0
    for r in range(1, r_max):
        matrix[r, r + 1] = prob_up
        matrix[r, r - 1] = prob_down
        matrix[r, r] = 1.0 - prob_up - prob_down
    matrix[r_max, r_max - 1] = prob_down
    matrix[r_max, r_max] = 1.0 - prob_down
    return matrix


def reference_markov(prob_up, prob_down, steps, r_max):
    matrix = reference_transition_matrix(prob_up, prob_down, r_max)
    return float(np.linalg.matrix_power(matrix, steps)[1:, 0].mean())


def reference_closed_form(prob_down, prob_up):
    # scalar np.polyval and Python float ** on every bracket
    total = 0.0
    for power, coefficients in _CLOSED_FORM_BRACKETS.items():
        total += np.polyval(coefficients, prob_down) * prob_up**power
    return float(total / 7.0)


def reference_grid(grid_step):
    rows = []
    n_levels = round(1.0 / grid_step)
    for i in range(n_levels + 1):
        p_up = i / n_levels
        for j in range(n_levels - i + 1):
            q_down = j / n_levels
            markov = reference_markov(p_up, q_down, STEPS, R_MAX)
            closed = reference_closed_form(q_down, p_up)
            rows.append((p_up, q_down, markov, closed, abs(markov - closed)))
    return rows


def bits(values):
    """Bit patterns of floats: -0.0 and 0.0 differ here, unlike under ==."""
    return [value.hex() for value in values]


@pytest.mark.parametrize(
    "grid_step",
    [0.01, 0.05],
    # 0.01 gives 5151 rows: ten full blocks and a partial last one
    ids=["step-0.01", "step-0.05"],
)
def test_deviation_grid_is_bit_identical_to_the_scalar_loop(grid_step):
    grid = closed_form_deviation_grid(grid_step)
    reference = reference_grid(grid_step)
    assert len(grid) == len(reference)
    assert all(type(value) is float for row in grid for value in row)
    assert [bits(row) for row in grid] == [bits(row) for row in reference]


def test_scalar_chain_calls_are_bit_identical_to_the_scalar_loop():
    rng = np.random.default_rng(18)
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1 / 3, 1 / 3)]
    for _ in range(200):
        p = float(rng.uniform(0, 1))
        points.append((p, float(rng.uniform(0, 1 - p))))
    for index, (p, q) in enumerate(points):
        steps, r_max = (STEPS, R_MAX) if index % 2 else (index % 13, 1 + index % 12)
        matrix = rating_transition_matrix(p, q, r_max)
        assert bits(matrix.ravel().tolist()) == bits(
            reference_transition_matrix(p, q, r_max).ravel().tolist()
        )
        markov = default_fraction_markov(p, q, steps, r_max)
        assert type(markov) is float
        assert bits([markov]) == bits([reference_markov(p, q, steps, r_max)])
        closed = default_fraction_closed_form(q, p)
        assert type(closed) is float
        assert bits([closed]) == bits([reference_closed_form(q, p)])


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 8])
def test_block_chain_and_closed_form_are_bit_identical_to_the_scalar_loop(steps):
    rng = np.random.default_rng(42)
    # off-grid blocks, each p_up repeated, and one more than a block of rows
    block = 1 + 2**15 // (R_MAX + 1) ** 2
    ups = rng.choice(rng.uniform(0.0, 1.0, 40), size=block)
    downs = rng.uniform(0.0, 1.0, block) * (1.0 - ups)
    for r_max in (1, 2, R_MAX, 12):
        for lo, hi in ((0, block), (7, 8)):
            levels = _default_fractions(ups[lo:hi], downs[lo:hi], steps, r_max)
            assert bits(levels.tolist()) == bits(
                [reference_markov(p, q, steps, r_max)
                 for p, q in zip(ups[lo:hi].tolist(), downs[lo:hi].tolist())]
            ), (r_max, lo, hi)
    for lo, hi in ((0, block), (7, 8)):
        closed = _closed_form_values(downs[lo:hi], ups[lo:hi])
        assert bits(closed.tolist()) == bits(
            [reference_closed_form(q, p)
             for p, q in zip(ups[lo:hi].tolist(), downs[lo:hi].tolist())]
        )


# ---------------------------------------------------------------------------
# the meanfield command's output, pinned byte for byte
# ---------------------------------------------------------------------------

# sha256 of `firmglass meanfield --beta-max 40 --beta-points 81`, recorded
# once every point of the damped iteration the root solver replaced was shown
# to be among its points (test_solver_reports_every_point_of_the_damped_iteration)
# and the saddle roots near beta = 3 were shown to match a 60-digit bisection
# (test_saddle_root_keeps_its_digits_near_beta_3)
MEANFIELD_SCAN_DIGESTS = {
    "json": "d1c20741ddd6a6a778cb327d3d809001c198f7ac7545f30d2bbf411ce67e5c2a",
    "csv": "b1aedd75a61ec59d8d0d4b7b39a2f95ec9617f9072a8901e6942ff46c8fd0051",
}


@pytest.mark.parametrize("output_format", sorted(MEANFIELD_SCAN_DIGESTS))
def test_meanfield_scan_output_oracle(output_format, capsys):
    argv = ["meanfield", "--beta-max", "40", "--beta-points", "81",
            "--format", output_format]
    assert cli(argv) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == MEANFIELD_SCAN_DIGESTS[output_format]


# sha256 of `firmglass meanfield --beta-max 40 --beta-points 4001 --format csv`
# (26 354 fixed points on the 0.01 grid), recorded as the digests above
DENSE_SCAN_CSV_DIGEST = "c7f737d9c76277f59a5fd09e030d8e67c7e936bb21bbd0eb4e6d54e6429e93dd"


def test_dense_meanfield_scan_output_oracle(capsys):
    argv = ["meanfield", "--beta-max", "40", "--beta-points", "4001",
            "--format", "csv"]
    assert cli(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DENSE_SCAN_CSV_DIGEST
