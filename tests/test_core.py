"""Tests for the single-realization state and dynamics."""

import hashlib
import math
import pickle

import numpy as np
import pytest

from firmglass import cli, core, experiment
from firmglass.core import (
    EnsembleState,
    ModelParams,
    advance,
    compute_local_fields,
    conditional_spin_distribution,
    f_table_from_weights,
    initial_state,
    micro_update,
    run_realization,
    sample_coupling_matrix,
    time_step,
    zero_f_table,
)
from firmglass.meanfield import default_fraction_markov

# drift tables with one move forced (exp(-1000) underflows to exactly 0)
ALWAYS_UP = {-1: -1000.0, 0: -1000.0, 1: 0.0}
ALWAYS_DOWN = {-1: 0.0, 0: -1000.0, 1: -1000.0}


def make_state(couplings, ratings, spins):
    ratings = np.asarray(ratings, dtype=np.int64)
    spins = np.asarray(spins, dtype=np.int64)
    return EnsembleState(
        ratings=ratings,
        spins=spins,
        local_fields=compute_local_fields(couplings, spins),
    )


# ---------------------------------------------------------------------------
# parameters and drift tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_firms": 0},
        {"n_firms": 10, "r_max": 0},
        {"n_firms": 10, "steps": 0},
        {"n_firms": 10, "sigma_j": -0.1},
        {"n_firms": 10, "f_table": {-1: 0.0, 0: 0.0}},
        {"n_firms": 10, "f_table": {-1: 0.0, 0: 0.0, 1: 0.0, 2: 0.0}},
        {"n_firms": 10, "sigma_j": math.nan},
        {"n_firms": 10, "j0": math.inf},
        {"n_firms": 10, "f_table": {-1: 0.0, 0: math.nan, 1: 0.0}},
        {"n_firms": 10.5},
        {"n_firms": 10, "r_max": 3.5},
        {"n_firms": 10, "steps": 8.0},
        {"n_firms": True},
        {"n_firms": 10, "r_max": True},
        {"n_firms": 10, "steps": True},
        # finite, but a field or a heat-bath exponent could reach inf
        {"n_firms": 50, "j0": 1e308},
        {"n_firms": 50, "j0": -1e308},
        {"n_firms": 50, "sigma_j": 1e308},
        {"n_firms": 3, "j0": 6e299},
        {"n_firms": 10, "f_table": {-1: 0.0, 0: 0.0, 1: -1e301}},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_params_hash_and_copy_their_drift_table():
    table = f_table_from_weights(0.15, 0.75, 0.10)
    params = ModelParams(n_firms=3, f_table=table)
    assert hash(params) == hash(ModelParams(n_firms=3, f_table=dict(table)))
    original = dict(table)
    table[0] = 5.0
    assert params.f_table == original
    assert [params.f_table[s] for s in (-1, 0, 1)] == [original[s] for s in (-1, 0, 1)]
    with pytest.raises(TypeError):
        params.f_table[0] = 5.0
    restored = pickle.loads(pickle.dumps(params))
    assert restored == params and hash(restored) == hash(params)
    assert restored.f_table[-1] == math.log(0.15)


def test_params_accept_numpy_integers():
    params = ModelParams(n_firms=np.int64(10), r_max=np.int32(3), steps=np.int64(2))
    assert run_realization(params, 0).final_ratings.max() <= 3


def test_params_store_numpy_floats_as_float():
    params = ModelParams(n_firms=10, j0=np.float64(0.005), sigma_j=np.float32(0.5),
                         f_table={-1: np.float64(-1.0), 0: 0, 1: np.float32(0.5)})
    assert type(params.j0) is float and type(params.sigma_j) is float
    assert [type(params.f_table[s]) for s in (-1, 0, 1)] == [float] * 3
    assert params == ModelParams(n_firms=10, j0=0.005, sigma_j=0.5,
                                 f_table={-1: -1.0, 0: 0.0, 1: 0.5})
    # the largest couplings and drift values a model may hold
    ModelParams(n_firms=3, j0=5e299, f_table={-1: 1e300, 0: 0.0, 1: -1e300})


def test_f_table_from_weights():
    table = f_table_from_weights(0.15, 0.75, 0.10)
    assert table[-1] == math.log(0.15)
    assert table[0] == math.log(0.75)
    assert table[1] == math.log(0.10)
    with pytest.raises(ValueError):
        f_table_from_weights(0.0, 0.5, 0.5)


# ---------------------------------------------------------------------------
# coupling matrix
# ---------------------------------------------------------------------------


def test_couplings_degenerate_sigma():
    params = ModelParams(n_firms=3, j0=0.5, sigma_j=0.0)
    couplings = sample_coupling_matrix(params, np.random.default_rng(0))
    off_diagonal = couplings[~np.eye(3, dtype=bool)]
    assert np.all(off_diagonal == 0.5)
    assert np.all(np.diag(couplings) == 0.0)


def test_couplings_symmetry_invariants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        params = ModelParams(
            n_firms=int(rng.integers(1, 20)),
            j0=float(rng.normal()),
            sigma_j=float(rng.uniform(0, 2)),
        )
        couplings = sample_coupling_matrix(params, rng)
        assert np.array_equal(couplings, couplings.T)
        assert np.all(np.diag(couplings) == 0.0)


def test_couplings_sample_moments():
    # standard-error bound: the upper triangle holds M = N(N-1)/2 i.i.d.
    # N(0, 1) draws, so |sample mean| <= 4 / sqrt(M) with ~6e-5 failure prob
    n = 1000
    params = ModelParams(n_firms=n, j0=0.0, sigma_j=1.0)
    couplings = sample_coupling_matrix(params, np.random.default_rng(2))
    draws = couplings[np.triu_indices(n, k=1)]
    n_draws = draws.size
    assert n_draws == n * (n - 1) // 2
    assert abs(draws.mean()) <= 4.0 / math.sqrt(n_draws)
    assert abs(draws.std() - 1.0) <= 0.02


# ---------------------------------------------------------------------------
# initial state
# ---------------------------------------------------------------------------


def test_initial_state_rating_occupancy():
    # binomial bound: each of the 7 classes gets Binomial(N, 1/7) firms
    n = 7000
    params = ModelParams(n_firms=n)
    rng = np.random.default_rng(3)
    state = initial_state(params, np.zeros((n, n)), rng)
    assert np.count_nonzero(state.ratings == 0) == 0
    margin = 4.0 * math.sqrt(n * (1 / 7) * (6 / 7))
    for level in range(1, 8):
        count = np.count_nonzero(state.ratings == level)
        assert abs(count - n / 7) <= margin
    assert set(np.unique(state.spins)) <= {-1, 0, 1}


def test_initial_state_field_cache():
    params = ModelParams(n_firms=40, j0=0.1, sigma_j=0.5)
    rng = np.random.default_rng(4)
    couplings = sample_coupling_matrix(params, rng)
    state = initial_state(params, couplings, rng)
    reference = compute_local_fields(couplings, state.spins)
    assert np.max(np.abs(state.local_fields - reference)) < 1e-9


# ---------------------------------------------------------------------------
# conditional move distribution
# ---------------------------------------------------------------------------


def test_conditional_isolated_uniform():
    state = make_state(np.zeros((2, 2)), [3, 3], [0, 0])
    probs = conditional_spin_distribution(state, 0, zero_f_table())
    assert np.array_equal(probs, np.array([1 / 3, 1 / 3, 1 / 3]))


def test_conditional_isolated_drift_weights():
    # with weights that sum to one, an isolated firm's distribution is the
    # weight triple itself
    state = make_state(np.zeros((1, 1)), [3], [0])
    table = f_table_from_weights(0.15, 0.75, 0.10)
    probs = conditional_spin_distribution(state, 0, table)
    np.testing.assert_allclose(probs, [0.15, 0.75, 0.10], rtol=0, atol=1e-12)


def test_conditional_two_aligned_neighbors():
    couplings = np.zeros((3, 3))
    couplings[0, 1] = couplings[1, 0] = 1.0
    couplings[0, 2] = couplings[2, 0] = 1.0
    state = make_state(couplings, [3, 3, 3], [0, 1, 1])
    probs = conditional_spin_distribution(state, 0, zero_f_table())
    expected = math.e**2 / (math.e**2 + 2.0)  # softmax with one exponent of 2
    assert abs(probs[2] - expected) < 1e-12


def test_conditional_overflow_guard():
    # arbitrary fields up to 1e6 in magnitude must still normalize
    rng = np.random.default_rng(5)
    state = make_state(np.zeros((1, 1)), [3], [0])
    for _ in range(1000):
        state.local_fields[0] = rng.uniform(-1e6, 1e6, size=3)
        probs = conditional_spin_distribution(state, 0, zero_f_table())
        assert abs(float(probs.sum()) - 1.0) <= 1e-12
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------


def apply_rating_barrier(rating, spin, r_max):
    """Reference rating move: absorbing at 0, reflecting at r_max.

    Default (rating 0) never moves; a +1 move at r_max is reflected back;
    any other move shifts the rating by the move value.  ``advance``
    inlines this rule.
    """
    if rating == 0:
        return 0
    if rating == r_max and spin == 1:
        return r_max
    return rating + spin


def test_barrier_spec_cases():
    assert apply_rating_barrier(0, 1, 7) == 0   # absorbing at default
    assert apply_rating_barrier(7, 1, 7) == 7   # reflecting at the top
    assert apply_rating_barrier(3, -1, 7) == 2  # interior move


def test_barrier_exhaustive():
    # each case checks the reference rule, then advance against it through
    # a micro-update forced onto the move
    couplings = np.zeros((1, 1))
    for r_max in (1, 3, 7, 11):
        for rating in range(r_max + 1):
            for spin in (-1, 0, 1):
                result = apply_rating_barrier(rating, spin, r_max)
                assert 0 <= result <= r_max
                if rating == 0:
                    assert result == 0
                elif rating == r_max and spin == 1:
                    assert result == r_max
                else:
                    assert result == rating + spin
                forced = {s: 0.0 if s == spin else -1000.0 for s in (-1, 0, 1)}
                params = ModelParams(n_firms=1, r_max=r_max, f_table=forced)
                state = make_state(couplings, [rating], [0])
                advance(state, couplings, params, (0,), (0.5,))
                assert state.ratings[0] == result


# ---------------------------------------------------------------------------
# micro-update and time step
# ---------------------------------------------------------------------------


def test_micro_update_forced_up():
    params = ModelParams(n_firms=1, f_table=ALWAYS_UP)
    couplings = np.zeros((1, 1))
    state = make_state(couplings, [3], [-1])
    rng = np.random.default_rng(6)
    micro_update(state, couplings, 0, params, rng)
    assert state.spins[0] == 1
    assert state.ratings[0] == 4
    # at the top the move still happens but the rating reflects
    state = make_state(couplings, [7], [0])
    micro_update(state, couplings, 0, params, rng)
    assert state.spins[0] == 1 and state.ratings[0] == 7


def test_micro_update_default_is_absorbing():
    params = ModelParams(n_firms=2, j0=0.3, sigma_j=0.4)
    rng = np.random.default_rng(7)
    couplings = sample_coupling_matrix(params, rng)
    state = make_state(couplings, [0, 5], [1, -1])
    for _ in range(200):
        micro_update(state, couplings, 0, params, rng)
        assert state.ratings[0] == 0


def test_field_cache_coherent_after_many_updates():
    params = ModelParams(n_firms=50, j0=0.02, sigma_j=0.3)
    rng = np.random.default_rng(8)
    couplings = sample_coupling_matrix(params, rng)
    state = initial_state(params, couplings, rng)
    for i in range(10_000):
        micro_update(state, couplings, int(rng.integers(0, 50)), params, rng)
        if i % 1000 == 999:
            reference = compute_local_fields(couplings, state.spins)
            assert np.max(np.abs(state.local_fields - reference)) < 1e-9
    reference = compute_local_fields(couplings, state.spins)
    assert np.max(np.abs(state.local_fields - reference)) < 1e-9


def test_time_step_single_firm():
    params = ModelParams(n_firms=1, f_table=ALWAYS_UP, r_max=20)
    couplings = np.zeros((1, 1))
    state = make_state(couplings, [1], [0])
    time_step(state, couplings, params, np.random.default_rng(9))
    assert state.ratings[0] == 2  # exactly one micro-update happened


def test_time_step_with_replacement_occupancy():
    # each firm's selection count is Binomial(N, 1/N); the expected fraction
    # touched at least once is 1 - (1 - 1/N)^N ~ 1 - 1/e
    n = 3000
    params = ModelParams(n_firms=n, f_table=ALWAYS_UP, r_max=25)
    couplings = np.zeros((n, n))
    state = make_state(couplings, np.ones(n), np.zeros(n))
    time_step(state, couplings, params, np.random.default_rng(10))
    moves = state.ratings - 1
    assert moves.sum() == n  # every micro-update moved exactly one firm up
    touched = np.count_nonzero(moves > 0) / n
    expected = 1.0 - (1.0 - 1.0 / n) ** n
    assert abs(touched - expected) <= 5.0 * math.sqrt(expected * (1 - expected) / n)


def test_zero_coupling_spin_distribution_uniform():
    # with no couplings and no drift the sampled moves must be uniform
    n = 3000
    params = ModelParams(n_firms=n, j0=0.0, sigma_j=0.0, steps=8, r_max=30)
    outcome = run_realization(params, 12)
    counts = np.array([np.count_nonzero(outcome.final_spins == v) for v in (-1, 0, 1)])
    expected = counts.mean()
    chi_square = float(((counts - expected) ** 2 / expected).sum())
    # with 2 degrees of freedom the p-value is exp(-chi_square / 2), so
    # p > 1e-3 holds exactly when chi_square < 2 ln 1000
    assert chi_square < 2.0 * math.log(1000.0)


# ---------------------------------------------------------------------------
# whole realizations
# ---------------------------------------------------------------------------


def test_run_realization_deterministic():
    params = ModelParams(n_firms=80, j0=0.01, sigma_j=0.05)
    first = run_realization(params, 13, record_trajectory=True)
    second = run_realization(params, 13, record_trajectory=True)
    assert first.nd == second.nd
    assert first.nd_trajectory == second.nd_trajectory
    assert np.array_equal(first.final_ratings, second.final_ratings)
    assert np.array_equal(first.final_spins, second.final_spins)


def test_run_realization_takes_only_a_reproducible_seed():
    params = ModelParams(n_firms=20, sigma_j=0.3)
    same = [run_realization(params, seed).nd
            for seed in (5, np.int64(5), np.random.SeedSequence(5))]
    assert same == [same[0]] * 3
    # None and a Generator would give another realization on each call
    for seed in (None, np.random.default_rng(5), -1, 1.5, True, "5"):
        with pytest.raises(ValueError, match="seed"):
            run_realization(params, seed)


def digest(values):
    return hashlib.sha256(",".join(str(int(v)) for v in values).encode()).hexdigest()[:16]


# (ND, ND trajectory, digest of final ratings, digest of final spins) for
# seeds 0-4, recorded from the engine as it stood before the single-engine
# rewrite: any change to the draw order or the arithmetic shows up here
SEED_ORACLE = [
        (8, (4, 4, 5, 6, 7, 7, 8, 8), "13bf400bb14ec2a3", "b99f762affa75141"),
        (2, (0, 0, 0, 1, 2, 2, 2, 2), "03374fe1df8171aa", "d99c5f282b4a2b0e"),
        (1, (1, 1, 1, 1, 1, 1, 1, 1), "279c67ea7bc392d9", "f23cecca548654c9"),
        (5, (2, 2, 3, 3, 3, 3, 4, 5), "023239b58d49e999", "851b9f21e360571b"),
        (3, (1, 1, 2, 2, 2, 3, 3, 3), "15cfb6bea2764af1", "10f2a49f85e28d35"),
]


def test_seed_oracle():
    params = ModelParams(
        n_firms=60,
        j0=0.03,
        sigma_j=0.15,
        f_table=f_table_from_weights(0.15, 0.75, 0.10),
    )
    for seed, (nd, trajectory, ratings, spins) in enumerate(SEED_ORACLE):
        outcome = run_realization(params, seed, record_trajectory=True)
        assert outcome.nd == nd
        assert outcome.nd_trajectory == trajectory
        assert digest(outcome.final_ratings) == ratings
        assert digest(outcome.final_spins) == spins


# ND digests of run_ensemble(N = 1000, K = 4, seed 2009), the regression
# oracle of the benchmark's two ensemble workloads (perfbench/golden.json):
# at the weak point about two micro-updates in three flip a move, at the
# glass point few do
@pytest.mark.parametrize(
    ("j0", "sigma_j", "expected"),
    [(1e-4, 0.001, "b89bfa7212bc07d8"), (0.0, 0.2, "c88e62b5b6544cca")],
    ids=["weak", "glass"],
)
def test_published_scale_ensemble_digest(j0, sigma_j, expected):
    params = ModelParams(n_firms=1000, j0=j0, sigma_j=sigma_j)
    assert digest(experiment.run_ensemble(params, 4, 2009).nd_values) == expected


def test_field_cache_layout_changes_only_speed():
    # the same flip-heavy steps on a column-major cache and on a C-ordered
    # copy of it end in the same bits
    params = ModelParams(n_firms=50, j0=1e-4, sigma_j=0.001)
    rng = np.random.default_rng(17)
    couplings = sample_coupling_matrix(params, rng)
    state = initial_state(params, couplings, rng)
    assert state.local_fields.flags.f_contiguous
    start_spins = state.spins.copy()
    c_state = EnsembleState(
        ratings=state.ratings.copy(),
        spins=state.spins.copy(),
        local_fields=np.ascontiguousarray(state.local_fields),
    )
    assert not c_state.local_fields.flags.f_contiguous
    for run in (state, c_state):
        step_rng = np.random.default_rng(18)
        for _ in range(4):
            time_step(run, couplings, params, step_rng)
    assert np.count_nonzero(state.spins != start_spins) > params.n_firms // 2
    assert np.array_equal(state.local_fields.view(np.int64), c_state.local_fields.view(np.int64))
    assert np.array_equal(state.spins, c_state.spins)
    assert np.array_equal(state.ratings, c_state.ratings)


def test_advance_thresholds_match_conditional_distribution():
    # the move must switch exactly at P(-1) and at P(-1) + P(0) as
    # conditional_spin_distribution reports them, to the last bit: a uniform
    # equal to a threshold already takes the next move
    rng = np.random.default_rng(16)
    params = ModelParams(n_firms=1, f_table=f_table_from_weights(0.15, 0.75, 0.10))
    couplings = np.zeros((1, 1))
    state = make_state(couplings, [3], [0])
    for _ in range(2000):
        # magnitudes from 1e-2 to 1e6, so some distributions are spread out
        # and some put all mass on one move
        state.local_fields[0] = rng.uniform(-1.0, 1.0, size=3) * 10.0 ** rng.uniform(-2, 6)
        probs = conditional_spin_distribution(state, 0, params.f_table)
        p_down, p_down_or_stay = float(probs[0]), float(probs[0] + probs[1])
        for threshold in (p_down, p_down_or_stay):
            for u in (np.nextafter(threshold, -np.inf), threshold, np.nextafter(threshold, np.inf)):
                expected = -1 if u < p_down else 0 if u < p_down_or_stay else 1
                state.ratings[0] = 3
                advance(state, couplings, params, (0,), (float(u),))
                assert state.spins[0] == expected, (state.local_fields[0], probs, u)


def test_core_exposes_replayed_steps():
    # perfbench's traced run replays a realization through these names and
    # reports the core layer as absent if one is missing
    for name in ("sample_coupling_matrix", "initial_state", "time_step",
                 "draw_update_order", "micro_update", "count_defaults"):
        assert callable(getattr(core, name, None)), name


def test_modules_expose_traced_names():
    # perfbench's traced sweep patches these module attributes and reports
    # the layer as absent if one is missing
    for module, name in ((cli, "run_sweep"), (cli, "emit"),
                         (experiment, "run_ensemble"), (experiment, "ensemble_stats"),
                         (experiment, "predict_phase")):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_always_up_never_defaults():
    params = ModelParams(n_firms=100, f_table=ALWAYS_UP)
    assert run_realization(params, 14).nd == 0


def test_defaults_accumulate_and_ratings_stay_in_range():
    params = ModelParams(n_firms=150, j0=0.0, sigma_j=0.4, steps=12)
    outcome = run_realization(params, 15, record_trajectory=True)
    trajectory = outcome.nd_trajectory
    assert all(a <= b for a, b in zip(trajectory, trajectory[1:]))
    assert outcome.nd == trajectory[-1]
    assert outcome.final_ratings.min() >= 0
    assert outcome.final_ratings.max() <= params.r_max


def test_single_firm_frequency_matches_chain():
    # one isolated firm updated once per step is exactly the 8-move rating
    # chain at (1/3, 1/3); check the default frequency over many seeds
    params = ModelParams(n_firms=1, j0=0.0, sigma_j=0.0)
    n_seeds = 100_000
    hits = sum(run_realization(params, seed).nd for seed in range(n_seeds))
    expected = default_fraction_markov(1 / 3, 1 / 3, steps=8, r_max=7)
    stderr = math.sqrt(expected * (1 - expected) / n_seeds)
    assert abs(hits / n_seeds - expected) <= 3.0 * stderr
