"""Acceptance suite: the package's quantitative exit checks.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line.  Ensemble checks run
at the published scale (N=1000, K >= 100); the whole module takes a few
minutes on one core.  Everything is seeded, so results reproduce bit for
bit.
"""

import csv
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from firmglass.core import (
    EnsembleState,
    ModelParams,
    RATING_DRIFT_WEIGHTS,
    apply_rating_barrier,
    compute_local_fields,
    conditional_spin_distribution,
    f_table_from_weights,
    initial_state,
    micro_update,
    sample_coupling_matrix,
    zero_f_table,
)
from firmglass.experiment import (
    SweepSpec,
    result_to_json,
    run_ensemble,
    run_sweep,
)
from firmglass.meanfield import (
    closed_form_deviation_grid,
    critical_beta,
    default_fraction_closed_form,
    default_fraction_markov,
    ordered_phase_default_fraction,
)

ARTIFACTS = Path(__file__).resolve().parents[1] / "artifacts"

PARAMAGNETIC_LEVEL = 0.202


def report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {status} ({detail})", flush=True)
    assert ok, f"acceptance {number} {label}: {detail}"


def fraction_between(values, lo, hi):
    values = np.asarray(values)
    return float(np.mean((values >= lo) & (values <= hi)))


def is_unimodal(nd_values, bin_width):
    """No strict interior local minimum in the binned counts."""
    values = np.asarray(nd_values)
    lo = int(values.min()) // bin_width
    hi = int(values.max()) // bin_width
    counts = np.zeros(hi - lo + 1, dtype=int)
    for value in values:
        counts[int(value) // bin_width - lo] += 1
    for i in range(1, len(counts) - 1):
        if counts[i] < counts[i - 1] and counts[i] < counts[i + 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# 1-3: exact chain, closed form, bifurcation
# ---------------------------------------------------------------------------


def test_01_chain_default_level():
    started = time.perf_counter()
    level = default_fraction_markov(1 / 3, 1 / 3, steps=8, r_max=7)
    elapsed = time.perf_counter() - started
    ok = abs(level - PARAMAGNETIC_LEVEL) <= 0.001 and elapsed < 1.0
    report(1, "chain default level", ok,
           f"markov(1/3,1/3)={level:.6f}, target 0.202+-0.001, {elapsed:.3f}s")


def test_02_closed_form_anchors_and_deviation_grid(tmp_path):
    zero_down = max(
        abs(default_fraction_closed_form(0.0, q)) for q in np.arange(0, 1.01, 0.1)
    )
    certain_down = default_fraction_closed_form(1.0, 0.0)
    symmetric = default_fraction_closed_form(1 / 3, 1 / 3)
    ordered_average = ordered_phase_default_fraction()

    # the regenerated grid must reproduce the archived one byte for byte;
    # it is written to tmp_path so the check never rewrites the archive
    grid = closed_form_deviation_grid(0.1)
    grid_path = tmp_path / "closed_form_vs_markov_grid.csv"
    with open(grid_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["p_up", "q_down", "markov", "closed_form", "abs_deviation"])
        writer.writerows(grid)
    archived = (ARTIFACTS / grid_path.name).read_bytes()
    matches_archive = grid_path.read_bytes() == archived
    max_deviation = max(row[4] for row in grid)

    ok = (
        zero_down == 0.0
        and certain_down == 1.0
        and abs(symmetric - PARAMAGNETIC_LEVEL) <= 0.005
        and ordered_average == 1 / 3
        and matches_archive
        and len(grid) == 66
    )
    report(2, "closed-form anchors", ok,
           f"p_down=0 -> {zero_down}, (1,0) -> {certain_down}, "
           f"(1/3,1/3)={symmetric:.6f}, ordered avg={ordered_average!r}, "
           f"grid {'matches' if matches_archive else 'DIFFERS FROM'} archive "
           f"({len(grid)} pts, max dev {max_deviation:.3f})")


def test_03_meanfield_bifurcation():
    started = time.perf_counter()
    beta_c = critical_beta()
    elapsed = time.perf_counter() - started
    ok = abs(beta_c - 3.00) <= 0.01 and elapsed < 1.0
    report(3, "mean-field bifurcation", ok,
           f"beta_c={beta_c:.6f}, target 3.00+-0.01, {elapsed:.3f}s "
           f"(j_critical=3/N under beta=j0*N)")


# ---------------------------------------------------------------------------
# 4-8: ensemble behaviour at the published scale
# ---------------------------------------------------------------------------


def test_04_weak_coupling_ensemble():
    params = ModelParams(n_firms=1000, j0=0.0001, sigma_j=0.001)
    stats = run_ensemble(params, 200, master_seed=104)
    mean_frac = stats.mean_nd / params.n_firms
    heavy_tail = fraction_between(stats.nd_values, 501, params.n_firms)
    unimodal = is_unimodal(stats.nd_values, bin_width=50)
    ok = (
        abs(mean_frac - PARAMAGNETIC_LEVEL) <= 0.02
        and heavy_tail == 0.0
        and unimodal
    )
    report(4, "weak-coupling ensemble", ok,
           f"mean ND/N={mean_frac:.4f} (target 0.202+-0.02), "
           f"mass above 500: {heavy_tail:.3f}, unimodal: {unimodal}")


def test_05_strong_coupling_ensemble():
    params = ModelParams(n_firms=1000, j0=0.02, sigma_j=0.001)
    stats = run_ensemble(params, 200, master_seed=105)
    mean_frac = stats.mean_nd / params.n_firms
    high = fraction_between(stats.nd_values, 800, 1000)
    low = fraction_between(stats.nd_values, 0, 500)
    dip = fraction_between(stats.nd_values, 501, 799)
    ok = (
        high >= 0.05
        and 0.25 <= mean_frac <= 0.36
        and dip < high
        and dip < low
    )
    report(5, "strong-coupling ensemble", ok,
           f"mean ND/N={mean_frac:.4f} (target [0.25, 0.36]), "
           f"mass in [800,1000]: {high:.3f} (>= 0.05), "
           f"bimodal split low/dip/high = {low:.2f}/{dip:.2f}/{high:.2f}")


def test_06_semivariance_jump():
    n = 1000
    j_critical = 3.0 / n
    quiet = run_ensemble(
        ModelParams(n_firms=n, j0=0.1 * j_critical, sigma_j=0.001), 200,
        master_seed=106,
    )
    loud = run_ensemble(
        ModelParams(n_firms=n, j0=2.0 * j_critical, sigma_j=0.001), 200,
        master_seed=1106,
    )
    ratio = loud.semivariance_plus / quiet.semivariance_plus
    ok = loud.semivariance_plus >= 10.0 * quiet.semivariance_plus
    report(6, "semivariance jump", ok,
           f"Var+ at 2Jc / Var+ at 0.1Jc = {loud.semivariance_plus:.1f}"
           f"/{quiet.semivariance_plus:.1f} = {ratio:.0f}x (>= 10x)")


def test_07_drift_field_optimum():
    # published scale: the optimum location j0*N ~ 20 carries a finite-size
    # shift at small N (about 13 at N=300), so this sweep stays at N=1000
    n, k = 1000, 200
    base = ModelParams(
        n_firms=n, sigma_j=0.001,
        f_table=f_table_from_weights(*RATING_DRIFT_WEIGHTS),
    )
    j0n_grid = np.linspace(0.0, 40.0, 20)
    spec = SweepSpec(
        base=base,
        sweep_variable="j0",
        values=tuple(j0n_grid / n),
        k_realizations=k,
        master_seed=107,
    )
    result = run_sweep(spec)
    argmin_j0n = j0n_grid[result.argmin_index]
    var_at_min = result.points[result.argmin_index].stats.semivariance_plus
    var_at_top = result.points[-1].stats.semivariance_plus
    ok = 10.0 <= argmin_j0n <= 30.0 and var_at_top >= 10.0 * var_at_min
    report(7, "drift-field optimum", ok,
           f"argmin of mean ND at j0*N={argmin_j0n:.1f} (target [10, 30]), "
           f"Var+ at 40 / at argmin = {var_at_top:.1f}/{var_at_min:.2f}")


@lru_cache(maxsize=1)
def glass_sweep():
    spec = SweepSpec(
        base=ModelParams(n_firms=1000, sigma_j=0.2),
        sweep_variable="j0",
        values=(0.0, 0.0075, 0.015, 0.0225, 0.03),
        k_realizations=150,
        master_seed=108,
    )
    return run_sweep(spec)


def test_08a_strong_disorder_transition():
    # the transition shows as a rising mean, exploding semivariance and the
    # appearance of collective-crash realizations absent at j0 = 0
    result = glass_sweep()
    first, last = result.points[0].stats, result.points[-1].stats
    n = result.spec.base.n_firms
    var_ratio = last.semivariance_plus / first.semivariance_plus
    crash_mass_first = fraction_between(first.nd_values, 600, n)
    crash_mass_last = fraction_between(last.nd_values, 600, n)
    ok = (
        last.mean_nd > first.mean_nd
        and var_ratio >= 10.0
        and crash_mass_first <= 0.01
        and crash_mass_last >= 0.05
    )
    report(8, "strong-disorder transition", ok,
           f"mean ND/N {first.mean_nd / n:.3f} -> {last.mean_nd / n:.3f}, "
           f"Var+ ratio {var_ratio:.0f}x (>= 10x), collective-crash mass "
           f"{crash_mass_first:.2f} -> {crash_mass_last:.2f}")


def test_08b_strong_disorder_low_coupling_level():
    result = glass_sweep()
    n = result.spec.base.n_firms
    mean_frac = result.points[0].stats.mean_nd / n
    ok = abs(mean_frac - PARAMAGNETIC_LEVEL) <= 0.03
    report(8, "strong-disorder zero-coupling level", ok,
           f"mean ND/N={mean_frac:.4f} vs target 0.202+-0.03; the sticky "
           f"strong-disorder dynamics holds the default level near 0.30, "
           f"well above the independent-firm level")


# ---------------------------------------------------------------------------
# 9: determinism across worker counts
# ---------------------------------------------------------------------------


def test_09_thread_count_determinism():
    spec = SweepSpec(
        base=ModelParams(n_firms=200, j0=0.001, sigma_j=0.01),
        sweep_variable="j0",
        values=(0.0, 0.002),
        k_realizations=16,
        master_seed=109,
    )
    payloads = []
    for threads in (1, 4, 8):
        result = run_sweep(spec, threads=threads)
        result.metadata["wall_time_s"] = 0.0  # timing is the one allowed difference
        payloads.append(result_to_json(result).encode())
    ok = payloads[0] == payloads[1] == payloads[2]
    report(9, "worker-count determinism", ok,
           f"json bytes identical across 1/4/8 workers: {ok} "
           f"({len(payloads[0])} bytes)")


# ---------------------------------------------------------------------------
# 10: randomized invariant suite (>= 10^4 cases per invariant)
# ---------------------------------------------------------------------------


def test_10_invariant_suite():
    rng = np.random.default_rng(110)

    # barrier: absorption, reflection, range
    cases = 0
    for _ in range(10_000):
        r_max = int(rng.integers(1, 12))
        rating = int(rng.integers(0, r_max + 1))
        spin = int(rng.integers(-1, 2))
        result = apply_rating_barrier(rating, spin, r_max)
        assert 0 <= result <= r_max
        if rating == 0:
            assert result == 0
        elif rating == r_max and spin == 1:
            assert result == r_max
        else:
            assert result == rating + spin
        cases += 1
    barrier_cases = cases

    # normalization under arbitrary fields up to 1e6
    state = EnsembleState(
        ratings=np.array([3], dtype=np.int64),
        spins=np.array([0], dtype=np.int64),
        local_fields=np.zeros((1, 3)),
    )
    table = zero_f_table()
    for _ in range(10_000):
        state.local_fields[0] = rng.uniform(-1e6, 1e6, size=3)
        probs = conditional_spin_distribution(state, 0, table)
        total = float(probs.sum())
        assert abs(total - 1.0) <= 1e-12
        assert np.all(probs >= 0) and np.all(probs <= 1)

    # field-cache coherence across 10^4 micro-updates
    params = ModelParams(n_firms=50, j0=0.05, sigma_j=0.4)
    couplings = sample_coupling_matrix(params, rng)
    sim_state = initial_state(params, couplings, rng)
    for i in range(10_000):
        micro_update(sim_state, couplings, int(rng.integers(0, 50)), params, rng)
        if i % 500 == 499:
            reference = compute_local_fields(couplings, sim_state.spins)
            assert np.max(np.abs(sim_state.local_fields - reference)) < 1e-9
        assert 0 <= sim_state.ratings.min() and sim_state.ratings.max() <= params.r_max
    reference = compute_local_fields(couplings, sim_state.spins)
    assert np.max(np.abs(sim_state.local_fields - reference)) < 1e-9

    # coupling symmetry and zero diagonal over >= 10^4 sampled pairs
    pair_cases = 0
    while pair_cases < 10_000:
        n = int(rng.integers(2, 25))
        matrix = sample_coupling_matrix(
            ModelParams(n_firms=n, j0=float(rng.normal()),
                        sigma_j=float(rng.uniform(0, 2))),
            rng,
        )
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)
        pair_cases += n * (n - 1) // 2

    report(10, "invariant suite", True,
           f"barrier {barrier_cases}, normalization 10000, cache updates 10000, "
           f"coupling pairs {pair_cases} randomized cases")
