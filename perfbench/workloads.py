"""The four firmglass benchmark workloads.

Each workload builds its inputs from a seed, times operations for a given
number of seconds through the entry points firmglass's users call
(``run_ensemble``, ``cli.cli(["reproduce", ...])`` and the mean-field
functions), checks the outputs, and has a traced variant that yields the
per-layer figures.  An operation is one realization (the three simulation
workloads) or one beta point (``meanfield-scan``).  An operation that raises
is counted as failed and the workload goes on; so is one whose output fails
its checks, which is then left out of the timings.

Why these workloads:

* ``ensemble-weak-n1000`` - the published-scale paramagnet (j0=1e-4).  About
  two thirds of micro-updates flip a move, so dynamics time goes mostly into
  writing two field-cache columns per flip.  One process, no pool.
* ``ensemble-glass-n1000`` - same sizes and layers at j0=0, sigma_j=0.2,
  where about one micro-update in five flips: dynamics time goes into the
  heat-bath read of the field row, and coupling sampling is a larger share.
  A change that trades read cost for write cost shows up against the weak
  workload.
* ``sweep-drift-n300-w2`` - the fig8-9 preset through the CLI at N=300 with
  two workers: 21 sweep values, one worker pool per value, JSON emission.
  Orchestration dominates; the couplings fit in L2.
* ``meanfield-scan`` - fixed points and their chain default level over beta
  in [0, 40], plus ``critical_beta`` and the closed-form deviation grid.  It
  bypasses every simulation layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from firmglass import cli, core, experiment, meanfield, riskstats
from tracing import Tracer

#: Fixed seed of the regression oracle: its ND values must not change unless
#: a change means to alter simulated results seed for seed.
ORACLE_SEED = 2009
ORACLE_K = 4
GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))

#: fig8-9 sweeps j0*N over linspace(0, 40, 21).
SWEEP_VALUES = 21
SWEEP_WORKERS = 2
#: Realizations per value the argmin check needs.  At N=300 the minimum sits
#: on a flat floor near j0*N = 12-14 next to rare collective crashes; with
#: fewer realizations per value the noisy argmin often leaves [10, 30].
ARGMIN_MIN_K = 96
#: Realizations replayed through the flip-counting pass per traced run.
FLIP_SAMPLE = 8
#: After each timed sample of an untraced run, calibration loops run for
#: this share of the sample's wall time.
CAL_SHARE = 0.1
#: Calibration loops per second that untraced timings are scaled to: about
#: the rate of the 2-vCPU virtual machine this benchmark was tuned on, whose
#: speed drifts by up to 1.7x over minutes.
CAL_REFERENCE_RATE = 120.0


@dataclass(frozen=True)
class Size:
    name: str
    n_sim: int        # firms in the two ensemble workloads
    k_batch: int      # realizations per run_ensemble call
    n_sweep: int      # firms in the drift sweep
    k_sweep: int      # realizations per sweep value
    min_sweeps: int   # sweeps per run at least, pooled by the argmin check
    beta_step: float  # meanfield-scan grid step over [0, 40]
    grid_step: float  # closed_form_deviation_grid step
    setup_probes: int  # fresh interpreters timed for setup_s


SIZES = {
    "full": Size("full", 1000, 8, 300, 32, 3, 0.5, 0.01, 9),
    "toy": Size("toy", 50, 4, 50, 4, 1, 4.0, 0.1, 2),
}


@dataclass
class Outcome:
    """What one run did: operation counts, timed samples, checks, figures."""

    attempted: int = 0
    failed: int = 0
    samples: list = field(default_factory=list)  # (ops, wall_s, cpu_s) per timed unit
    checks: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # per-layer metric -> value
    tracer: Tracer | None = None
    calibrate: bool = False
    cal_loops: int = 0
    cal_seconds: float = 0.0

    def record(self, ops: int, wall: float, cpu: float) -> None:
        """Keep one timed sample; then, if calibrating, time the machine."""
        self.samples.append((ops, wall, cpu))
        if self.calibrate:
            loops, elapsed = calibrate_for(CAL_SHARE * wall)
            self.cal_loops += loops
            self.cal_seconds += elapsed

    @property
    def machine_speed(self) -> float:
        """Measured calibration rate over CAL_REFERENCE_RATE; 1 if not measured."""
        if not self.cal_seconds:
            return 1.0
        return self.cal_loops / self.cal_seconds / CAL_REFERENCE_RATE

    def fail(self, ops: int, reason: str) -> None:
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(reason)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks[name] = {"ok": bool(ok), "detail": detail}


def calibration_loop() -> float:
    """Fixed interpreter and small-numpy work that calls no firmglass code.

    The machine's speed drifts between states lasting seconds to minutes.
    Timing this loop between samples measures the state the samples ran in.
    """
    fields, row, total = np.zeros((300, 3)), np.ones(300), 0.0
    for n in range(3000):
        cached = fields[n % 300]
        a, b, c = float(cached[0]) + 0.1, float(cached[1]), float(cached[2])
        top = max(a, b, c)
        total += math.exp(a - top) + math.exp(b - top) + math.exp(c - top)
        if n % 2:
            fields[:, 0] -= row
            fields[:, 1] += row
    return total


def calibrate_for(budget: float) -> tuple[int, float]:
    """Run calibration loops for at least ``budget`` seconds; (loops, seconds)."""
    loops, start = 0, time.perf_counter()
    while True:
        calibration_loop()
        loops += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return loops, elapsed


def cpu_now() -> float:
    """CPU seconds of this process (all threads) plus its reaped workers."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def digest(values) -> str:
    return hashlib.sha256(",".join(str(int(v)) for v in values).encode()).hexdigest()[:16]


def check_golden(out: Outcome, workload: str, size: Size, values) -> None:
    got, want = digest(values), GOLDEN[workload][size.name]
    out.check("oracle_nd_digest", got == want,
              f"ND digest at seed {ORACLE_SEED}: {got}, expected {want}")


def fresh(seq: np.random.SeedSequence) -> np.random.SeedSequence:
    """Copy of ``seq`` that has spawned no children yet."""
    return np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli(argv)
    return code, out.getvalue(), err.getvalue()


def span_or_nothing(tracer: Tracer | None):
    """``tracer.span``, or a stand-in that records nothing when untraced."""
    return tracer.span if tracer else lambda name, **_: contextlib.nullcontext()


def set_median(out: Outcome, metric: str, values, scale: float = 1.0) -> None:
    """Set a per-layer figure to the scaled median, if anything was measured."""
    values = list(values)
    if values:
        out.layers[metric] = scale * statistics.median(values)


# --------------------------------------------------------------------------
# The core layer, replayed through its public steps
# --------------------------------------------------------------------------

REPLAY_STEPS = ("sample_coupling_matrix", "initial_state", "time_step", "count_defaults")
COUNT_STEPS = ("sample_coupling_matrix", "initial_state", "draw_update_order",
               "micro_update", "count_defaults")


def has_all(module, names) -> bool:
    return all(hasattr(module, name) for name in names)


def replay(params, seed_seq, tracer: Tracer) -> int:
    """One realization through core's steps, in run_realization's draw order."""
    with tracer.span("core.realization"):
        rng = np.random.default_rng(seed_seq)
        with tracer.span("core.coupling"):
            couplings = core.sample_coupling_matrix(params, rng)
        with tracer.span("core.init"):
            state = core.initial_state(params, couplings, rng)
        with tracer.span("core.dynamics", cpu=True):
            for _ in range(params.steps):
                core.time_step(state, couplings, params, rng)
        return core.count_defaults(state)


def count_flips(params, seed_seq) -> tuple[int, int]:
    """Exact number of move changes in one realization, and its ND."""
    rng = np.random.default_rng(seed_seq)
    couplings = core.sample_coupling_matrix(params, rng)
    state = core.initial_state(params, couplings, rng)
    flips = 0
    for _ in range(params.steps):
        for firm in core.draw_update_order(params, rng):
            old = state.spins[firm]
            core.micro_update(state, couplings, int(firm), params, rng)
            flips += int(state.spins[firm] != old)
    return flips, core.count_defaults(state)


def replay_jobs(out: Outcome, jobs, tracer: Tracer) -> list[float] | None:
    """Replay (params, seed, expected ND) jobs; each replay's wall time.

    None when core lacks one of the steps: the layer is then reported absent.
    """
    if not has_all(core, REPLAY_STEPS):
        tracer.absent.add("core")
        return None
    walls, tally = [], out.info.setdefault("replays_matching", [0, 0])
    for params, seed_seq, expected in jobs:
        t0 = time.perf_counter()
        nd = replay(params, fresh(seed_seq), tracer)
        walls.append(time.perf_counter() - t0)
        tally[0] += int(nd == expected)
        tally[1] += 1
    out.check("replay_nd_equals_untraced", tally[0] == tally[1],
              f"{tally[0]}/{tally[1]} replayed realizations match")
    return walls


def core_figures(out: Outcome, tracer: Tracer, n_firms: int, steps: int) -> None:
    """core.* figures from the replay spans."""
    realizations = tracer.durations("core.realization")
    coupling = tracer.durations("core.coupling")
    dynamics = [s for s in tracer.spans if s["name"] == "core.dynamics"]
    if not dynamics:
        return
    dynamics_wall = [s["end"] - s["start"] for s in dynamics]
    out.layers.update({
        "core.coupling_ms": 1e3 * statistics.median(coupling),
        "core.coupling_share": statistics.median(c / r for c, r in zip(coupling, realizations)),
        "core.coupling_bytes": n_firms * n_firms * 8,
        "core.init_ms": 1e3 * statistics.median(tracer.durations("core.init")),
        "core.dynamics_ms": 1e3 * statistics.median(dynamics_wall),
        "core.micro_updates_per_s": statistics.median(n_firms * steps / w for w in dynamics_wall),
        "core.dynamics_cpu_per_wall": sum(s["cpu"] for s in dynamics) / sum(dynamics_wall),
    })


def count_flips_into(out: Outcome, tracer: Tracer, jobs) -> None:
    """Exact flip figures from a separate, untimed pass over some jobs."""
    if not has_all(core, COUNT_STEPS):
        tracer.absent.add("core.micro_update")
        return
    flips, matching = [], 0
    for params, seed_seq, expected in jobs[:FLIP_SAMPLE]:
        count, nd = count_flips(params, fresh(seed_seq))
        flips.append(count)
        matching += int(nd == expected)
    out.check("flip_count_pass_nd_equals_untraced", matching == len(flips),
              f"{matching}/{len(flips)} counted realizations match")
    n_firms, steps = jobs[0][0].n_firms, jobs[0][0].steps
    out.layers["core.flip_ratio"] = sum(flips) / (len(flips) * n_firms * steps)
    # each flip rewrites two field-cache columns of N float64 values
    out.layers["core.field_update_bytes"] = statistics.fmean(flips) * 2 * n_firms * 8


# --------------------------------------------------------------------------
# ensemble-weak-n1000 and ensemble-glass-n1000
# --------------------------------------------------------------------------


class EnsembleWorkload:
    def __init__(self, name: str, j0: float, sigma_j: float, level_check: bool):
        self.name, self.j0, self.sigma_j, self.level_check = name, j0, sigma_j, level_check

    def inputs(self, seed: int, size: Size):
        params = core.ModelParams(n_firms=size.n_sim, j0=self.j0, sigma_j=self.sigma_j)
        return params, np.random.SeedSequence(seed)

    def _batch(self, params, root, k: int, out: Outcome):
        """One timed run_ensemble call of k realizations: (seed, ND values) or None."""
        batch_seed = root.spawn(1)[0]
        out.attempted += k
        t0, c0 = time.perf_counter(), cpu_now()
        try:
            stats = experiment.run_ensemble(params, k, batch_seed, threads=1)
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            out.fail(k, f"run_ensemble: {exc!r}")
            return None
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        nds = [int(v) for v in stats.nd_values]
        if len(nds) != k or not all(0 <= v <= params.n_firms for v in nds):
            out.fail(k, f"run_ensemble returned ND values outside [0, N] or not {k} of them")
            return None
        out.record(k, wall, cpu)
        if "nd_digest_first_batch" not in out.info:
            out.info["nd_digest_first_batch"] = digest(nds)
        return batch_seed, nds

    def measure(self, seed: int, size: Size, seconds: float) -> Outcome:
        params, root = self.inputs(seed, size)
        out = Outcome(calibrate=True)
        nds, start = [], time.perf_counter()
        while out.attempted == 0 or time.perf_counter() - start < seconds:
            batch = self._batch(params, root, size.k_batch, out)
            if batch is not None:
                nds += batch[1]
        if self.level_check and nds:
            level = meanfield.default_fraction_markov(1 / 3, 1 / 3)
            frac = statistics.fmean(nds) / params.n_firms
            # 0.02 as in the published-scale check, wider for small samples
            tol = max(0.02, 5 * math.sqrt(level * (1 - level) / (len(nds) * params.n_firms)))
            out.check("mean_nd_frac_near_chain_level", abs(frac - level) <= tol,
                      f"mean ND/N {frac:.4f} over {len(nds)} realizations, "
                      f"expected {level:.4f} +- {tol:.4f}")
        return out

    def verify(self, size: Size, out: Outcome) -> None:
        params = core.ModelParams(n_firms=size.n_sim, j0=self.j0, sigma_j=self.sigma_j)
        stats = experiment.run_ensemble(params, ORACLE_K, ORACLE_SEED, threads=1)
        check_golden(out, self.name, size, stats.nd_values)

    def trace(self, seed: int, size: Size, seconds: float) -> Outcome:
        """Each timed batch is replayed, traced, right after it ran untraced."""
        params, root = self.inputs(seed, size)
        out = Outcome(tracer=Tracer())
        tracer = out.tracer
        batches, first_jobs, start = [], None, time.perf_counter()
        while out.attempted == 0 or time.perf_counter() - start < 0.5 * seconds:
            batch = self._batch(params, root, size.k_batch, out)
            if batch is None:
                continue
            batch_seed, nds = batch
            jobs = [(params, child, nd) for child, nd in zip(fresh(batch_seed).spawn(len(nds)), nds)]
            walls = replay_jobs(out, jobs, tracer)
            if walls is None:
                continue  # core is absent: only the untraced timings remain
            t0 = time.perf_counter()
            with tracer.span("riskstats.ensemble_stats"):
                riskstats.ensemble_stats(nds)
            batches.append((out.samples[-1][1], sum(walls), sum(walls) + time.perf_counter() - t0))
            first_jobs = first_jobs or jobs
        ensemble_walls = [wall for _, wall, _ in out.samples]
        set_median(out, "experiment.ensemble_s_p50", ensemble_walls)
        if ensemble_walls:
            out.layers["experiment.ensemble_s_max"] = max(ensemble_walls)
        if not batches:
            return out
        untraced, work, traced = (list(column) for column in zip(*batches))
        core_figures(out, tracer, params.n_firms, params.steps)
        count_flips_into(out, tracer, first_jobs)
        out.layers.update({
            "experiment.parallel_efficiency": sum(work) / sum(untraced),
            "experiment.orchestration_overhead_s": (sum(untraced) - sum(work)) / len(untraced),
            "trace.overhead_frac": sum(traced) / sum(untraced) - 1.0,
        })
        set_median(out, "riskstats.stats_ms", tracer.durations("riskstats.ensemble_stats"), 1e3)
        return out


# --------------------------------------------------------------------------
# sweep-drift-n300-w2
# --------------------------------------------------------------------------


class SweepWorkload:
    name = "sweep-drift-n300-w2"

    @staticmethod
    def master_seed(seed: int, index: int) -> int:
        return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])

    def argv(self, size: Size, master_seed: int, k: int) -> list[str]:
        return ["reproduce", "fig8-9", "--n", str(size.n_sweep), "--k", str(k),
                "--threads", str(SWEEP_WORKERS), "--seed", str(master_seed)]

    def inputs(self, seed: int, size: Size):
        return [self.argv(size, self.master_seed(seed, i), size.k_sweep)
                for i in range(size.min_sweeps)]

    def _sweep(self, argv: list[str], k: int, n: int, out: Outcome, tracer=None):
        """One timed CLI sweep; returns (document, output bytes) or None."""
        ops = SWEEP_VALUES * k
        out.attempted += ops
        t0, c0 = time.perf_counter(), cpu_now()
        with span_or_nothing(tracer)("cli.cli"):
            code, text, err = run_cli(argv)
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        if code != 0:
            out.fail(ops, f"cli exit {code}: {err.strip()[-300:]}")
            return None
        doc = json.loads(text)
        failed_values = len(doc["metadata"].get("failed_values", {}))
        points = doc["points"]
        if len(doc["values"]) != SWEEP_VALUES or len(points) + failed_values != SWEEP_VALUES or not all(
            len(p["nd_values"]) == k and all(0 <= v <= n for v in p["nd_values"]) for p in points
        ):
            out.fail(ops, "sweep output has the wrong number of values or ND outside [0, N]")
            return None
        if failed_values:
            out.fail(failed_values * k, f"failed sweep values: {doc['metadata']['failed_values']}")
        out.record(len(points) * k, wall, cpu)
        return doc, len(text.encode())

    def measure(self, seed: int, size: Size, seconds: float) -> Outcome:
        out = Outcome(calibrate=True)
        pooled: dict[float, list[int]] = {}
        start = time.perf_counter()
        index = 0
        while index < size.min_sweeps or time.perf_counter() - start < seconds:
            argv = self.argv(size, self.master_seed(seed, index), size.k_sweep)
            result = self._sweep(argv, size.k_sweep, size.n_sweep, out)
            if result is not None:
                if "nd_digest_first_sweep" not in out.info:
                    out.info["nd_digest_first_sweep"] = digest(
                        v for p in result[0]["points"] for v in p["nd_values"])
                for point in result[0]["points"]:
                    pooled.setdefault(point["sweep_value"], []).extend(point["nd_values"])
            index += 1
        if pooled:
            k_pooled = min(len(v) for v in pooled.values())
            if k_pooled >= ARGMIN_MIN_K:
                values = sorted(pooled)
                best = values[int(np.argmin([statistics.fmean(pooled[v]) for v in values]))]
                j0n = round(best * size.n_sweep, 6)
                out.check("argmin_j0n_in_10_30", 10 <= j0n <= 30,
                          f"argmin of mean ND at j0*N={j0n:g} over {k_pooled} realizations per value")
            else:
                out.info["argmin_check"] = (
                    f"skipped: {k_pooled} realizations per value, needs {ARGMIN_MIN_K}")
        return out

    def verify(self, size: Size, out: Outcome) -> None:
        check = Outcome()
        result = self._sweep(self.argv(size, ORACLE_SEED, 2), 2, size.n_sweep, check)
        if result is None:
            out.check("oracle_nd_digest", False, f"oracle sweep failed: {check.errors}")
            return
        check_golden(out, self.name, size, (v for p in result[0]["points"] for v in p["nd_values"]))

    def trace(self, seed: int, size: Size, seconds: float) -> Outcome:
        """The run's first sweep untraced, then traced; ``seconds`` is not used."""
        out = Outcome(tracer=Tracer())
        tracer = out.tracer
        master = self.master_seed(seed, 0)
        argv = self.argv(size, master, size.k_sweep)
        untraced = self._sweep(argv, size.k_sweep, size.n_sweep, out)
        targets = [
            (cli, "run_sweep", "experiment.run_sweep"),
            (cli, "emit", "experiment.emit"),
            (experiment, "run_ensemble", "experiment.run_ensemble"),
            (experiment, "ensemble_stats", "riskstats.ensemble_stats"),
            (experiment, "predict_phase", "meanfield.predict_phase"),
        ]
        with tracer.patched(targets):
            traced = self._sweep(argv, size.k_sweep, size.n_sweep, out, tracer)
        if untraced is None or traced is None:
            return out
        (doc, _), (traced_doc, output_bytes) = untraced, traced
        same = [p["nd_values"] for p in doc["points"]] == [p["nd_values"] for p in traced_doc["points"]]
        out.check("traced_sweep_equals_untraced", same, "ND values of the traced and untraced sweep")

        spec = experiment.preset_spec("fig8-9", n_firms=size.n_sweep,
                                      k_realizations=size.k_sweep, master_seed=master)
        value_seeds = np.random.SeedSequence(master).spawn(len(spec.values))
        by_value = {p["sweep_value"]: p["nd_values"] for p in doc["points"]}
        jobs, job_values = [], []
        for value, value_seed in zip(spec.values, value_seeds):
            if value not in by_value:
                continue
            children = value_seed.spawn(size.k_sweep)
            for k in (0, 1):
                jobs.append((spec.params_at(value), children[k], by_value[value][k]))
                job_values.append(value)
        walls = replay_jobs(out, jobs, tracer) if jobs else None
        if walls is not None:
            core_figures(out, tracer, size.n_sweep, spec.base.steps)
            count_flips_into(out, tracer, jobs)

        cli_span = next(s for s in tracer.spans if s["name"] == "cli.cli")
        ensemble_walls = tracer.durations("experiment.run_ensemble")
        out.layers.update({
            "cli.overhead_ms": 1e3 * tracer.self_time(cli_span),
            "experiment.serialize_ms": 1e3 * sum(tracer.durations("experiment.emit")),
            "experiment.output_bytes": output_bytes,
            "trace.overhead_frac": out.samples[1][1] / out.samples[0][1] - 1.0,
        })
        set_median(out, "riskstats.stats_ms", tracer.durations("riskstats.ensemble_stats"), 1e3)
        set_median(out, "experiment.ensemble_s_p50", ensemble_walls)
        if ensemble_walls:
            out.layers["experiment.ensemble_s_max"] = max(ensemble_walls)
        if walls and ensemble_walls:
            per_value: dict[float, list[float]] = {}
            for value, wall in zip(job_values, walls):
                per_value.setdefault(value, []).append(wall)
            # serial realization work per value, estimated from the replays
            work = sum(size.k_sweep * statistics.fmean(w) for w in per_value.values())
            out.layers["experiment.parallel_efficiency"] = work / (SWEEP_WORKERS * sum(ensemble_walls))
            out.layers["experiment.orchestration_overhead_s"] = (
                sum(ensemble_walls) - work / SWEEP_WORKERS) / len(ensemble_walls)
        return out


# --------------------------------------------------------------------------
# meanfield-scan
# --------------------------------------------------------------------------


class MeanfieldWorkload:
    name = "meanfield-scan"

    def inputs(self, seed: int, size: Size) -> list[float]:
        """The beta grid over [0, 40]; the seed sets only the visiting order."""
        betas = np.arange(0.0, 40.0 + size.beta_step / 2, size.beta_step)
        return [float(b) for b in np.random.default_rng(seed).permutation(betas)]

    def _scan(self, betas, size: Size, out: Outcome, tracer=None):
        span = span_or_nothing(tracer)
        fixed: dict[float, list[tuple[float, float, float]]] = {}
        t0, c0 = time.perf_counter(), cpu_now()
        for beta in betas:
            out.attempted += 1
            try:
                with span("meanfield.fixed_points"):
                    points = meanfield.mean_field_fixed_points(beta)
                rows = []
                for point in points:
                    with span("meanfield.markov"):
                        level = meanfield.default_fraction_markov(point.p_up, point.q_down)
                    rows.append((point.p_up, point.q_down, level))
                fixed[beta] = rows
            except Exception as exc:  # noqa: BLE001 - counted, the scan goes on
                out.fail(1, f"beta={beta:g}: {exc!r}")
        with span("meanfield.critical_beta"):
            beta_c = meanfield.critical_beta()
        with span("meanfield.deviation_grid"):
            grid = meanfield.closed_form_deviation_grid(size.grid_step)
        out.record(len(betas), time.perf_counter() - t0, cpu_now() - c0)
        return fixed, beta_c, grid

    def measure(self, seed: int, size: Size, seconds: float) -> Outcome:
        out = Outcome(calibrate=True)
        betas = self.inputs(seed, size)
        start = time.perf_counter()
        first = self._scan(betas, size, out)
        while time.perf_counter() - start < seconds:
            self._scan(betas, size, out)
        self._check(first, size, out)
        failed = sorted(set(betas) - set(first[0]))
        out.info["failed_betas_per_scan"] = len(failed)
        out.info["failed_beta_min"] = failed[0] if failed else None
        return out

    def verify(self, size: Size, out: Outcome) -> None:
        """Checks run on the first scan's output inside ``measure``/``trace``."""

    @staticmethod
    def _check(result, size: Size, out: Outcome) -> None:
        fixed, beta_c, grid = result
        out.check("critical_beta_near_3", abs(beta_c - 3.0) < 1e-3, f"critical_beta() = {beta_c}")
        below = {b: rows for b, rows in fixed.items() if b < 3.0}
        unique = all(
            len(rows) == 1 and abs(rows[0][0] - 1 / 3) < 1e-6 and abs(rows[0][1] - 1 / 3) < 1e-6
            for rows in below.values()
        )
        out.check("symmetric_point_only_below_3", unique,
                  f"{len(below)} beta points below 3, each with the single point (1/3, 1/3)")
        genuine = all(
            max(abs(m - x) for m, x in zip(meanfield.mean_field_map(p, q, beta), (p, q))) < 1e-8
            and 0.0 <= level <= 1.0
            for beta, rows in fixed.items() for p, q, level in rows
        )
        out.check("fixed_points_genuine", genuine,
                  "every fixed point maps to itself within 1e-8 and has a level in [0, 1]")
        levels = round(1.0 / size.grid_step)
        out.check("deviation_grid_complete",
                  len(grid) == (levels + 1) * (levels + 2) // 2
                  and all(math.isfinite(v) for row in grid for v in row),
                  f"{len(grid)} finite rows")

    def trace(self, seed: int, size: Size, seconds: float) -> Outcome:
        out = Outcome(tracer=Tracer())
        tracer = out.tracer
        betas = self.inputs(seed, size)
        scans, failed, start = 0, 0, time.perf_counter()
        while scans == 0 or time.perf_counter() - start < 0.8 * seconds:
            self._scan(betas, size, out)  # untraced, then the same scan traced
            before = out.failed
            result = self._scan(betas, size, out, tracer)
            failed += out.failed - before
            scans += 1
        self._check(result, size, out)
        walls = [wall for _, wall, _ in out.samples]
        fixed_points = tracer.durations("meanfield.fixed_points")
        out.layers.update({
            "meanfield.fixed_points_ms_max": 1e3 * max(fixed_points),
            "meanfield.fixed_points_failed": failed / scans,
            "trace.overhead_frac": sum(walls[1::2]) / sum(walls[0::2]) - 1.0,
        })
        set_median(out, "meanfield.fixed_points_ms_p50", fixed_points, 1e3)
        set_median(out, "meanfield.critical_beta_ms", tracer.durations("meanfield.critical_beta"), 1e3)
        set_median(out, "meanfield.markov_us", tracer.durations("meanfield.markov"), 1e6)
        set_median(out, "meanfield.deviation_grid_ms",
                   tracer.durations("meanfield.deviation_grid"), 1e3)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        EnsembleWorkload("ensemble-weak-n1000", j0=1e-4, sigma_j=0.001, level_check=True),
        EnsembleWorkload("ensemble-glass-n1000", j0=0.0, sigma_j=0.2, level_check=False),
        SweepWorkload(),
        MeanfieldWorkload(),
    )
}
