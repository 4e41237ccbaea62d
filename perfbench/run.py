"""firmglass benchmark: end-to-end metrics per workload, or per-layer ones traced.

Run from the repository root; firmglass is imported from ``src/``::

    python3 perfbench/run.py --workload ensemble-weak-n1000 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A single-workload run prints a readable report, then one ``detail`` JSON line
(environment stamp, sample counts, checks, failures), and last one JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A per-layer metric of a layer the workload does not run
reads 0.  ``--workload all`` runs every workload in its own process and
prints one table; ``--smoke`` does that at toy size in both modes and
checks the results, as the benchmark's own test.

BLAS thread variables are recorded as found and never set: oversubscribed
BLAS threads are one of the costs this benchmark measures.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_firmglass():
    """Import firmglass from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "firmglass" / "__init__.py").is_file():
        sys.exit(f"perfbench: firmglass sources not found under {src}")
    sys.path.insert(0, str(src))
    import firmglass

    if Path(firmglass.__file__).resolve().parent != src / "firmglass":
        sys.exit(f"perfbench: imported firmglass from {firmglass.__file__}, not {src}")
    return firmglass


def declared_metrics() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
        "workloads": [w["name"] for w in bench["workloads"]],
    }


def cache_sizes() -> dict:
    """L2 and L3 sizes in bytes as the C library reports them."""
    sizes = {}
    for level in (2, 3):
        try:
            sizes[f"L{level}"] = subprocess.run(
                ["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sizes[f"L{level}"] = "unknown"
    return sizes


def env_stamp(firmglass) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    resolve = getattr(firmglass.core, "resolve_engine", None)
    numba = importlib.util.find_spec("numba") is not None
    if importlib.util.find_spec("firmglass.kernels") is None:
        kernels = "absent: no kernels module"
    else:
        kernels = "present" if numba else "absent: numba not importable"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "numba": numba,
        "kernels_layer": kernels,
        "engine": resolve("auto") if resolve else "python (single engine)",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "firmglass": getattr(firmglass, "__version__", "unknown"),
    }


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024.0


def setup_seconds(args, probes: int) -> list[float]:
    """Wall times of fresh interpreters that import firmglass and build inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def tail(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    summary = {"n": len(ordered), "median": statistics.median(ordered)}
    if len(ordered) > 10:
        summary[f"p{100 * (len(ordered) - 10) // len(ordered)}"] = ordered[-11]
    summary["max"] = ordered[-1]
    return summary


def end_to_end(out, setups: list[float], rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics, the three times scaled to the reference machine.

    A run in a slow machine state reports what it would at reference speed
    (see ``Outcome.machine_speed``); the unscaled values go into the detail
    line.
    """
    ops, wall, cpu_s = (sum(column) for column in zip(*out.samples)) if out.samples else (0, 0, 0)
    speed = out.machine_speed
    raw = {
        "setup_s": statistics.median(setups),
        # run totals, not medians of samples, so a drift in machine speed
        # within the run moves the figure smoothly
        "ops_per_s": ops / wall if wall else 0.0,
        "cpu_s_per_op": cpu_s / ops if ops else 0.0,
    }
    values = {
        "setup_s": raw["setup_s"] * speed,
        "ops_per_s": raw["ops_per_s"] / speed,
        "cpu_s_per_op": raw["cpu_s_per_op"] * speed,
        "peak_rss_mb": rss_mb,
        "ok_frac": (out.attempted - out.failed) / out.attempted,
    }
    cpu = [cpu / ops for ops, _, cpu in out.samples]
    samples = {
        "setup_s": tail(setups),
        "seconds_per_op": tail([wall / ops for ops, wall, _ in out.samples]) if cpu else None,
        "cpu_s_per_op": tail(cpu) if cpu else None,
        "calibration_loops": out.cal_loops,
        "machine_speed": speed,
        "unscaled": raw,
    }
    return values, samples


def run_one(args, firmglass, workloads) -> int:
    declared = declared_metrics()
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    if args.trace:
        out = workload.trace(args.seed, size, args.seconds)
        unknown = set(out.layers) - set(declared["per_layer"])
        if unknown:
            sys.exit(f"perfbench: undeclared per-layer metrics {sorted(unknown)}")
        units = declared["per_layer"]
        values = {name: float(out.layers.get(name, 0.0)) for name in units}
        samples = {}
    else:
        out = workload.measure(args.seed, size, args.seconds)
        rss_mb = peak_rss_mb()
        setups = setup_seconds(args, size.setup_probes)
        units = declared["end_to_end"]
        values, samples = end_to_end(out, setups, rss_mb)
    try:
        workload.verify(size, out)
    except Exception as exc:  # noqa: BLE001 - a crashing oracle is a failed check
        out.check("oracle_nd_digest", False, f"oracle run raised {exc!r}")
    correct = bool(out.samples) and all(c["ok"] for c in out.checks.values())

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "env": env_stamp(firmglass),
        "samples": samples, "checks": out.checks, "info": out.info,
        "errors": out.errors,
    }
    if out.tracer is not None:
        detail["absent"] = sorted(out.tracer.absent)
        detail["not_run_here"] = sorted(set(units) - set(out.layers))
        path = ROOT / ".perfbench_runs" / f"trace-{args.workload}-seed{args.seed}.json"
        out.tracer.dump(path, {k: detail[k] for k in ("workload", "seed", "size", "env")})
        detail["trace_file"] = str(path.relative_to(ROOT))

    print(f"{args.workload} (seed {args.seed}, {args.size} size, trace {args.trace}): "
          f"{out.attempted} operations attempted, {out.failed} failed")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for name, check in out.checks.items():
        print(f"  check {name}: {'ok' if check['ok'] else 'FAILED'} - {check['detail']}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def run_all(args, traces) -> list[dict]:
    """Each workload in its own process; returns one record per run."""
    records = []
    for trace in traces:
        for name in declared_metrics()["workloads"]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                   "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            record = {"workload": name, "trace": trace, "code": proc.returncode,
                      "stderr": proc.stderr.strip()[-2000:]}
            if proc.returncode == 0 and len(lines) >= 2:
                record["result"] = json.loads(lines[-1])
                record["detail"] = json.loads(lines[-2].removeprefix("detail "))
            records.append(record)
    return records


def print_table(records) -> None:
    print(f"{'workload':22s} {'metric':40s} {'value':>14s} {'unit':8s} samples")
    for record in records:
        if "result" not in record:
            print(f"{record['workload']:22s} FAILED (exit {record['code']}): {record['stderr']}")
            continue
        result, samples = record["result"], record["detail"]["samples"]
        counts = {
            "setup_s": samples.get("setup_s", {}).get("n"),
            "ops_per_s": (samples.get("seconds_per_op") or {}).get("n"),
            "cpu_s_per_op": (samples.get("cpu_s_per_op") or {}).get("n"),
            "peak_rss_mb": 1,
            "ok_frac": result["attempted"],
        }
        for name, metric in result["metrics"].items():
            count = counts.get(name) if not record["trace"] else "-"
            print(f"{record['workload']:22s} {name:40s} {metric['value']:14.6g} "
                  f"{metric['unit']:8s} {count}")
        print(f"{record['workload']:22s} {'failed_frac':40s} "
              f"{result['failed'] / result['attempted']:14.6g} {'ratio':8s} "
              f"{result['attempted']}  correct={result['correct']}")


def smoke_problems(records) -> list[str]:
    declared = declared_metrics()
    problems = []
    for record in records:
        where = f"{record['workload']} trace={record['trace']}"
        if "result" not in record:
            problems.append(f"{where}: exit {record['code']}: {record['stderr']}")
            continue
        result = record["result"]
        wanted = declared["per_layer" if record["trace"] else "end_to_end"]
        if set(result["metrics"]) != set(wanted):
            problems.append(f"{where}: metrics differ from BENCHMARK.json")
        if not result["correct"]:
            problems.append(f"{where}: checks failed: {record['detail']['checks']}")
        if record["detail"].get("absent"):
            problems.append(f"{where}: layers absent: {record['detail']['absent']}")
        for name, metric in result["metrics"].items():
            if not math.isfinite(metric["value"]) or (not record["trace"] and metric["value"] <= 0):
                problems.append(f"{where}: {name} = {metric['value']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at toy size, untraced and traced, checked")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    firmglass = load_firmglass()
    import workloads

    if args.workload not in workloads.WORKLOADS and args.workload != "all":
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.WORKLOADS[args.workload].inputs(args.seed, workloads.SIZES[args.size])
        return 0
    if args.smoke:
        args.size, args.seconds = "toy", 1.0
        records = run_all(args, (0, 1))
        print_table(records)
        problems = smoke_problems(records)
        for problem in problems:
            print(f"smoke: {problem}")
        print(f"smoke: {'FAILED' if problems else 'ok'} ({len(records)} runs)")
        return 1 if problems else 0
    if args.workload == "all":
        records = run_all(args, (args.trace,))
        print_table(records)
        return 0 if all(r.get("result", {}).get("correct") for r in records) else 1
    return run_one(args, firmglass, workloads)


if __name__ == "__main__":
    sys.exit(main())
