"""Command-line interface: run, sweep, meanfield, oracle, reproduce.

Every command works on the paper's portfolio, ``core.STEPS`` time steps
over the ratings {0, ..., ``core.R_MAX``}, and ``--f-mode`` picks a drift
table of ``core.F_TABLES`` by name (``constant_table`` is the
``RATING_DRIFT_WEIGHTS`` drift); the library takes other values.

Each subcommand names its build step.  The build step reads the flags,
builds the work (a ``SweepSpec`` for run/sweep/reproduce, the output's text
chunks for meanfield/oracle; ``oracle --grid`` checks its step there and
leaves its rows to be computed as they are written) and returns the run
step, which runs the sweep and writes the output.  The input rules live in
the modules that own them and raise ``ValueError``; one raised while
building is a configuration error.

run, sweep and reproduce use every CPU the process may run on unless
``--threads`` says otherwise (the library default is 1 worker); the output
does not depend on the count.

Data goes to stdout (or --out); progress and timing go to stderr.
Exit codes: 0 success, 1 configuration error (raised while building, before
any output), 2 runtime failure (anything else).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable, Iterable
from functools import partial

import numpy as np

from .core import (F_TABLES, FIELD_MAX, R_MAX, RATING_DRIFT_WEIGHTS, STEPS, ModelParams,
                   require_integer, require_real)
from .experiment import (
    PRESET_NAMES,
    PRESET_SEED,
    SweepSpec,
    csv_chunks,
    emit,
    preset_spec,
    run_sweep,
    write_payload,
)
from .meanfield import (
    DEVIATION_GRID_STEP,
    _default_fractions,
    _deviation_grid_rows,
    default_fraction_closed_form,
    default_fraction_markov,
    mean_field_fixed_points,
)


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser: flags that several subcommands share, declared once."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _simulate(spec_of: Callable[[argparse.Namespace], SweepSpec],
              args: argparse.Namespace) -> Callable[[], None]:
    """Build a command that runs the sweep ``spec_of(args)``; return its run step."""
    for flag, value, minimum in (("--threads", args.threads, 1), ("--n", args.n, 1),
                                 ("--k", args.k, 1), ("--seed", args.seed, 0)):
        require_integer(flag, value, minimum)
    spec = spec_of(args)
    out = _out_path(args.out)
    # run_sweep and emit are looked up when the command runs
    return lambda: emit(run_sweep(spec, threads=args.threads), format=args.format, path=out)


def _out_path(path: str | None) -> str | None:
    """Refuse an ``--out`` that is empty, a directory or in a missing one; return it."""
    if path == "":  # os.path.dirname("") would pass it as "."
        raise ValueError("--out is empty")
    if path is not None:
        if os.path.isdir(path):
            raise ValueError(f"--out {path} is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ValueError(f"--out {path}: directory {parent} does not exist")
    return path


def _usable_cpus() -> int:
    """The CPUs this process may run on: the ``--threads`` default."""
    # os.sched_getaffinity is missing on some platforms (macOS), and
    # os.cpu_count may return None
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firmglass",
        description="Potts-glass firm-default simulator and mean-field analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = _flags()
    output.add_argument("--out", type=str, default=None,
                        help="output file (stdout when absent)")
    fmt = _flags()
    fmt.add_argument("--format", choices=("json", "csv"), default="json",
                     help="output format")
    ensemble = _flags()
    ensemble.add_argument("--n", type=int, default=1000, help="number of firms")
    ensemble.add_argument("--k", type=int, default=1000, help="realizations per ensemble")
    ensemble.add_argument("--threads", type=int, default=_usable_cpus(),
                          help="parallel workers (default: the CPUs this process may use)")
    # run and sweep set the model; reproduce takes it from the preset.  --help
    # lists --f-mode before the output flags and the other model flags after
    model = _flags(ensemble)
    weights = "/".join(f"{weight:.2f}" for weight in RATING_DRIFT_WEIGHTS)
    model.add_argument("--f-mode", choices=tuple(F_TABLES), default="zero",
                       help=f"drift term: off, or the per-move weights {weights}")
    model = _flags(model, output, fmt)
    model.add_argument("--sigma-j", type=float, default=0.001,
                       help="coupling standard deviation")
    model.add_argument("--seed", type=int, default=0, help="master seed")

    p_run = sub.add_parser("run", parents=[model],
                           help="one ensemble at a fixed parameter point")
    p_run.add_argument("--j0", type=float, default=0.0, help="mean coupling")
    p_run.set_defaults(build=partial(_simulate, lambda args: _make_spec(args, (args.j0,))))

    p_sweep = sub.add_parser("sweep", parents=[model], help="ensembles across a range of j0")
    p_sweep.add_argument("--j0-min", type=float, required=True)
    p_sweep.add_argument("--j0-max", type=float, required=True)
    p_sweep.add_argument("--j0-points", type=int, default=11)
    p_sweep.set_defaults(build=partial(
        _simulate, lambda args: _make_spec(args, tuple(_range(args, "j0")))))

    p_mf = sub.add_parser("meanfield", parents=[output, fmt],
                          help="fixed points and predicted default levels over a beta range")
    p_mf.add_argument("--beta-min", type=float, default=0.0)
    p_mf.add_argument("--beta-max", type=float, default=6.0)
    p_mf.add_argument("--beta-points", type=int, default=13)
    p_mf.set_defaults(build=lambda args: partial(write_payload, _meanfield_payload(args),
                                                 _out_path(args.out)))

    p_or = sub.add_parser("oracle", parents=[output],
                          help="exact chain and closed-form default fractions")
    p_or.add_argument("--p", type=float, default=None, help="per-move up probability")
    p_or.add_argument("--q", type=float, default=None, help="per-move down probability")
    p_or.add_argument("--grid", type=float, nargs="?", const=DEVIATION_GRID_STEP,
                      default=None, metavar="STEP",
                      help="emit the chain-vs-closed-form deviation grid as CSV, "
                           "spaced STEP apart (default %(const)s)")
    p_or.set_defaults(build=lambda args: partial(write_payload, _oracle_payload(args),
                                                 _out_path(args.out)))

    p_rep = sub.add_parser("reproduce", parents=[ensemble, output, fmt],
                           help="run a published study preset")
    p_rep.add_argument("preset", choices=PRESET_NAMES)
    p_rep.add_argument("--seed", type=int, default=PRESET_SEED,
                       help="master seed (default %(default)s, the presets' seed)")
    p_rep.set_defaults(build=partial(
        _simulate, lambda args: preset_spec(args.preset, args.n, args.k, args.seed)))

    return parser


def _make_spec(args: argparse.Namespace, values: tuple[float, ...]) -> SweepSpec:
    return SweepSpec(
        base=ModelParams(n_firms=args.n, sigma_j=args.sigma_j, f_table=F_TABLES[args.f_mode]),
        values=values,
        k_realizations=args.k,
        master_seed=args.seed,
    )


def _range(args: argparse.Namespace, name: str, low: float = -math.inf,
           high: float = math.inf) -> list[float]:
    """The evenly spaced values --NAME-min/--NAME-max/--NAME-points ask for, ends in [low, high]."""
    lo, hi = (require_real(f"--{name}-{end}", getattr(args, f"{name}_{end}"), low, high)
              for end in ("min", "max"))
    if hi <= lo:
        raise ValueError(f"--{name}-max ({hi}) must be greater than --{name}-min ({lo})")
    if not math.isfinite(hi - lo):
        raise ValueError(f"--{name}-max ({hi}) is too far above --{name}-min ({lo})")
    points = getattr(args, f"{name}_points")
    require_integer(f"--{name}-points", points, 2)
    values = np.linspace(lo, hi, points).tolist()
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"--{name}-points ({points}) repeats a value between "
                         f"--{name}-min ({lo}) and --{name}-max ({hi})")
    return values


#: the columns of a fixed point's row in both ``meanfield`` formats
_MEANFIELD_FIELDS = ("p_up", "q_down", "stable", "nd_fraction")


def _meanfield_payload(args: argparse.Namespace) -> Iterable[str]:
    betas = _range(args, "beta", 0, FIELD_MAX)
    scan = [(beta, mean_field_fixed_points(beta)) for beta in betas]
    every_point = [point for _, points in scan for point in points]
    levels = iter(_default_fractions(
        np.array([point.p_up for point in every_point]),
        np.array([point.q_down for point in every_point]),
        STEPS, R_MAX,
    ).tolist())
    # one row per fixed point, in _MEANFIELD_FIELDS order, grouped by beta
    table = [(beta, [(point.p_up, point.q_down, point.stable, next(levels)) for point in points])
             for beta, points in scan]
    if args.format == "json":
        records = [{"beta": beta,
                    "fixed_points": [dict(zip(_MEANFIELD_FIELDS, row)) for row in rows]}
                   for beta, rows in table]
        return [json.dumps({"steps": STEPS, "r_max": R_MAX, "betas": records}, indent=2) + "\n"]
    return csv_chunks(("beta", *_MEANFIELD_FIELDS),
                      ((beta, *row) for beta, rows in table for row in rows))


def _oracle_payload(args: argparse.Namespace) -> Iterable[str]:
    if args.grid is not None:
        if (args.p, args.q) != (None, None):
            raise ValueError("--p and --q cannot be given with --grid, which "
                             "covers the whole simplex")
        header = ["p_up", "q_down", "markov", "closed_form", "abs_deviation"]
        # the step is checked here; the rows stream out in the run step
        return csv_chunks(header, _deviation_grid_rows(args.grid, "--grid"))
    if args.p is None or args.q is None:
        raise ValueError("--p and --q are required unless --grid is given")
    markov = default_fraction_markov(args.p, args.q)
    closed = default_fraction_closed_form(args.q, args.p)
    return [f"markov default fraction: {markov:.6f}\n"
            f"closed-form default fraction: {closed:.6f}\n"]


def cli(argv: list[str] | None = None) -> int:
    """Parse argv, build the command and run it; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the configuration-error code
        return 0 if exc.code == 0 else 1
    try:
        try:
            run = args.build(args)
        except ValueError as exc:  # input that a rule refuses
            print(f"firmglass: configuration error: {exc}", file=sys.stderr)
            return 1
        run()
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"firmglass: runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli())
