"""Command-line interface: run, sweep, meanfield, oracle, reproduce.

Each command runs in two phases.  The build phase parses the flags and
builds the work: a ``SweepSpec`` for run/sweep/reproduce, the finished
output for meanfield/oracle.  The run phase runs the sweep and writes the
output.  The input rules live in the modules that own them and raise
``ValueError``; one raised while building is a configuration error.

Data goes to stdout (or --out); progress and timing go to stderr.
Exit codes: 0 success, 1 configuration error (raised while building, before
any output), 2 runtime failure (anything else).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .core import (
    RATING_DRIFT_WEIGHTS,
    SELECTION_MODES,
    ModelParams,
    f_table_from_weights,
    require_integer,
    zero_f_table,
)
from .experiment import (
    PRESET_NAMES,
    SweepSpec,
    emit,
    preset_spec,
    run_sweep,
    write_payload,
)
from .meanfield import (
    closed_form_deviation_grid,
    default_fraction_closed_form,
    default_fraction_markov,
    mean_field_fixed_points,
)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=1000, help="number of firms")
    parser.add_argument("--steps", type=int, default=8, help="time steps")
    parser.add_argument("--rmax", type=int, default=7, help="top rating class")
    parser.add_argument("--sigma-j", type=float, default=0.001,
                        help="coupling standard deviation")
    parser.add_argument("--f-mode", choices=("zero", "constant_table"),
                        default="zero", help="drift term: off, or a constant per-move table")
    parser.add_argument("--f-down", type=float, default=RATING_DRIFT_WEIGHTS[0],
                        help="exp(f) weight of a down move (constant_table mode)")
    parser.add_argument("--f-stay", type=float, default=RATING_DRIFT_WEIGHTS[1],
                        help="exp(f) weight of staying (constant_table mode)")
    parser.add_argument("--f-up", type=float, default=RATING_DRIFT_WEIGHTS[2],
                        help="exp(f) weight of an up move (constant_table mode)")
    parser.add_argument("--selection", choices=SELECTION_MODES,
                        default="with_replacement",
                        help="how firms are picked within a time step")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=1000, help="realizations per ensemble")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--threads", type=int, default=1, help="parallel workers")
    parser.add_argument("--out", type=str, default=None,
                        help="output file (stdout when absent)")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firmglass",
        description="Potts-glass firm-default simulator and mean-field analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one ensemble at a fixed parameter point")
    _add_model_flags(p_run)
    _add_run_flags(p_run)
    p_run.add_argument("--j0", type=float, default=0.0, help="mean coupling")

    p_sweep = sub.add_parser("sweep", help="ensembles across a range of j0")
    _add_model_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--j0-min", type=float, required=True)
    p_sweep.add_argument("--j0-max", type=float, required=True)
    p_sweep.add_argument("--j0-points", type=int, default=11)

    p_mf = sub.add_parser("meanfield",
                          help="fixed points and predicted default levels over a beta range")
    p_mf.add_argument("--beta-min", type=float, default=None)
    p_mf.add_argument("--beta-max", type=float, default=None)
    p_mf.add_argument("--beta-points", type=int, default=13)
    p_mf.add_argument("--j0-min", type=float, default=None)
    p_mf.add_argument("--j0-max", type=float, default=None)
    p_mf.add_argument("--j0-points", type=int, default=None)
    p_mf.add_argument("--n", type=int, default=1000,
                      help="firm count used to convert j0 to beta = j0*N")
    p_mf.add_argument("--steps", type=int, default=8)
    p_mf.add_argument("--rmax", type=int, default=7)
    p_mf.add_argument("--out", type=str, default=None)
    p_mf.add_argument("--format", choices=("json", "csv"), default="json")

    p_or = sub.add_parser("oracle",
                          help="exact chain and closed-form default fractions")
    p_or.add_argument("--p", type=float, default=None, help="per-move up probability")
    p_or.add_argument("--q", type=float, default=None, help="per-move down probability")
    p_or.add_argument("--steps", type=int, default=8)
    p_or.add_argument("--rmax", type=int, default=7)
    p_or.add_argument("--grid", action="store_true",
                      help="emit the chain-vs-closed-form deviation grid as CSV")
    p_or.add_argument("--grid-step", type=float, default=0.1)
    p_or.add_argument("--out", type=str, default=None)

    p_rep = sub.add_parser("reproduce", help="run a published study preset")
    p_rep.add_argument("preset", choices=PRESET_NAMES)
    p_rep.add_argument("--n", type=int, default=1000)
    p_rep.add_argument("--k", type=int, default=1000)
    p_rep.add_argument("--seed", type=int, default=None,
                       help="override the preset master seed")
    p_rep.add_argument("--threads", type=int, default=1)
    p_rep.add_argument("--out", type=str, default=None)
    p_rep.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _make_spec(args: argparse.Namespace, values: tuple[float, ...]) -> SweepSpec:
    if args.f_mode == "zero":
        f_table = zero_f_table()
    else:
        f_table = f_table_from_weights(args.f_down, args.f_stay, args.f_up)
    base = ModelParams(
        n_firms=args.n,
        j0=values[0],
        sigma_j=args.sigma_j,
        r_max=args.rmax,
        steps=args.steps,
        f_table=f_table,
        selection=args.selection,
    )
    return SweepSpec(
        base=base,
        sweep_variable="j0",
        values=values,
        k_realizations=args.k,
        master_seed=args.seed,
    )


def _run_spec(args: argparse.Namespace) -> SweepSpec:
    return _make_spec(args, (args.j0,))


def _require_increasing(lo_flag: str, lo: float, hi_flag: str, hi: float) -> None:
    if hi <= lo:
        raise ValueError(f"{hi_flag} ({hi}) must be greater than {lo_flag} ({lo})")


def _sweep_spec(args: argparse.Namespace) -> SweepSpec:
    _require_increasing("--j0-min", args.j0_min, "--j0-max", args.j0_max)
    require_integer("--j0-points", args.j0_points, 2)
    values = tuple(np.linspace(args.j0_min, args.j0_max, args.j0_points))
    return _make_spec(args, values)


def _meanfield_betas(args: argparse.Namespace) -> list[float]:
    bounds = {"--beta-min": args.beta_min, "--beta-max": args.beta_max,
              "--j0-min": args.j0_min, "--j0-max": args.j0_max}
    for flag, value in bounds.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    j0_flags = (args.j0_min, args.j0_max, args.j0_points)
    if any(flag is not None for flag in j0_flags):
        if any(flag is None for flag in j0_flags):
            raise ValueError(
                "--j0-min, --j0-max and --j0-points must be given together"
            )
        _require_increasing("--j0-min", args.j0_min, "--j0-max", args.j0_max)
        require_integer("--j0-points", args.j0_points, 2)
        require_integer("--n", args.n, 1)
        j0_values = np.linspace(args.j0_min, args.j0_max, args.j0_points).tolist()
        return [j0 * args.n for j0 in j0_values]
    beta_min = 0.0 if args.beta_min is None else args.beta_min
    beta_max = 6.0 if args.beta_max is None else args.beta_max
    _require_increasing("--beta-min", beta_min, "--beta-max", beta_max)
    require_integer("--beta-points", args.beta_points, 2)
    return list(np.linspace(beta_min, beta_max, args.beta_points))


def _meanfield_payload(args: argparse.Namespace) -> str:
    records = []
    for beta in _meanfield_betas(args):
        points = mean_field_fixed_points(beta)
        records.append(
            {
                "beta": beta,
                "fixed_points": [
                    {
                        "p_up": point.p_up,
                        "q_down": point.q_down,
                        "stable": point.stable,
                        "nd_fraction": default_fraction_markov(
                            point.p_up, point.q_down, args.steps, args.rmax
                        ),
                    }
                    for point in points
                ],
            }
        )
    if args.format == "json":
        return json.dumps(
            {"steps": args.steps, "r_max": args.rmax, "betas": records},
            indent=2,
        ) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["beta", "p_up", "q_down", "stable", "nd_fraction"])
    for record in records:
        for point in record["fixed_points"]:
            writer.writerow(
                [record["beta"], point["p_up"], point["q_down"],
                 point["stable"], point["nd_fraction"]]
            )
    return buffer.getvalue()


def _oracle_payload(args: argparse.Namespace) -> str:
    if args.grid:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["p_up", "q_down", "markov", "closed_form", "abs_deviation"])
        for row in closed_form_deviation_grid(args.grid_step, args.steps, args.rmax):
            writer.writerow(list(row))
        return buffer.getvalue()
    if args.p is None or args.q is None:
        raise ValueError("--p and --q are required unless --grid is given")
    markov = default_fraction_markov(args.p, args.q, args.steps, args.rmax)
    lines = [f"markov default fraction: {markov:.6f}"]
    if args.steps == 8 and args.rmax == 7:
        closed = default_fraction_closed_form(args.q, args.p)
        lines.append(f"closed-form default fraction: {closed:.6f}")
    return "\n".join(lines) + "\n"


def _reproduce_spec(args: argparse.Namespace) -> SweepSpec:
    kwargs = {"n_firms": args.n, "k_realizations": args.k}
    if args.seed is not None:
        kwargs["master_seed"] = args.seed
    return preset_spec(args.preset, **kwargs)


# commands that simulate build a sweep; the analytic ones build their output
_SPEC_BUILDERS = {"run": _run_spec, "sweep": _sweep_spec, "reproduce": _reproduce_spec}
_PAYLOAD_BUILDERS = {"meanfield": _meanfield_payload, "oracle": _oracle_payload}


def cli(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the configuration-error code
        return 0 if exc.code == 0 else 1
    try:
        # build the work: a ValueError here is input that a rule refuses
        try:
            if args.command in _SPEC_BUILDERS:
                require_integer("--threads", args.threads, 1)
                spec = _SPEC_BUILDERS[args.command](args)
            else:
                payload = _PAYLOAD_BUILDERS[args.command](args)
        except ValueError as exc:
            print(f"firmglass: configuration error: {exc}", file=sys.stderr)
            return 1
        if args.command in _SPEC_BUILDERS:
            result = run_sweep(spec, threads=args.threads, progress=True)
            emit(result, format=args.format, path=args.out)
        else:
            write_payload(payload, args.out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"firmglass: runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
