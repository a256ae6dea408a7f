"""Command-line entry point.

Subcommands: check (validate a network file), simulate (run the flow and
write trajectory/diagnostics), convergence (refinement study) and
equivalence (geometric-equivalence certificate).  Exit codes: 0 success,
1 validation or tolerance failure, 2 runtime (solver) breakdown,
3 I/O or parse failure (including command-line usage errors).
"""

import argparse
import json
import os
import sys
import warnings

from . import diagnostics, geometry, io, junction, repar, studies, wellposed
from .errors import (
    BreakdownError,
    ConfigurationError,
    DiffeoBreakdownError,
    RegularityError,
)
from .solver import NetworkState, SolverConfig, evolve

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BREAKDOWN = 2
EXIT_IO = 3


def _load(loader, path, kind):
    """loader(path), or exit naming the kind ("network", "config") of file."""
    try:
        return loader(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except (ConfigurationError, KeyError, TypeError) as err:
        print(f"error: invalid {kind} file: {err}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    except ValueError as err:  # invalid JSON or UTF-8, or an integer too long to read
        print(f"error: cannot parse {kind} file: {err}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _print_warning(message, *_where):
    # a warning's text in the CLI's own style: no file, line or category
    print(f"warning: {message}", file=sys.stderr)


def _run_command(command):
    """command(args, state, params, config) on the loaded files (SolverConfig()
    without --config); prints a warning of the run (the preflight's under
    --warn) as "warning: ...", exits 1 with "error: ..." on a rejected
    input (a collinear initial junction included), 2 with "breakdown: ..."
    on a breakdown of the run (NC lost mid-run included)."""
    def run(args):
        state, params = _load(io.load_network, args.network, "network")
        config = (SolverConfig() if args.config is None
                  else _load(io.load_config, args.config, "config"))
        try:
            with warnings.catch_warnings():  # restores showwarning
                warnings.showwarning = _print_warning
                return command(args, state, params, config)
        except ConfigurationError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INVALID
        except BreakdownError as err:
            # evolve stamps the failing step's time on a step error; a map
            # breakdown's message already names its time
            when = ("" if err.time is None or isinstance(err, DiffeoBreakdownError)
                    else f" in the step to t={err.time:.6e}")
            print(f"breakdown: {err}{when}", file=sys.stderr)
            return EXIT_BREAKDOWN
    return run


def cmd_check(args):
    state, params = _load(io.load_network, args.network, "network")
    try:
        bundle = geometry.finite_differences(state)
    except RegularityError as err:  # names the curve and the node
        print(f"[FAIL] {err}")
        return EXIT_INVALID
    failed = False
    for rec in wellposed.check_compat_order0(state, params):
        print(f"[{'ok ' if rec.passed else 'FAIL'}] {rec}")
        failed |= not rec.passed

    if state.q >= 2:
        tangents = junction.tangents(bundle)
        nc = junction.nc_value(tangents)
        span = junction.span_dimension(tangents)
        print(f"[{'ok ' if span >= 2 else 'FAIL'}] non-collinearity condition "
              f"(NC): span = {span}, nc = {nc:.6f}")
        if span < 2:
            failed = True
        else:
            coeffs = 1.0 / bundle.speed[:, 0]
            lop = all(wellposed.junction_complementary(tangents, coeffs, p)
                      for p in wellposed.SPECTRAL_PARAMETERS)
            print(f"[{'ok ' if lop else 'FAIL'}] junction complementary condition")
            failed |= not lop

    margin = wellposed.parabolicity_margin(bundle.speed)
    print(f"parabolicity margin = {margin:.6e}")
    return EXIT_INVALID if failed else EXIT_OK


@_run_command
def cmd_simulate(args, state, params, config):
    if args.svg:  # a network that cannot be drawn fails before any step
        io.state_to_svg(state)
    records = []

    def observer(s):
        records.append(diagnostics.record_state(s, params))

    trajectory = evolve(state, params, config, observers=(observer,),
                        preflight="warn" if args.warn else "strict")

    # made only now, so that a rejected run leaves no empty directory
    os.makedirs(args.out, exist_ok=True)
    io.save_trajectory(os.path.join(args.out, "trajectory.json"),
                       trajectory, params)
    records.insert(0, diagnostics.record_state(trajectory[0], params))
    with open(os.path.join(args.out, "diagnostics.csv"), "w") as fh:
        fh.write(diagnostics.records_to_csv(records))
    if args.svg:
        for k, frame in enumerate(trajectory[::args.stride]):
            with open(os.path.join(args.out, f"frame_{k:05d}.svg"), "w") as fh:
                fh.write(io.state_to_svg(frame))
    print(f"stored {len(trajectory)} frames in {args.out}")
    return EXIT_OK


def cmd_convergence(args):
    if args.mode == "spatial":
        result, threshold = studies.spatial_convergence(), studies.SPATIAL_MIN_ORDER
    else:
        result, threshold = studies.temporal_convergence(), studies.TEMPORAL_MIN_ORDER
    for level, err in zip(result.levels, result.errors):
        print(f"level {level:g}: error {err:.6e}")
    print(f"observed order: {result.order:.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"levels": result.levels, "errors": result.errors,
                       "rates": result.rates}, fh)
    return EXIT_OK if result.order >= threshold else EXIT_INVALID


@_run_command
def cmd_equivalence(args, state, params, config):
    # warn, not strict: constant-speed resampling carries interpolation
    # error, so the discrete endpoint stencils of the second run cannot
    # vanish to the strict preflight tolerance
    run_a = evolve(state, params, config, preflight="warn")
    resampled = NetworkState(repar.const_speed_reparam(state)[0], time=state.time)
    run_b = evolve(resampled, params, config, preflight="warn")
    certificate, _ = repar.geometric_equivalence(run_a, run_b, params.lam)
    print(f"equivalence certificate: {certificate:.6e} (tolerance {args.tol:g})")
    return EXIT_OK if certificate <= args.tol else EXIT_INVALID


def _tolerance(text):
    try:
        if 0.0 <= float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")


def _positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    # command-line parse failures exit with the I/O/parse code, not the
    # argparse default of 2 (which is reserved for solver breakdowns)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def build_parser():
    parser = _Parser(
        prog="elastic-networks",
        description="Elastic flow of curve networks with one movable junction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a network file")
    p.add_argument("--network", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run the flow")
    p.add_argument("--network", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", default=True,
                      help="reject incompatible initial data (default)")
    mode.add_argument("--warn", action="store_true",
                      help="downgrade compatibility failures to warnings "
                           "(collinear junction tangents stay fatal)")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--stride", type=_positive_int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("convergence", help="grid/step refinement study")
    p.add_argument("--mode", choices=("spatial", "temporal"), default="spatial")
    p.add_argument("--out")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("equivalence",
                       help="geometric-equivalence certificate of two runs")
    p.add_argument("--network", required=True)
    p.add_argument("--config")
    p.add_argument("--tol", type=_tolerance, default=1e-3)
    p.set_defaults(func=cmd_equivalence)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:  # a file that cannot be read or written
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
