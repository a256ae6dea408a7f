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

from . import diagnostics, geometry, io, junction, repar, studies, wellposed
from .errors import (
    ConfigurationError,
    DiffeoBreakdownError,
    NonCollinearError,
    RegularityError,
    StepError,
)
from .solver import NetworkState, SolverConfig, evolve

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BREAKDOWN = 2
EXIT_IO = 3


def _load(path):
    try:
        return io.load_network(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except json.JSONDecodeError as err:
        print(f"error: cannot parse network file: {err}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except (ConfigurationError, KeyError) as err:
        print(f"error: invalid network file: {err}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _load_config(path):
    if path is None:
        return SolverConfig()
    try:
        return io.load_config(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except json.JSONDecodeError as err:
        print(f"error: cannot parse config file: {err}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except (ConfigurationError, TypeError) as err:
        print(f"error: invalid config file: {err}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def cmd_check(args):
    state, params = _load(args.network)
    failed = False

    report = wellposed.check_compat_order0(state, params)
    for rec in report.records:
        mark = "ok " if rec.passed else "FAIL"
        print(f"[{mark}] {rec.condition} curve={rec.curve} "
              f"end={rec.endpoint} residual={rec.residual:.3e}")
    failed |= not report.passed

    bundle = geometry.finite_differences(state)
    if state.q >= 2:
        tangents, _ = junction.junction_terms(bundle, params.lam)
        nc = junction.nc_value(tangents)
        span = junction.span_dimension(tangents)
        print(f"[{'ok ' if span >= 2 else 'FAIL'}] non-collinearity condition "
              f"(NC): span = {span}, nc = {nc:.6f}")
        if span < 2:
            failed = True
        else:
            coeffs = 1.0 / bundle.speed[:, 0]
            lop = all(
                wellposed.junction_complementary(tangents, coeffs, p)
                for p in (1.0, 1.0j, 1.0 + 1.0j)
            )
            print(f"[{'ok ' if lop else 'FAIL'}] junction complementary condition")
            failed |= not lop

    margin = wellposed.parabolicity_margin(bundle.speed)
    print(f"parabolicity margin = {margin:.6e}")
    return EXIT_INVALID if failed else EXIT_OK


def cmd_simulate(args):
    state, params = _load(args.network)
    config = _load_config(args.config)
    records = []

    def observer(s):
        records.append(diagnostics.record_state(s, params))

    preflight = "warn" if args.warn else "strict"
    try:
        trajectory = evolve(state, params, config,
                            observers=(observer,), preflight=preflight)
    except (ConfigurationError, NonCollinearError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except (StepError, RegularityError) as err:
        print(f"breakdown: {err}", file=sys.stderr)
        return EXIT_BREAKDOWN

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
        result = studies.spatial_convergence()
        threshold = 1.9
    else:
        result = studies.temporal_convergence()
        threshold = 0.9
    for level, err in zip(result.levels, result.errors):
        print(f"level {level:g}: error {err:.6e}")
    print(f"observed order: {result.order:.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"levels": result.levels, "errors": result.errors,
                       "rates": result.rates}, fh)
    return EXIT_OK if result.order >= threshold else EXIT_INVALID


def cmd_equivalence(args):
    state, params = _load(args.network)
    config = _load_config(args.config)
    # warn, not strict: constant-speed resampling carries interpolation
    # error, so the discrete endpoint stencils of the second run cannot
    # vanish to the strict preflight tolerance
    try:
        run_a = evolve(state, params, config, preflight="warn")
        resampled = NetworkState(
            curves=[repar.const_speed_reparam(c)[0] for c in state.curves],
            time=state.time,
        )
        run_b = evolve(resampled, params, config, preflight="warn")
        certificate, _ = repar.geometric_equivalence(run_a, run_b, params.lam)
    except (ConfigurationError, NonCollinearError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except (StepError, RegularityError, DiffeoBreakdownError) as err:
        print(f"breakdown: {err}", file=sys.stderr)
        return EXIT_BREAKDOWN
    print(f"equivalence certificate: {certificate:.6e} (tolerance {args.tol:g})")
    return EXIT_OK if certificate <= args.tol else EXIT_INVALID


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
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("convergence", help="grid/step refinement study")
    p.add_argument("--mode", choices=("spatial", "temporal"), default="spatial")
    p.add_argument("--out")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("equivalence",
                       help="geometric-equivalence certificate of two runs")
    p.add_argument("--network", required=True)
    p.add_argument("--config")
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=cmd_equivalence)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
