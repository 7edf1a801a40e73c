"""Command-line front end.

Subcommands: ``estimate`` (spectrum of one sampled path over a grid),
``certify`` (certificate table for the configured estimator), ``reproduce``
(the bundled sweep studies), ``verify-concentration`` (Monte Carlo tail
validation), and ``simulate`` (path export).  Exit codes: 0 success; 1
``verify-concentration`` flagged a row, or an unexpected error, whose
traceback goes to stderr; 2 a config error (``experiments.ConfigError``,
raised while parsing and before any path is sampled, or for values that
overflow), with its message on stderr; 3 an infeasible certificate was requested as a hard requirement.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from dataclasses import replace

from . import experiments

__all__ = ["main"]


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    """The config overrides of the commands that write or read an estimate, whose config hash they change."""
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--grid", type=int, help="override the number of grid points")
    parser.add_argument("--full-range", action="store_true", help="grid on [-1/2, 1/2] instead of [0, 1/2]")


def _overridden_config(args) -> experiments.ExperimentConfig:
    """The ``--config`` document with the options of ``_add_overrides`` folded in."""
    config = experiments.load_config(args.config)
    full_range = True if args.full_range else None
    return experiments.apply_overrides(config, seed=args.seed, grid_points=args.grid, full_range=full_range)


# building the parser costs about 20 times as much as one parse, so it is built once per process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specbound",
        description="Spectral density estimation with finite-sample error certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser("estimate", help="estimate the spectrum of one sampled path")
    estimate.add_argument("--config", required=True, help="JSON experiment config")
    _add_overrides(estimate)
    estimate.add_argument("--out", default=".", help="output directory")
    estimate.add_argument("--oracle", action="store_true", help="force the dense generic quadratic-form path")

    certify = sub.add_parser("certify", help="evaluate the certificate table")
    certify.add_argument("--config", required=True)
    _add_overrides(certify)
    certify.add_argument("--out", default=".")
    certify.add_argument("--estimate", help="estimate CSV enabling the data-driven bound")
    certify.add_argument(
        "--require-feasible",
        action="store_true",
        help="exit with status 3 if any requested certificate is unavailable",
    )

    reproduce = sub.add_parser("reproduce", help="run one of the bundled sweep studies")
    reproduce.add_argument("--example", type=int, choices=(1, 2), required=True)
    reproduce.add_argument("--out", default=".")
    reproduce.add_argument("--trials", type=int)
    reproduce.add_argument("--seed", type=int)
    reproduce.add_argument("--delta", type=float)
    reproduce.add_argument("--grid", type=int, dest="grid_points", metavar="GRID")
    reproduce.add_argument("--rho-target", type=float, help="decay rate for the state-space envelope")

    verify = sub.add_parser("verify-concentration", help="Monte Carlo check of the tail bounds")
    verify.add_argument("--config", help="optional config carrying trials and seed")
    verify.add_argument("--out", default=".")
    verify.add_argument("--trials", type=int)
    verify.add_argument("--seed", type=int)

    simulate = sub.add_parser("simulate", help="export one sampled path as CSV")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--out", default=".")
    return parser


def _reproduce_options(args) -> experiments.ReproduceOptions:
    if args.example == 1 and args.rho_target is not None:
        raise experiments.ConfigError("--rho-target applies to example 2 only: example 1 has no state-space model")
    names = ("trials", "seed", "delta", "grid_points", "rho_target")
    changes = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    return replace(experiments.ReproduceOptions(), **changes)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "estimate":
            path = experiments.run_estimate(_overridden_config(args), args.out, oracle=args.oracle)
            print(path)
        elif args.command == "certify":
            path, certs = experiments.run_certify(_overridden_config(args), args.out, estimate_path=args.estimate)
            print(path)
            if args.require_feasible and any(not cert.available for cert in certs):
                print("infeasible certificate in the requested table", file=sys.stderr)
                return 3
        elif args.command == "reproduce":
            for path in experiments.run_reproduce(args.example, args.out, _reproduce_options(args)):
                print(path)
        elif args.command == "verify-concentration":
            # a value the config document sets overrides the check's default; the command line overrides both
            options = {}
            if args.config:
                config = experiments.load_config(args.config)
                options = {key: getattr(config, key) for key in ("trials", "seed") if key in config.raw}
            options.update((key, getattr(args, key)) for key in ("trials", "seed") if getattr(args, key) is not None)
            path, reports = experiments.run_verify_concentration(args.out, **options)
            print(path)
            flagged = sum(report.flagged for report in reports.values())
            if flagged:
                print(f"{flagged} suite(s) flagged: tail bound violated", file=sys.stderr)
                return 1
        elif args.command == "simulate":
            config = experiments.load_config(args.config)
            config = experiments.apply_overrides(config, seed=args.seed)
            print(experiments.run_simulate(config, args.out))
    except experiments.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception:
        # not a config the runners reject: a fault, reported with its traceback
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
