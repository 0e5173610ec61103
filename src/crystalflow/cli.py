"""Command-line interface.

Subcommands:
    run <config>                         run one experiment
    verify <trajectory-dir>              recompute a run's reports from its snapshots
    sweep <config> --param tau --values  parameter sweep with convergence summary
    compare <config> --variants a,b      side-by-side nonlinearity comparison

`verify` reads every snapshot on the grid of the run's config.txt, first
re-checks every stored step against the scheme, then recomputes exactly the
reports that `run` chose for the run directory and prints them in the
reports.csv format, so on a clean run with snapshot_stride = 1 its output
equals that file byte for byte. It exits 1 when a step misses the scheme
(naming the step), a report fails, or a file of the directory cannot be
read or is a snapshot of another grid (naming the file).

An argument no run can start from (an unreadable config path, an unknown
sweep parameter or variant, a sweep value that is not a finite number,
does not divide the horizon into one or more steps or names the run
directory of an earlier value, a variant named twice or no variant at
all, an absolute configured directory under an output root, an output
or run directory that cannot be made) exits 2 with one "error: ..." line
before any run starts, and a config that fails validation, or is not
UTF-8 text, exits 2 with its violations before any run directory is
written.

--output-root, or else the CRYSTALFLOW_OUTPUT_ROOT environment variable,
is prepended to the configured output directory for `run`, which must
then be relative. For `sweep` and `compare` it takes the place of the
configured directory: the run directories (<param>_<value>/,
variant_<name>/) and the summary CSV go straight under it, so
`--output-root R sweep cfg` writes R/tau_0.01/. An empty value is unset:
`--output-root ""` falls back to the variable, an empty variable to the
configured directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import parse_config
from .estimates import write_reports_csv
from .exceptions import ArgumentError, ConfigError, CrystalflowError
from .experiment import compare_variants, run_experiment, sweep, verify_run

OUTPUT_ROOT_ENV = "CRYSTALFLOW_OUTPUT_ROOT"


def _output_root(args):
    """--output-root, else $CRYSTALFLOW_OUTPUT_ROOT; an empty value is unset."""
    return args.output_root or os.environ.get(OUTPUT_ROOT_ENV) or None


def _load_config(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise ArgumentError(f"cannot read config {path}: {err.strerror}") from None
    return parse_config(data)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    result = run_experiment(cfg, output_root=_output_root(args))
    if result.error:
        print(f"run failed: {result.error}", file=sys.stderr)
    for rep in result.reports:
        print(f"{rep.name}: margin = {rep.margin:.6g} ({'pass' if rep.passed else 'FAIL'})")
    print(f"artifacts in {result.directory}")
    return result.exit_code


def _cmd_verify(args) -> int:
    reports = verify_run(args.trajectory_dir)
    write_reports_csv(reports, sys.stdout)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    results = sweep(cfg, args.param, args.values, output_root=_output_root(args))
    worst = max(r.exit_code for r in results)
    for value, result in zip(args.values, results):
        state = "ok" if result.ok else "FAILED"
        print(f"{args.param} = {float(value):g}: {state} ({result.directory})")
    return worst


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    results = compare_variants(cfg, variants, output_root=_output_root(args))
    worst = 0
    for name, result in results.items():
        state = "ok" if result.ok else "FAILED"
        print(f"{name}: {state} ({result.directory})")
        worst = max(worst, result.exit_code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalflow",
        description="Implicit solver and estimate-verification harness for "
        "exponential crystal-surface growth.",
    )
    parser.add_argument(
        "--output-root",
        default=None,
        help="prepended to run's output directory; replaces sweep's and compare's "
        f"(default: ${OUTPUT_ROOT_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="re-verify estimates from stored snapshots")
    p_verify.add_argument("trajectory_dir")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", default="tau")
    p_sweep.add_argument("--values", nargs="+", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="compare nonlinearity variants")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--variants", default="sinh,exp")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    except ArgumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CrystalflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
