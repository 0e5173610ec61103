"""Experiment orchestration: runs, sweeps, variant comparisons, artifacts.

Every run writes a self-contained directory: the canonical config text,
a per-step trajectory CSV, estimate report CSVs, optional field snapshots
and a manifest listing each artifact with its content hash and the run's
Newton and PCG iteration totals (null when no trajectory was made).
Failures keep whatever was produced and mark the manifest FAILED so
partial output is never mistaken for a clean run.

A sweep or a comparison is a batch of runs, one after another in the
calling thread. They share the process's imports and read-only caches
(factors, transform matrices, quadrature weights), and each writes only
its own directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ExperimentConfig, build_initial_field, config_to_text, parse_config
from .estimates import (
    EstimateReport,
    continuum_monitors,
    p_variant_energy,
    standard_reports,
    write_reports_csv,
    write_terms_csv,
)
from .exceptions import ArgumentError, CrystalflowError
from .grid import FLOAT_FMT, load_field, save_field
from .nonlinearity import make_variant
from .stepper import StepRecord, Trajectory, check_scheme, run

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "verify_run",
    "sweep",
    "compare_variants",
]


@dataclasses.dataclass
class ExperimentResult:
    exit_code: int
    directory: Path
    trajectory: Trajectory | None
    reports: list
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _make_dir(path: Path) -> None:
    """Make path with its parents; ArgumentError naming it when it cannot be."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ArgumentError(f"cannot make output directory {path}: {err.strerror}") from None


def _clear_earlier_run(out_dir: Path) -> None:
    """Remove what an earlier run wrote to out_dir under the names a run
    writes, so that a manifest lists only its own run's files."""
    for name in ("trajectory.csv", "reports.csv", "report_terms.csv", "manifest.json"):
        (out_dir / name).unlink(missing_ok=True)
    fields_dir = out_dir / "fields"
    if fields_dir.is_dir():
        for path in fields_dir.glob("[uw]_*.csv"):
            path.unlink()


def _write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    monitors = continuum_monitors(traj)
    measure = traj.grid.measure
    with open(path, "w", newline="\n") as fh:
        fh.write(
            "k,t,newton_iters,residual_inf,"
            "u_mean,mass,dirichlet,cosh_energy,l2_time_derivative,w_sup\n"
        )
        for k, rec in enumerate(traj.records):
            row = [
                str(k),
                FLOAT_FMT % monitors.t[k],
                str(rec.newton_iters),
                FLOAT_FMT % rec.residual_inf,
                FLOAT_FMT % (monitors.mass[k] / measure),
                FLOAT_FMT % monitors.mass[k],
                FLOAT_FMT % monitors.dirichlet[k],
                FLOAT_FMT % monitors.cosh_energy[k],
                FLOAT_FMT % monitors.l2_time_derivative[k],
                FLOAT_FMT % monitors.w_sup[k],
            ]
            fh.write(",".join(row) + "\n")


def _write_snapshots(traj: Trajectory, fields_dir: Path, stride: int) -> None:
    fields_dir.mkdir(exist_ok=True)
    for rec in traj.records:
        if rec.k % stride == 0 or rec.k == traj.num_steps:
            save_field(rec.u, fields_dir / f"u_{rec.k:06d}.csv")
            save_field(rec.w, fields_dir / f"w_{rec.k:06d}.csv")


def _reload_run(directory: Path) -> tuple[ExperimentConfig, Trajectory]:
    """Rebuild a run's config and Trajectory from its config.txt and snapshots.

    config.txt alone gives the grid: every snapshot is read on it, and one
    whose header states another grid raises SnapshotFormatError.
    """
    config_path = directory / "config.txt"
    try:
        config_bytes = config_path.read_bytes()
    except OSError as err:
        raise CrystalflowError(f"{config_path}: cannot read the run config: {err.strerror}") from err
    cfg = parse_config(config_bytes)
    fields_dir = directory / "fields"
    if not fields_dir.is_dir():
        raise CrystalflowError(
            f"{directory} has no fields/ snapshots; re-run with snapshot_stride = 1 to verify"
        )
    records = []
    for k in range(cfg.scheme.num_steps + 1):
        u_path = fields_dir / f"u_{k:06d}.csv"
        if not u_path.is_file():
            raise CrystalflowError(
                f"{u_path} is missing; verification needs every step (snapshot_stride = 1)"
            )
        w_path = fields_dir / f"w_{k:06d}.csv"
        records.append(
            StepRecord(k, load_field(u_path, cfg.grid), load_field(w_path, cfg.grid), 0, 0.0)
        )
    return cfg, Trajectory(cfg.scheme, cfg.grid, cfg.variant, records)


def _applicable_reports(cfg: ExperimentConfig, traj: Trajectory) -> list[EstimateReport]:
    """The reports a run of cfg gets; run_experiment and verify_run both ask here."""
    if cfg.variant.coercive:
        return standard_reports(traj, cfg.output.reports)
    if cfg.variant.p is not None:
        return [p_variant_energy(traj)]
    return []


def verify_run(directory) -> list[EstimateReport]:
    """Re-check a finished run's steps (stepper.check_scheme) and recompute
    its reports from its config.txt and snapshots.

    The run must keep every step (snapshot_stride = 1); the reports are the
    ones run_experiment wrote to reports.csv, computed the same way.
    """
    cfg, traj = _reload_run(Path(directory))
    check_scheme(traj)
    return _applicable_reports(cfg, traj)


def run_experiment(cfg: ExperimentConfig, output_root=None) -> ExperimentResult:
    """Run one configured trajectory and persist all artifacts.

    output_root, when given, is prepended to the configured output
    directory, which must then be relative; an absolute one under a root,
    or a directory that cannot be made, raises ArgumentError. What
    an earlier run left there under the names a run writes is removed
    first. Returns exit code 0 on a clean run, 1 when the step solver or
    an estimate check raised; the directory then contains a FAILED
    manifest along with any partial artifacts.
    """
    out_dir = Path(cfg.output.directory)
    if output_root is not None:
        if out_dir.is_absolute():
            raise ArgumentError(
                f"the output directory {out_dir} is absolute; "
                f"it cannot go under the output root {output_root}"
            )
        out_dir = Path(output_root) / out_dir
    _make_dir(out_dir)
    _clear_earlier_run(out_dir)

    config_text = config_to_text(cfg)
    (out_dir / "config.txt").write_text(config_text, newline="\n")

    started = time.time()
    traj = None
    reports: list[EstimateReport] = []
    error = None
    try:
        u0 = build_initial_field(cfg)
        traj = run(u0, cfg.scheme, cfg.variant)
        _write_trajectory_csv(traj, out_dir / "trajectory.csv")
        if cfg.output.snapshot_stride > 0:
            _write_snapshots(traj, out_dir / "fields", cfg.output.snapshot_stride)
        reports = _applicable_reports(cfg, traj)
        with open(out_dir / "reports.csv", "w", newline="\n") as fh:
            write_reports_csv(reports, fh)
        with open(out_dir / "report_terms.csv", "w", newline="\n") as fh:
            write_terms_csv(reports, fh)
    except CrystalflowError as err:
        error = f"{type(err).__name__}: {err}"

    failed_reports = [rep.name for rep in reports if not rep.passed]
    status = "FAILED" if (error or failed_reports) else "OK"
    artifacts = {
        str(p.relative_to(out_dir)): _sha256(p)
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    manifest = {
        "status": status,
        "error": error,
        "failed_reports": failed_reports,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "versions": {
            "crystalflow": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_clock_seconds": time.time() - started,
        "artifacts": artifacts,
        "newton_iterations": None if traj is None else sum(r.newton_iters for r in traj.records),
        "cg_iterations": None if traj is None else sum(r.cg_iters for r in traj.records),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n"
    )
    exit_code = 0 if status == "OK" else 1
    return ExperimentResult(exit_code, out_dir, traj, reports, error)


def _with_param(cfg: ExperimentConfig, param: str, value) -> ExperimentConfig:
    """cfg with param set to value, writing to its own subdirectory:
    variant_<name> for a make_variant name, else <param>_<value:g>."""
    if param == "variant":
        output = dataclasses.replace(cfg.output, directory=f"variant_{value}")
        return dataclasses.replace(cfg, variant=make_variant(value), output=output)
    try:
        value = float(value)
        scheme = dataclasses.replace(cfg.scheme, **{param: value})
    except ValueError as err:
        raise ArgumentError(f"{param} value {value!r}: {err}") from None
    output = dataclasses.replace(cfg.output, directory=f"{param}_{value:g}")
    return dataclasses.replace(cfg, scheme=scheme, output=output)


def _run_batch(
    cfg: ExperimentConfig, param: str, values, output_root, workers: int = 1
) -> tuple[Path, list[ExperimentResult]]:
    """Run cfg once per value of param (tau, reg_eps or variant), each in its
    own subdirectory (_with_param) of the root, one after another in the
    calling thread; returns (root, results) in the order of values. workers
    is checked but runs nothing in parallel (ROADMAP item 22).

    The root is output_root when given, in place of the configured output
    directory. Every value is checked, and the root and every run directory
    made, before the first run: workers < 1, no values, a value no run can
    use, two values naming one run directory, or a directory that cannot be
    made raises ArgumentError.
    """
    if workers < 1:
        raise ArgumentError(f"workers must be at least 1, got {workers!r}")
    if len(values) == 0:
        raise ArgumentError(f"no {param} values to run")
    sub_cfgs = [_with_param(cfg, param, value) for value in values]
    earlier = {}
    for value, sub_cfg in zip(values, sub_cfgs):
        directory = sub_cfg.output.directory
        if directory in earlier:
            raise ArgumentError(
                f"the {param} values {earlier[directory]!r} and {value!r} "
                f"both name the run directory {directory}"
            )
        earlier[directory] = value
    root = Path(output_root) if output_root is not None else Path(cfg.output.directory)
    _make_dir(root)
    for sub_cfg in sub_cfgs:
        _make_dir(root / sub_cfg.output.directory)
    # run_experiment is looked up here, not at import, so a wrapper bound to
    # the module global (perfbench/tracing.py) sees every run
    return root, [run_experiment(sub_cfg, root) for sub_cfg in sub_cfgs]


def _final_l2_diff(a: Trajectory, b: Trajectory) -> float:
    qw = a.grid.quad_weights()
    d = a.records[-1].u.values - b.records[-1].u.values
    return float(np.sqrt(qw @ (d * d)))


def sweep(
    cfg: ExperimentConfig, param: str, values, output_root=None, workers: int = 1
) -> list[ExperimentResult]:
    """Run the config once per value of param (tau or reg_eps) and summarize
    convergence.

    _run_batch picks the root, checks every value and workers and makes
    every run directory <param>_<value:g> before the first run; the values
    run one after another whatever workers is. The root holds
    sweep_summary.csv: per consecutive pair of runs, the final-time L2
    difference and the observed order log2 of the ratio of successive
    differences, which is the self-convergence rate when values halve.
    """
    if param not in ("tau", "reg_eps"):
        raise ArgumentError(f"unsupported sweep parameter {param!r}; use tau or reg_eps")
    root, results = _run_batch(cfg, param, values, output_root, workers)

    diffs = []
    for a, b in zip(results[:-1], results[1:]):
        if a.trajectory is not None and b.trajectory is not None:
            diffs.append(_final_l2_diff(a.trajectory, b.trajectory))
        else:
            diffs.append(float("nan"))
    with open(root / "sweep_summary.csv", "w", newline="\n") as fh:
        fh.write(f"{param},final_l2_diff_to_next,observed_order\n")
        for i, value in enumerate(map(float, values)):
            diff = FLOAT_FMT % diffs[i] if i < len(diffs) else ""
            if 1 <= i < len(diffs) and diffs[i] > 0 and np.isfinite(diffs[i - 1]):
                order = FLOAT_FMT % np.log2(diffs[i - 1] / diffs[i])
            else:
                order = ""
            fh.write(f"{FLOAT_FMT % value},{diff},{order}\n")
    return results


def compare_variants(
    cfg: ExperimentConfig, variants=("sinh", "exp"), output_root=None
) -> dict:
    """Run the same initial data under several nonlinearities side by side.

    _run_batch picks the root, resolves every name and makes every run
    directory variant_<name> before the first run; the variants run
    serially. Per-variant failures are recorded without aborting the
    remaining variants. The root holds variant_comparison.csv: the
    continuum_monitors series w_sup and int F(w) of every variant, aligned
    on t_k.
    """
    root, batch = _run_batch(cfg, "variant", variants, output_root)
    results = dict(zip(variants, batch))

    completed = {k: r for k, r in results.items() if r.trajectory is not None}
    if completed:
        monitors = {name: continuum_monitors(r.trajectory) for name, r in completed.items()}
        n = min(len(r.trajectory.records) for r in completed.values())
        with open(root / "variant_comparison.csv", "w", newline="\n") as fh:
            header = ["t"]
            for name in monitors:
                header += [f"w_sup_{name}", f"energy_{name}"]
            fh.write(",".join(header) + "\n")
            for k in range(n):
                row = [FLOAT_FMT % (k * cfg.scheme.tau)]
                for mon in monitors.values():
                    row += [FLOAT_FMT % mon.w_sup[k], FLOAT_FMT % mon.cosh_energy[k]]
                fh.write(",".join(row) + "\n")
    return results
