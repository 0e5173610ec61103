"""Experiment orchestration: runs, sweeps, variant comparisons, artifacts.

Every run writes a self-contained directory: the canonical config text,
a per-step trajectory CSV, estimate report CSVs, optional field snapshots
and a manifest listing each file the run wrote with its content hash and
the run's Newton and PCG iteration totals (null when no trajectory was
made). Other files in the directory are neither listed nor removed.
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
from .grid import csv_line, load_field, save_field
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


def _make_dir(path: Path) -> None:
    """Make path with its parents; ArgumentError naming it when it cannot be."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ArgumentError(f"cannot make output directory {path}: {err.strerror}") from None


# The files a run writes in its directory: these five, and in FIELDS the u
# and w snapshots that _snapshot names. The clean-up of an earlier run, the
# manifest and _reload_run take their names from here alone.
RUN_FILES = CONFIG, TRAJECTORY, REPORTS, TERMS, MANIFEST = (
    "config.txt", "trajectory.csv", "reports.csv", "report_terms.csv", "manifest.json")
FIELDS = "fields"


def _snapshot(kind: str, k: int) -> str:
    """The name in FIELDS of the snapshot of u or w (kind) at step k."""
    return f"{kind}_{k:06d}.f64"


def _run_files(out_dir: Path) -> list[str]:
    """The files in out_dir that a run writes, relative to it."""
    names = [name for name in RUN_FILES if (out_dir / name).is_file()]
    for path in (out_dir / FIELDS).glob("[uw]_*.f64"):
        step = path.stem[2:]
        if step.isdecimal() and path.name == _snapshot(path.name[0], int(step)) and path.is_file():
            names.append(f"{FIELDS}/{path.name}")
    return names


def _write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    monitors = continuum_monitors(traj)
    measure = traj.grid.measure
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_line(("k", "t", "newton_iters", "residual_inf", "u_mean", "mass",
                           "dirichlet", "cosh_energy", "l2_time_derivative", "w_sup")))
        for k, rec in enumerate(traj.records):
            fh.write(csv_line((
                k, monitors.t[k], rec.newton_iters, rec.residual_inf,
                monitors.mass[k] / measure, monitors.mass[k], monitors.dirichlet[k],
                monitors.cosh_energy[k], monitors.l2_time_derivative[k], monitors.w_sup[k],
            )))


def _write_snapshots(traj: Trajectory, fields_dir: Path, stride: int) -> None:
    fields_dir.mkdir(exist_ok=True)
    for rec in traj.records:
        if rec.k % stride == 0 or rec.k == traj.num_steps:
            save_field(rec.u, fields_dir / _snapshot("u", rec.k))
            save_field(rec.w, fields_dir / _snapshot("w", rec.k))


def _reload_run(directory: Path) -> tuple[ExperimentConfig, Trajectory]:
    """Rebuild a run's config and Trajectory from its config.txt and snapshots.

    config.txt alone gives the grid: every snapshot is read on it, and one
    whose header states another grid raises SnapshotFormatError. A step kept
    only as a text snapshot (fields/u_<k>.csv, as versions before the raw
    float64 store wrote) raises CrystalflowError naming that file.
    """
    config_path = directory / CONFIG
    try:
        config_bytes = config_path.read_bytes()
    except OSError as err:
        raise CrystalflowError(f"{config_path}: cannot read the run config: {err.strerror}") from err
    cfg = parse_config(config_bytes)
    fields_dir = directory / FIELDS
    if not fields_dir.is_dir():
        raise CrystalflowError(
            f"{directory} has no fields/ snapshots; re-run with snapshot_stride = 1 to verify"
        )
    records = []
    for k in range(cfg.scheme.num_steps + 1):
        u_path = fields_dir / _snapshot("u", k)
        if not u_path.is_file():
            text = u_path.with_suffix(".csv")
            if text.is_file():
                raise CrystalflowError(
                    f"{text} is a text snapshot of an earlier crystalflow; "
                    "this version does not read text snapshots"
                )
            raise CrystalflowError(
                f"{u_path} is missing; verification needs every step (snapshot_stride = 1)"
            )
        u = load_field(u_path, cfg.grid)
        w = load_field(fields_dir / _snapshot("w", k), cfg.grid)
        records.append(StepRecord(k, u, w, 0, 0.0))
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

    output_root, when given and not empty, is prepended to the configured
    output directory, which must then be relative; an absolute one under a
    root, or a directory that cannot be made, raises ArgumentError. None
    and "" leave the configured directory as it is, as the CLI does. The
    files an earlier run wrote there are removed first, and the manifest
    lists the files this run wrote (_run_files). Returns exit code 0 on a clean run,
    1 when the step solver or an estimate check raised; the directory then
    contains a FAILED manifest along with any partial artifacts.
    """
    out_dir = Path(cfg.output.directory)
    if output_root:
        if out_dir.is_absolute():
            raise ArgumentError(
                f"the output directory {out_dir} is absolute; "
                f"it cannot go under the output root {output_root}"
            )
        out_dir = Path(output_root) / out_dir
    _make_dir(out_dir)
    for name in _run_files(out_dir):
        (out_dir / name).unlink()

    config_text = config_to_text(cfg)
    (out_dir / CONFIG).write_text(config_text, newline="\n")

    started = time.time()
    traj = None
    reports: list[EstimateReport] = []
    error = None
    try:
        u0 = build_initial_field(cfg)
        traj = run(u0, cfg.scheme, cfg.variant)
        _write_trajectory_csv(traj, out_dir / TRAJECTORY)
        if cfg.output.snapshot_stride > 0:
            _write_snapshots(traj, out_dir / FIELDS, cfg.output.snapshot_stride)
        reports = _applicable_reports(cfg, traj)
        with open(out_dir / REPORTS, "w", newline="\n") as fh:
            write_reports_csv(reports, fh)
        with open(out_dir / TERMS, "w", newline="\n") as fh:
            write_terms_csv(reports, fh)
    except CrystalflowError as err:
        error = f"{type(err).__name__}: {err}"

    failed_reports = [rep.name for rep in reports if not rep.passed]
    status = "FAILED" if (error or failed_reports) else "OK"
    # the earlier run's manifest was removed above and this one is not yet written
    artifacts = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                 for name in _run_files(out_dir)}
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
    (out_dir / MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n"
    )
    exit_code = 0 if status == "OK" else 1
    return ExperimentResult(exit_code, out_dir, traj, reports, error)


def _with_param(cfg: ExperimentConfig, param: str, value) -> ExperimentConfig:
    """cfg with param set to value, writing to its own subdirectory:
    variant_<name> for a make_variant name, else <param>_<value:g>."""
    if param == "variant":
        variant = make_variant(value)  # an unknown kind is named before its directory
        output = dataclasses.replace(cfg.output, directory=f"variant_{value}")
        return dataclasses.replace(cfg, variant=variant, output=output)
    try:
        value = float(value)
        scheme = dataclasses.replace(cfg.scheme, **{param: value})
    except ValueError as err:
        raise ArgumentError(f"{param} value {value!r}: {err}") from None
    output = dataclasses.replace(cfg.output, directory=f"{param}_{value:g}")
    return dataclasses.replace(cfg, scheme=scheme, output=output)


def _run_batch(
    cfg: ExperimentConfig, param: str, values, output_root
) -> tuple[Path, list[ExperimentResult]]:
    """Run cfg once per value of param (tau, reg_eps or variant), each in its
    own subdirectory (_with_param) of the root, one after another in the
    calling thread; returns (root, results) in the order of values.

    The root is output_root when given and not empty, in place of the
    configured output directory. Every value is checked, and the root and
    every run directory made, before the first run: no values, a value no
    run can use, two values naming one run directory, or a directory that
    cannot be made raises ArgumentError.
    """
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
    root = Path(output_root or cfg.output.directory)
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

    workers < 1 raises ArgumentError before any directory is made; the
    values run one after another whatever workers is (ROADMAP item 22).
    _run_batch picks the root, checks every value and makes every run
    directory <param>_<value:g> before the first run. The root holds
    sweep_summary.csv: per consecutive pair of runs, the final-time L2
    difference and the observed order log2 of the ratio of successive
    differences, which is the self-convergence rate when values halve.
    """
    if param not in ("tau", "reg_eps"):
        raise ArgumentError(f"unsupported sweep parameter {param!r}; use tau or reg_eps")
    if workers < 1:
        raise ArgumentError(f"workers must be at least 1, got {workers!r}")
    root, results = _run_batch(cfg, param, values, output_root)

    diffs = []
    for a, b in zip(results[:-1], results[1:]):
        if a.trajectory is not None and b.trajectory is not None:
            diffs.append(_final_l2_diff(a.trajectory, b.trajectory))
        else:
            diffs.append(float("nan"))
    with open(root / "sweep_summary.csv", "w", newline="\n") as fh:
        fh.write(csv_line((param, "final_l2_diff_to_next", "observed_order")))
        for i, value in enumerate(map(float, values)):
            diff = diffs[i] if i < len(diffs) else ""
            has_order = 1 <= i < len(diffs) and diffs[i] > 0 and np.isfinite(diffs[i - 1])
            order = np.log2(diffs[i - 1] / diffs[i]) if has_order else ""
            fh.write(csv_line((value, diff, order)))
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
            fh.write(csv_line(header))
            for k in range(n):
                row = [k * cfg.scheme.tau]
                for mon in monitors.values():
                    row += [mon.w_sup[k], mon.cosh_energy[k]]
                fh.write(csv_line(row))
    return results
