"""Experiment orchestration: runs, sweeps, variant comparisons, artifacts.

Every run writes a self-contained directory: the canonical config text,
a per-step trajectory CSV, estimate report CSVs, optional field snapshots
and a manifest listing each artifact with its content hash. Failures keep
whatever was produced and mark the manifest FAILED so partial output is
never mistaken for a clean run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
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
from .stepper import StepRecord, Trajectory, run

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "verify_run",
    "sweep",
    "compare_variants",
    "compare_scaled_sinh",
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


def _write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    monitors = continuum_monitors(traj)
    measure = traj.grid.measure
    with open(path, "w", newline="\n") as fh:
        fh.write(
            "k,t,newton_iters,residual_inf,"
            "u_mean,mass,dirichlet,cosh_energy,l2_time_derivative,w_sup\n"
        )
        for k, rec in enumerate(traj.records):
            w_sup = float(np.abs(rec.w.values).max())
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
                FLOAT_FMT % w_sup,
            ]
            fh.write(",".join(row) + "\n")


def _write_snapshots(traj: Trajectory, fields_dir: Path, stride: int) -> None:
    fields_dir.mkdir(exist_ok=True)
    for rec in traj.records:
        if rec.k % stride == 0 or rec.k == traj.num_steps:
            save_field(rec.u, fields_dir / f"u_{rec.k:06d}.csv")
            save_field(rec.w, fields_dir / f"w_{rec.k:06d}.csv")


def _reload_run(directory: Path) -> tuple[ExperimentConfig, Trajectory]:
    """Rebuild a run's config and Trajectory from its config.txt and snapshots."""
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
            StepRecord(k, load_field(u_path), load_field(w_path), 0, 0.0)
        )
    return cfg, Trajectory(cfg.scheme, cfg.grid, cfg.variant, records)


def _applicable_reports(cfg: ExperimentConfig, traj: Trajectory) -> list[EstimateReport]:
    """The reports a run of cfg gets; run_experiment and verify_run both ask here."""
    variant = cfg.variant
    if variant.p is not None:
        return [p_variant_energy(traj, variant.p)]
    if not variant.hyperbolic:
        return []
    return standard_reports(traj, cfg.output.reports)


def verify_run(directory) -> list[EstimateReport]:
    """Recompute a finished run's reports from its config.txt and snapshots.

    The run must keep every step (snapshot_stride = 1); the reports are the
    ones run_experiment wrote to reports.csv, computed the same way.
    """
    cfg, traj = _reload_run(Path(directory))
    return _applicable_reports(cfg, traj)


def run_experiment(cfg: ExperimentConfig, output_root=None) -> ExperimentResult:
    """Run one configured trajectory and persist all artifacts.

    output_root, when given, is prepended to the configured output
    directory. Returns exit code 0 on a clean run, 1 when the step solver
    or an estimate check raised; the directory then contains a FAILED
    manifest along with any partial artifacts.
    """
    out_dir = Path(cfg.output.directory)
    if output_root is not None:
        out_dir = Path(output_root) / out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

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
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n"
    )
    exit_code = 0 if status == "OK" else 1
    return ExperimentResult(exit_code, out_dir, traj, reports, error)


def _run_for_value(args):
    cfg, output_root = args
    return run_experiment(cfg, output_root)


def _with_param(cfg: ExperimentConfig, param: str, value) -> ExperimentConfig:
    """cfg with param set to value, writing to the subdirectory <param>_<value>."""
    if param not in ("tau", "reg_eps"):
        raise ArgumentError(f"unsupported sweep parameter {param!r}; use tau or reg_eps")
    try:
        value = float(value)
        scheme = dataclasses.replace(cfg.scheme, **{param: value})
    except ValueError as err:
        raise ArgumentError(f"sweep value {value!r}: {err}") from None
    output = dataclasses.replace(cfg.output, directory=f"{param}_{value:g}")
    return dataclasses.replace(cfg, scheme=scheme, output=output)


def _final_l2_diff(a: Trajectory, b: Trajectory) -> float:
    qw = a.grid.quad_weights()
    d = a.records[-1].u.values - b.records[-1].u.values
    return float(np.sqrt(qw @ (d * d)))


def sweep(
    cfg: ExperimentConfig,
    param: str,
    values,
    output_root=None,
    workers: int = 1,
) -> list[ExperimentResult]:
    """Run the config once per parameter value and summarize convergence.

    Each value gets its own subdirectory <param>_<value>. The summary CSV
    lists, per consecutive pair of runs, the final-time L2 difference and
    the observed order log2 of the ratio of successive differences, which
    is the self-convergence rate when values halve. Every value is checked
    before the first run starts; a bad one raises ArgumentError.
    """
    sub_cfgs = [_with_param(cfg, param, value) for value in values]
    values = [getattr(sub_cfg.scheme, param) for sub_cfg in sub_cfgs]
    root = Path(output_root) if output_root is not None else Path(cfg.output.directory)
    root.mkdir(parents=True, exist_ok=True)
    jobs = [(sub_cfg, root) for sub_cfg in sub_cfgs]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_for_value, jobs))
    else:
        results = [_run_for_value(job) for job in jobs]

    diffs = []
    for a, b in zip(results[:-1], results[1:]):
        if a.trajectory is not None and b.trajectory is not None:
            diffs.append(_final_l2_diff(a.trajectory, b.trajectory))
        else:
            diffs.append(float("nan"))
    with open(root / "sweep_summary.csv", "w", newline="\n") as fh:
        fh.write(f"{param},final_l2_diff_to_next,observed_order\n")
        for i, value in enumerate(values):
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

    Produces a comparison CSV with the exponent sup-norm series of every
    variant aligned on t_k. Per-variant failures are recorded without
    aborting the remaining variants. Every name is resolved before the first
    run starts; an unknown kind, or one that needs a parameter, raises
    ArgumentError.
    """
    from .nonlinearity import make_variant

    resolved = {name: make_variant(name) for name in variants}
    root = Path(output_root) if output_root is not None else Path(cfg.output.directory)
    root.mkdir(parents=True, exist_ok=True)

    results = {}
    for name, variant in resolved.items():
        sub_cfg = dataclasses.replace(
            cfg,
            variant=variant,
            output=dataclasses.replace(cfg.output, directory=f"variant_{name}"),
        )
        results[name] = run_experiment(sub_cfg, root)

    completed = {k: r for k, r in results.items() if r.trajectory is not None}
    if completed:
        n = min(len(r.trajectory.records) for r in completed.values())
        with open(root / "variant_comparison.csv", "w", newline="\n") as fh:
            names = list(completed)
            header = ["t"]
            for name in names:
                header += [f"w_sup_{name}", f"energy_{name}"]
            fh.write(",".join(header) + "\n")
            for k in range(n):
                t = k * cfg.scheme.tau
                row = [FLOAT_FMT % t]
                for name in names:
                    traj = completed[name].trajectory
                    rec = traj.records[k]
                    qw = traj.grid.quad_weights()
                    w_sup = float(np.abs(rec.w.values).max())
                    energy = float(qw @ traj.variant.antiderivative(rec.w.values))
                    row += [FLOAT_FMT % w_sup, FLOAT_FMT % energy]
                fh.write(",".join(row) + "\n")
    return results


def compare_scaled_sinh(
    cfg: ExperimentConfig, scales, output_root=None
) -> dict:
    """Sweep the normalized scaled-sinh nonlinearity toward its linear limit.

    Runs f(s) = sinh(K s)/K for every K plus the linear reference f(s) = s
    on the same data and writes the final-time L2 distance to the
    reference per K; the distance decreases as K shrinks.
    """
    from .nonlinearity import linear_variant, scaled_sinh_variant

    root = Path(output_root) if output_root is not None else Path(cfg.output.directory)
    root.mkdir(parents=True, exist_ok=True)

    ref_cfg = dataclasses.replace(
        cfg,
        variant=linear_variant(),
        output=dataclasses.replace(cfg.output, directory="variant_linear"),
    )
    reference = run_experiment(ref_cfg, root)

    results = {"linear": reference}
    rows = []
    for k_value in scales:
        sub_cfg = dataclasses.replace(
            cfg,
            variant=scaled_sinh_variant(float(k_value)),
            output=dataclasses.replace(cfg.output, directory=f"variant_scaled_sinh_{k_value:g}"),
        )
        result = run_experiment(sub_cfg, root)
        results[f"scaled_sinh_{k_value:g}"] = result
        if result.trajectory is not None and reference.trajectory is not None:
            rows.append((float(k_value), _final_l2_diff(result.trajectory, reference.trajectory)))
    with open(root / "scaled_sinh_summary.csv", "w", newline="\n") as fh:
        fh.write("K,final_l2_diff_to_linear\n")
        for k_value, diff in rows:
            fh.write(f"{FLOAT_FMT % k_value},{FLOAT_FMT % diff}\n")
    return results
