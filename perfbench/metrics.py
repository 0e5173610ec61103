"""Metric names, units, and the per-layer metrics derived from one trace.

The layer -> end-to-end map each per-layer metric is meant to move is in
README.md. A per-layer metric whose hooked functions are all missing from
the program (say `fixed_point_step` after it is deleted) is reported as
absent rather than as zero.
"""

from __future__ import annotations

import math

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

STEP_SPANS = ("stepper.fixed_point_step", "stepper.newton_step")
LINALG_SPANS = ("linalg.spsolve", "linalg.splu", "linalg.lu_solve")

# name -> (unit, spans it is computed from; absent when all are missing)
PER_LAYER = {
    "config.parse_s": ("s", ("config.parse_config",)),
    "config.initial_field_s": ("s", ("config.build_initial_field",)),
    "stepper.steps": ("count", STEP_SPANS),
    "stepper.step_s": ("s", STEP_SPANS),
    "stepper.step_ms_p50": ("ms", STEP_SPANS),
    "stepper.step_ms_p90": ("ms", STEP_SPANS),
    "stepper.newton_s": ("s", ("stepper.newton_step",)),
    "stepper.newton_iters": ("count", ("stepper.newton_step",)),
    "stepper.picard_s": ("s", ("stepper.fixed_point_step",)),
    "stepper.picard_iters": ("count", ("stepper.fixed_point_step",)),
    "stepper.newton_fallback_ratio": ("ratio", ("stepper.fixed_point_step",)),
    "linalg.spsolve_calls": ("count", ("linalg.spsolve",)),
    "linalg.spsolve_s": ("s", ("linalg.spsolve",)),
    "linalg.splu_calls": ("count", ("linalg.splu",)),
    "linalg.splu_s": ("s", ("linalg.splu",)),
    "linalg.lu_solve_calls": ("count", ("linalg.splu",)),
    "linalg.lu_solve_s": ("s", ("linalg.splu",)),
    "linalg.bmat_s": ("s", ("linalg.bmat",)),
    "linalg.share": ("ratio", ("linalg.spsolve", "linalg.splu")),
    "elliptic.assemble_calls": ("count", ("elliptic.helmholtz_matrix",
                                          "elliptic.weighted_helmholtz_matrix")),
    "elliptic.assemble_s": ("s", ("elliptic.helmholtz_matrix",
                                  "elliptic.weighted_helmholtz_matrix")),
    "nonlinearity.eval_calls": ("count", ("nonlinearity.f", "nonlinearity.df",
                                          "nonlinearity.check_cap",
                                          "nonlinearity.antiderivative")),
    "nonlinearity.eval_s": ("s", ("nonlinearity.f", "nonlinearity.df",
                                  "nonlinearity.check_cap", "nonlinearity.antiderivative")),
    "grid.snapshot_files": ("count", ("grid.save_field",)),
    "grid.snapshot_bytes": ("bytes", ("grid.save_field",)),
    "grid.snapshot_write_s": ("s", ("grid.save_field",)),
    "grid.snapshot_read_s": ("s", ("grid.load_field",)),
    "estimates.reports_s": ("s", ("estimates.verify_prop31", "estimates.verify_prop32",
                                  "estimates.verify_prop33", "estimates.standard_reports")),
    "estimates.monitors_s": ("s", ("estimates.continuum_monitors",)),
    "experiment.self_s": ("s", ("experiment.run_experiment",)),
    "experiment.sweep_efficiency": ("ratio", ("experiment.run_experiment",)),
    # measured by run.py: verify time from the untraced samples of a traced
    # run (0 on workloads that do not verify), and traced against untraced run_s
    "cli.verify_s": ("s", ()),
    "trace.run_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_calls(data: dict, layer: str) -> int:
    return sum(st[0] for name, st in data["spans"].items() if name.startswith(layer + "."))


def layer_metrics(data: dict, missing: set, run_s: float, workers: int,
                  manifest_wall_s: float) -> dict:
    """Per-layer metrics of one traced sample.

    data is Tracer.export() merged over the sample's processes; run_s is the
    traced wall time of the top-level call; manifest_wall_s sums the
    `wall_clock_seconds` of every run manifest the call wrote.
    """
    spans, groups, counters = (data[k] for k in ("spans", "groups", "counters"))

    def calls(*names):
        return sum(spans[n][0] for n in names if n in spans)

    def total(*names):
        return sum(spans[n][1] for n in names if n in spans)

    steps = data["step_s"]
    capacity_s = workers * run_s
    values = {
        "config.parse_s": groups.get("config.parse", 0.0),
        "config.initial_field_s": groups.get("config.initial_field", 0.0),
        "stepper.steps": len(steps),
        "stepper.step_s": sum(steps),
        "stepper.step_ms_p50": 1e3 * percentile(steps, 0.5),
        "stepper.step_ms_p90": 1e3 * percentile(steps, 0.9),
        "stepper.newton_s": total("stepper.newton_step"),
        "stepper.newton_iters": counters.get("newton_iters", 0),
        "stepper.picard_s": total("stepper.fixed_point_step")
        - counters.get("newton_in_picard_s", 0.0),
        "stepper.picard_iters": counters.get("picard_iters", 0),
        "stepper.newton_fallback_ratio": counters.get("newton_fallbacks", 0) / max(len(steps), 1),
        "linalg.spsolve_calls": calls("linalg.spsolve"),
        "linalg.spsolve_s": total("linalg.spsolve"),
        "linalg.splu_calls": calls("linalg.splu"),
        "linalg.splu_s": total("linalg.splu"),
        "linalg.lu_solve_calls": calls("linalg.lu_solve"),
        "linalg.lu_solve_s": total("linalg.lu_solve"),
        "linalg.bmat_s": total("linalg.bmat"),
        "linalg.share": total(*LINALG_SPANS) / capacity_s,
        "elliptic.assemble_calls": calls("elliptic.helmholtz_matrix",
                                         "elliptic.weighted_helmholtz_matrix"),
        "elliptic.assemble_s": groups.get("elliptic.assemble", 0.0),
        "nonlinearity.eval_calls": calls("nonlinearity.f", "nonlinearity.df",
                                         "nonlinearity.check_cap", "nonlinearity.antiderivative"),
        "nonlinearity.eval_s": groups.get("nonlinearity.eval", 0.0),
        "grid.snapshot_files": counters.get("snapshot_files", 0),
        "grid.snapshot_bytes": counters.get("snapshot_bytes", 0),
        "grid.snapshot_write_s": groups.get("grid.snapshot_write", 0.0),
        "grid.snapshot_read_s": groups.get("grid.snapshot_read", 0.0),
        "estimates.reports_s": groups.get("estimates.reports", 0.0),
        "estimates.monitors_s": groups.get("estimates.monitors", 0.0),
        "experiment.self_s": counters.get("run_experiment_self_s", 0.0),
        "experiment.sweep_efficiency": manifest_wall_s / capacity_s,
    }
    return {
        name: value
        for name, value in values.items()
        if not all(src in missing for src in PER_LAYER[name][1])
    }
