"""One benchmark sample, in a fresh interpreter.

    python3 perfbench/sample.py run --workload NAME --seed N --work DIR
                                    --workers W --trace 0|1
    python3 perfbench/sample.py setup --workload NAME --seed N
    python3 perfbench/sample.py verify --work DIR --trace 0|1

`run` times set-up (import of crystalflow, parse_config,
build_initial_field) and the workload's top-level call, checks the
outputs, and on workloads that keep snapshots runs `crystalflow verify`
in a child `verify` sample. `setup` times set-up alone, so that a run can
take many more set-up samples than workload samples. The last line of
standard output is one JSON object.

Only the standard library and this directory's stdlib-only modules are
imported before the timed import of crystalflow, so set-up time includes
numpy and scipy as every `crystalflow run` pays them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import tracing
from metrics import layer_calls, layer_metrics
from workloads import (REFERENCE_FILE, WORKLOADS, active_layers, check_reference,
                       reference_keys)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
VERIFY_TIMEOUT_S = 120


def import_crystalflow():
    """Import crystalflow from this checkout's source tree, never elsewhere."""
    sys.path.insert(0, str(SRC))
    import crystalflow

    if not Path(crystalflow.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"crystalflow imported from {crystalflow.__file__}, not {SRC}")
    return crystalflow


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def sweep_diffs_shrink(summary: Path) -> str | None:
    lines = summary.read_text().splitlines()[1:]
    diffs = [float(line.split(",")[1]) for line in lines if line.split(",")[1]]
    if not all(a > b > 0 for a, b in zip(diffs, diffs[1:])):
        return f"sweep final-L2 differences do not shrink: {diffs}"
    return None


def timed_setup(w, seed: int, trace: bool = False):
    """Import crystalflow, parse the workload's config and build its initial
    field; return (crystalflow, config, field, tracer or None, seconds).

    With trace, the hooks go in right after the import, so that the config
    layer is traced too.
    """
    t0 = time.perf_counter()
    cf = import_crystalflow()
    tracer = tracing.install() if trace else None
    cfg = cf.parse_config(w.config_text(seed, "run"))
    u0 = cf.build_initial_field(cfg)
    return cf, cfg, u0, tracer, time.perf_counter() - t0


def setup_sample(args) -> dict:
    w = WORKLOADS[args.workload]
    _, _, u0, _, setup_s = timed_setup(w, args.seed)
    import numpy as np

    expected = w.nodes ** w.dim
    errors = []
    if u0.values.size != expected or not np.isfinite(u0.values).all():
        errors.append(f"initial field has {u0.values.size} values (expected {expected}) "
                      "or non-finite ones")
    return {"ok": not errors, "errors": errors, "setup_s": setup_s}


def run_sample(args) -> dict:
    w = WORKLOADS[args.workload]
    work = Path(args.work)
    cf, cfg, _, tracer, setup_s = timed_setup(w, args.seed, bool(args.trace))

    t1 = time.perf_counter()
    if w.sweep_taus:
        results = cf.sweep(cfg, "tau", w.sweep_taus, output_root=work / "run",
                           workers=args.workers)
    else:
        results = [cf.run_experiment(cfg, output_root=work)]
    run_s = time.perf_counter() - t1

    errors = check_outputs(w, results, work / "run")

    child_trace = None
    verify_s = None
    if w.verify:
        verified = verify_in_child(work / "run", bool(args.trace))
        verify_s = verified["verify_s"]
        child_trace = verified["trace"]
        if verified["rc"] != 0:
            errors.append(f"crystalflow verify exited with {verified['rc']}: "
                          f"{verified.get('error', '')}")

    import numpy
    import scipy

    out = {
        "ok": not errors,
        "errors": errors,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if verify_s is not None:
        out["verify_s"] = verify_s
    if tracer is not None:
        out["layers"], layer_errors = traced_layers(tracer, child_trace, results, w, run_s,
                                                    args.workers)
        errors.extend(layer_errors)
        out["ok"] = not errors
        out["absent_hooks"] = sorted(tracer.missing)
    return out


def check_outputs(w, results, run_dir: Path) -> list[str]:
    """Exit codes, report outcomes, stored references, sweep convergence."""
    import numpy as np

    errors = []
    keys = reference_keys(w)
    if len(results) != len(keys):
        return [f"expected {len(keys)} runs, got {len(results)}"]
    with np.load(REFERENCE_FILE) as refs:
        for key, r in zip(keys, results):
            if r.exit_code != 0:
                errors.append(f"{key}: exit code {r.exit_code} ({r.error})")
                continue
            failed = [rep.name for rep in r.reports if not rep.passed]
            if failed or len(r.reports) != 3:
                errors.append(f"{key}: reports failed or missing: {failed}")
            message = check_reference(key, r.trajectory.records[-1].u.values, refs)
            if message:
                errors.append(message)
    if w.sweep_taus and not errors:
        message = sweep_diffs_shrink(run_dir / "sweep_summary.csv")
        if message:
            errors.append(message)
    return errors


def verify_in_child(run_dir: Path, trace: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__)), "verify", "--work", str(run_dir),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=VERIFY_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": proc.returncode or 1, "verify_s": 0.0, "trace": None,
                "error": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def verify_sample(args) -> dict:
    import_crystalflow()
    from crystalflow import cli

    tracer = tracing.install() if args.trace else None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", args.work])
    verify_s = time.perf_counter() - t0
    return {"rc": rc, "verify_s": verify_s,
            "trace": tracer.export() if tracer is not None else None}


def traced_layers(tracer, child_trace, results, w, run_s, workers) -> tuple[dict, list]:
    for r in results:
        tracer.merge(getattr(r, "bench_trace", None))
    tracer.merge(child_trace)
    data = tracer.export()
    manifest_wall_s = sum(
        json.loads((r.directory / "manifest.json").read_text())["wall_clock_seconds"]
        for r in results
    )
    pool = workers if w.sweep_taus else 1
    layers = layer_metrics(data, tracer.missing, run_s, pool, manifest_wall_s)
    errors = [
        f"traced layer {layer} recorded zero calls"
        for layer in active_layers(w, tracer.missing)
        if layer_calls(data, layer) == 0
    ]
    return layers, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("run", "setup", "verify"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    phases = {"run": run_sample, "setup": setup_sample, "verify": verify_sample}
    result = phases[args.phase](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
