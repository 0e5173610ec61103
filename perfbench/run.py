"""crystalflow benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload solve2d-65 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Closed loop, one client: samples run back to back, each in a fresh
interpreter (as every `crystalflow run` is), until --seconds have passed.
Every sample must pass the correctness gate (see README.md); one that does
not counts as a failed operation. The result is the median over samples.

With --trace 0, set-up-only samples are interleaved with the workload
samples and take about SETUP_SHARE of the run, so that the setup_s median
rests on several times more samples than run_s. With --trace 1, traced and
untraced workload samples alternate: the traced ones give the per-layer
metrics, the untraced ones the verify time (cli.verify_s; 0 on workloads
that do not verify), and the difference between the two medians of run_s is the
tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".perfbench_work"
MAIN_WORKLOADS = ("solve2d-65", "audit1d-65", "sweep2d-33")
# share of an untraced run's sample time spent in set-up-only samples
SETUP_SHARE = 0.3
# a run must end within 180 s, so a stuck sample is killed before that
RUN_LIMIT_S = 170
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_child(cmd, env, timeout_s):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, f"timed out after {timeout_s} s\n{err[-2000:]}"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit code {proc.returncode}\n{err[-2000:]}"
    return json.loads(lines[-1]), err


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def environment(workers: int, blas_threads: int, versions: dict) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_fingerprint(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: str(blas_threads) for var in BLAS_THREAD_VARS},
        "sweep_workers": workers,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, workers: int,
            env) -> list[tuple]:
    """Run samples until `seconds` have passed; return (kind, result, stderr)
    each, kind being "run", "traced" or "setup"."""
    samples = []
    spent = {"setup": 0.0, "workload": 0.0}
    WORK_PARENT.mkdir(exist_ok=True)
    start = time.perf_counter()
    runs = 0
    while True:
        work = None
        if not trace and spent["setup"] < SETUP_SHARE / (1 - SETUP_SHARE) * spent["workload"]:
            kind = "setup"
            cmd = [sys.executable, str(HERE / "sample.py"), "setup", "--workload", workload,
                   "--seed", str(seed)]
        else:
            kind = "traced" if trace and runs % 2 == 0 else "run"
            runs += 1
            work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_PARENT)
            cmd = [sys.executable, str(HERE / "sample.py"), "run", "--workload", workload,
                   "--seed", str(seed), "--work", work, "--workers", str(workers),
                   "--trace", str(int(kind == "traced"))]
        t0 = time.perf_counter()
        timeout_s = max(5.0, RUN_LIMIT_S - (t0 - start))
        try:
            result, err = run_child(cmd, env, timeout_s)
        finally:
            if work is not None:
                shutil.rmtree(work, ignore_errors=True)
        spent["setup" if kind == "setup" else "workload"] += time.perf_counter() - t0
        samples.append((kind, result, err))
        enough = runs >= (2 if trace else 1)
        if enough and time.perf_counter() - start >= seconds:
            return samples


def median_of(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def summarize(samples, trace: bool, verifies: bool) -> tuple[dict, int]:
    """Metrics (name -> {value, unit}) and the number of failed samples."""
    failed = 0
    for kind, result, err in samples:
        if result is None or not result["ok"]:
            failed += 1
            reason = err if result is None else "; ".join(result["errors"])
            print(f"sample failed ({kind}): {reason}", file=sys.stderr)
    passed = [(k, r) for k, r, _ in samples if r is not None and r["ok"]]
    absent = sorted({h for _, r in passed for h in r.get("absent_hooks", [])})
    if absent:
        print(f"functions missing, their metrics are absent: {absent}", file=sys.stderr)
    untraced = [r for k, r in passed if k == "run"]
    metrics = {}
    if not trace:
        # set-up is timed the same way in workload and set-up-only samples
        sources = {"setup_s": [r for k, r in passed if k in ("run", "setup")]}
        for name, unit in END_TO_END.items():
            value = median_of(sources.get(name, untraced), name)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
        return metrics, failed
    traced = [r for k, r in passed if k == "traced"]
    for name, (unit, _) in PER_LAYER.items():
        value = median_of([r["layers"] for r in traced], name)
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    # a workload that keeps no snapshots spends no time in crystalflow verify
    verify_s = median_of(untraced, "verify_s") if verifies else 0.0
    if verify_s is not None:
        metrics["cli.verify_s"] = {"value": verify_s, "unit": "s"}
    traced_run = median_of(traced, "run_s")
    untraced_run = median_of(untraced, "run_s")
    if traced_run is not None and untraced_run is not None:
        metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_run - untraced_run, "unit": "s"}
    return metrics, failed


def smoke() -> int:
    """Run every workload's tiny twin, untraced and traced, and check that every
    metric BENCHMARK.json declares is printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in MAIN_WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--tiny",
                   "--seed", "1", "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=RUN_LIMIT_S + 10)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{where}: correct={result.get('correct')} "
                                f"failed={result.get('failed')}: {proc.stderr[-500:]}")
            printed = result.get("metrics", {})
            for metric in declared:
                got = printed.get(metric["name"])
                if got is None:
                    problems.append(f"{where}: metric {metric['name']} not printed")
                elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"),
                                                                         (int, float)):
                    problems.append(f"{where}: metric {metric['name']} printed as {got}")
            extra = set(printed) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            print(f"smoke {where}: {len(printed)} metrics")
    for problem in problems:
        print(f"smoke FAIL: {problem}")
    print("smoke PASS" if not problems else f"smoke FAIL ({len(problems)} problems)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=MAIN_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload's tiny twin (what --smoke uses)")
    parser.add_argument("--blas-threads", type=int, default=1)
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep pool size (default: usable CPUs // BLAS threads)")
    parser.add_argument("--smoke", action="store_true",
                        help="check every declared metric is printed with its unit")
    args = parser.parse_args(argv)

    if not (SRC / "crystalflow" / "__init__.py").is_file():
        print(f"error: no crystalflow sources at {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    ncpu = len(os.sched_getaffinity(0))
    if args.blas_threads < 1:
        parser.error("--blas-threads must be at least 1")
    workers = args.workers or max(1, ncpu // args.blas_threads)
    if workers * args.blas_threads > ncpu:
        parser.error(f"workers x BLAS threads = {workers} x {args.blas_threads} "
                     f"exceeds the {ncpu} usable CPUs")
    workload = args.workload + ("-tiny" if args.tiny else "")

    # a terminated run still stops its sample's process group (run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ)
    env.update({var: str(args.blas_threads) for var in BLAS_THREAD_VARS})
    env.pop("PYTHONPATH", None)
    samples = measure(workload, args.seed, args.seconds, bool(args.trace), workers, env)
    metrics, failed = summarize(samples, bool(args.trace), WORKLOADS[workload].verify)

    versions = next((r["versions"] for _, r, _ in samples if r and "versions" in r), {})
    print("environment: " + json.dumps(environment(workers, args.blas_threads, versions)))
    setups = sum(kind == "setup" for kind, _, _ in samples)
    print(f"workload {workload}: {len(samples)} samples ({setups} set-up only), "
          f"{failed} failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
