"""Process scaling of sweep2d-33 over workers x BLAS threads <= usable CPUs.

    python3 perfbench/scaling.py --seconds 20 --seed 1

Runs run.py on sweep2d-33 once per (workers, BLAS threads) pair whose
product fits the CPUs this process may use, and prints run_s, the speed-up
against 1 worker x 1 thread, and the efficiency (speed-up / CPUs used).
Pairs that would oversubscribe the CPUs are not run: their wall time
measures the scheduler, not the program. The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    ncpu = len(os.sched_getaffinity(0))
    pairs = [(w, b) for w in range(1, ncpu + 1) for b in range(1, ncpu + 1) if w * b <= ncpu]
    rows = []
    for workers, blas in pairs:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "sweep2d-33",
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--workers", str(workers), "--blas-threads", str(blas)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workers={workers} blas={blas}: failed\n{proc.stderr[-1000:]}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        rows.append({"workers": workers, "blas_threads": blas, "correct": result["correct"],
                     "run_s": result["metrics"]["run_s"]["value"]})
    base = next(r["run_s"] for r in rows if r["workers"] == r["blas_threads"] == 1)
    print(f"{'workers':>7} {'blas':>4} {'run_s':>8} {'speed-up':>8} {'efficiency':>10}")
    for r in rows:
        r["speedup"] = base / r["run_s"]
        r["efficiency"] = r["speedup"] / (r["workers"] * r["blas_threads"])
        print(f"{r['workers']:>7} {r['blas_threads']:>4} {r['run_s']:>8.3f} "
              f"{r['speedup']:>8.2f} {r['efficiency']:>10.2f}")
    print(json.dumps({"usable_cpus": ncpu, "pairs": rows}))
    return 0 if all(r["correct"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
