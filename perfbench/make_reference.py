"""Regenerate reference.npz: the final u of every workload at the nominal amplitude.

    python3 perfbench/make_reference.py

Run it only when the expected solution changes on purpose; the benchmark
gate compares every sample's final u against these arrays.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from sample import import_crystalflow
from workloads import REFERENCE_FILE, WORKLOADS, config_text, reference_keys

WORK_PARENT = Path(__file__).resolve().parent.parent / ".perfbench_work"


def main() -> int:
    cf = import_crystalflow()
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK_PARENT))
    arrays = {}
    try:
        for w in WORKLOADS.values():
            cfg = cf.parse_config(config_text(w, w.amplitude, w.name))
            if w.sweep_taus:
                results = cf.sweep(cfg, "tau", w.sweep_taus, output_root=work / w.name)
            else:
                results = [cf.run_experiment(cfg, output_root=work)]
            for key, r in zip(reference_keys(w), results):
                if r.exit_code != 0:
                    print(f"{key}: run failed: {r.error}", file=sys.stderr)
                    return 1
                arrays[key] = r.trajectory.records[-1].u.values
                print(f"{key}: {arrays[key].size} values")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    np.savez_compressed(REFERENCE_FILE, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
