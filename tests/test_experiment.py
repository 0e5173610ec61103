"""Experiment orchestration: artifacts, manifests, sweeps, comparisons."""

import csv
import hashlib
import json

import numpy as np
import pytest

from crystalflow import estimates, stepper
from crystalflow.config import parse_config
from crystalflow.experiment import (
    compare_scaled_sinh,
    compare_variants,
    run_experiment,
    sweep,
)

BASE = """
[grid]
dim = 1
nodes = 65

[initial]
profile = cosine
amplitude = 0.1

[scheme]
tau = 0.01
horizon = 0.1

[output]
directory = demo
"""


def make_cfg(**replacements):
    text = BASE
    for old, new in replacements.items():
        text = text.replace(old, new)
    return parse_config(text)


def trajectory_rows(directory):
    with open(directory / "trajectory.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunExperiment:
    def test_zero_initial_condition(self, tmp_path):
        cfg = make_cfg(**{"profile = cosine\namplitude = 0.1": "profile = constant\nc = 0"})
        result = run_experiment(cfg, tmp_path)
        assert result.ok
        rows = trajectory_rows(result.directory)
        assert len(rows) == 11
        for row in rows:
            assert float(row["u_mean"]) == 0.0
            assert float(row["w_sup"]) == 0.0
        assert all(rep.passed for rep in result.reports)

    def test_constant_u_mean_column(self, tmp_path):
        cfg = make_cfg(
            **{
                "profile = cosine\namplitude = 0.1": "profile = constant\nc = 2",
                "tau = 0.01": "tau = 0.5",
                "horizon = 0.1": "horizon = 2.0",
            }
        )
        result = run_experiment(cfg, tmp_path)
        for k, row in enumerate(trajectory_rows(result.directory)):
            assert float(row["u_mean"]) == pytest.approx(2.0 / 1.125**k, abs=1e-9)

    def test_newton_iters_column(self, tmp_path, monkeypatch):
        iters = []
        newton_step = stepper.newton_step

        def counted(*args, **kwargs):
            out = newton_step(*args, **kwargs)
            iters.append(len(out[2].residual_history) - 1)
            return out

        monkeypatch.setattr(stepper, "newton_step", counted)
        result = run_experiment(make_cfg(), tmp_path)
        header = (result.directory / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("k,t,newton_iters,residual_inf,")
        column = [int(row["newton_iters"]) for row in trajectory_rows(result.directory)]
        assert len(iters) == 10 and min(iters) > 0
        assert column == [0] + iters

    def test_manifest_lists_every_artifact_with_hash(self, tmp_path):
        cfg = make_cfg()
        result = run_experiment(cfg, tmp_path)
        manifest = json.loads((result.directory / "manifest.json").read_text())
        assert manifest["status"] == "OK"
        assert manifest["error"] is None
        on_disk = {
            str(p.relative_to(result.directory))
            for p in result.directory.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert set(manifest["artifacts"]) == on_disk
        for rel, digest in manifest["artifacts"].items():
            data = (result.directory / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_snapshots_written_at_stride(self, tmp_path):
        cfg = make_cfg(**{"directory = demo": "directory = demo\nsnapshot_stride = 5"})
        result = run_experiment(cfg, tmp_path)
        names = sorted(p.name for p in (result.directory / "fields").glob("u_*.csv"))
        assert names == ["u_000000.csv", "u_000005.csv", "u_000010.csv"]

    def test_failure_keeps_partial_artifacts(self, tmp_path):
        cfg = make_cfg(
            **{"profile = cosine\namplitude = 0.1": "profile = cosine\namplitude = 3\nmode = 8"}
        )
        result = run_experiment(cfg, tmp_path)
        assert result.exit_code == 1
        assert "OverflowCapError" in result.error
        manifest = json.loads((result.directory / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"
        assert "config.txt" in manifest["artifacts"]

    def test_corrupt_snapshot_profile_fails_with_manifest(self, tmp_path):
        snap = tmp_path / "corrupt.csv"
        snap.write_text("# grid: nodes=65 extent=1\n0\n")
        cfg = make_cfg(**{"profile = cosine\namplitude = 0.1": f"profile = snapshot\npath = {snap}"})
        result = run_experiment(cfg, tmp_path)
        assert result.exit_code == 1
        assert "SnapshotFormatError" in result.error
        manifest = json.loads((result.directory / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"

    def test_missing_snapshot_profile_fails_with_manifest(self, tmp_path):
        missing = tmp_path / "missing.csv"
        cfg = make_cfg(**{"profile = cosine\namplitude = 0.1": f"profile = snapshot\npath = {missing}"})
        result = run_experiment(cfg, tmp_path)
        assert result.exit_code == 1
        assert "SnapshotFormatError" in result.error and "missing.csv" in result.error
        manifest = json.loads((result.directory / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"

    def test_singular_step_factor_fails_with_step_index(self, tmp_path):
        # max|w0| = 156: the step-1 Schur matrix has entries up to 1.5e74 and
        # SuperLU finds its factor exactly singular
        cfg = make_cfg(
            **{
                "nodes = 65": "nodes = 33",
                "profile = cosine\namplitude = 0.1": (
                    "profile = gaussian_bump\namplitude = 0.2\nwidth = 0.1"
                ),
            }
        )
        result = run_experiment(cfg, tmp_path)
        assert result.exit_code == 1
        assert result.error.startswith("SolverFailure: step 1: ")
        manifest = json.loads((result.directory / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"
        assert manifest["error"] == result.error

    def test_functionals_computed_once_per_report_set(self, tmp_path, monkeypatch):
        calls = []
        functionals = estimates._functionals

        def counted(traj):
            calls.append(traj)
            return functionals(traj)

        monkeypatch.setattr(estimates, "_functionals", counted)
        result = run_experiment(make_cfg(), tmp_path)
        assert [rep.name for rep in result.reports] == ["prop31", "prop32", "prop33"]
        assert len(calls) == 1
        estimates.standard_reports(result.trajectory)
        assert len(calls) == 2

    def test_determinism_byte_identical(self, tmp_path):
        cfg = make_cfg(
            **{"profile = cosine\namplitude = 0.1": "profile = random_smooth\namplitude = 0.3\nseed = 5"}
        )
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        data_a = (a.directory / "trajectory.csv").read_bytes()
        data_b = (b.directory / "trajectory.csv").read_bytes()
        assert data_a == data_b

    def test_exp_variant_runs_without_reports(self, tmp_path):
        cfg = make_cfg(**{"[output]": "[variant]\nkind = exp\n\n[output]"})
        result = run_experiment(cfg, tmp_path)
        assert result.ok
        assert result.reports == []

    def test_p_variant_gets_dissipation_report(self, tmp_path):
        cfg = make_cfg(**{"[output]": "[variant]\nkind = p_exponent\np = 3\n\n[output]"})
        result = run_experiment(cfg, tmp_path)
        assert result.ok
        assert [rep.name for rep in result.reports] == ["p_variant_energy"]
        assert result.reports[0].passed


class TestSweep:
    def test_tau_sweep_summary(self, tmp_path):
        cfg = make_cfg()
        results = sweep(cfg, "tau", [0.01, 0.005, 0.0025], output_root=tmp_path)
        assert all(r.ok for r in results)
        rows = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert rows[0] == "tau,final_l2_diff_to_next,observed_order"
        assert len(rows) == 4
        middle = rows[2].split(",")
        assert float(middle[1]) > 0
        assert 0.5 < float(middle[2]) < 2.5

    def test_unknown_param_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sweep parameter"):
            sweep(make_cfg(), "nodes", [33], output_root=tmp_path)

    def test_parallel_matches_serial(self, tmp_path):
        cfg = make_cfg()
        serial = sweep(cfg, "tau", [0.01, 0.005], output_root=tmp_path / "s", workers=1)
        parallel = sweep(cfg, "tau", [0.01, 0.005], output_root=tmp_path / "p", workers=2)
        for a, b in zip(serial, parallel):
            fa = (a.directory / "trajectory.csv").read_bytes()
            fb = (b.directory / "trajectory.csv").read_bytes()
            assert fa == fb


class TestCompare:
    def test_zero_data_identical_across_variants(self, tmp_path):
        cfg = make_cfg(**{"profile = cosine\namplitude = 0.1": "profile = constant\nc = 0"})
        results = compare_variants(cfg, ("sinh", "exp"), output_root=tmp_path)
        rows = (tmp_path / "variant_comparison.csv").read_text().splitlines()
        assert rows[0] == "t,w_sup_sinh,energy_sinh,w_sup_exp,energy_exp"
        for row in rows[1:]:
            fields = [float(v) for v in row.split(",")]
            assert fields[1] == 0.0 and fields[3] == 0.0

    def test_sinh_and_exp_series_both_present(self, tmp_path):
        cfg = make_cfg()
        results = compare_variants(cfg, ("sinh", "exp"), output_root=tmp_path)
        assert results["sinh"].ok and results["exp"].ok
        rows = (tmp_path / "variant_comparison.csv").read_text().splitlines()
        assert len(rows) == 12

    def test_scaled_sinh_converges_to_linear(self, tmp_path):
        cfg = make_cfg(
            **{"profile = cosine\namplitude = 0.1": "profile = cosine\namplitude = 0.2"}
        )
        compare_scaled_sinh(cfg, [1.0, 0.5, 0.25], output_root=tmp_path)
        rows = (tmp_path / "scaled_sinh_summary.csv").read_text().splitlines()[1:]
        diffs = [float(row.split(",")[1]) for row in rows]
        assert len(diffs) == 3
        assert diffs[0] > diffs[1] > diffs[2]
