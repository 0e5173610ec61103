"""Experiment orchestration: artifacts, manifests, sweeps, comparisons."""

import csv
import hashlib
import json
import os
import threading

import numpy as np
import pytest

from crystalflow import estimates, experiment, spectral, stepper
from crystalflow.config import build_initial_field, parse_config
from crystalflow.exceptions import ArgumentError
from crystalflow.experiment import _reload_run, compare_variants, run_experiment, sweep
from crystalflow.nonlinearity import EXP_ARG_BOUND, make_variant

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

    def test_manifest_and_rerun_keep_to_the_runs_own_files(self, tmp_path):
        """A run into a directory that also holds a foreign file, another
        run's subdirectory and files among the snapshots that no run writes
        lists in its manifest, and on a rerun removes, only its own files."""
        run_dir = tmp_path / "demo"
        inner = run_experiment(make_cfg(**{"directory = demo": "directory = demo/inner\n"
                                                               "snapshot_stride = 5"}), tmp_path)
        foreign = {
            "notes.md": b"mine\n",
            "fields/notes.txt": b"keep\n",
            "fields/u_1.csv": b"not a snapshot name\n",
            "fields/u_000001 copy.csv": b"nor this\n",
            "fields/u_1.f64": b"not a snapshot name\n",
            "fields/u_000001 copy.f64": b"nor this\n",
            # a text snapshot as versions before the float64 store wrote it
            "fields/u_000005.csv": b"# grid: dim=1 nodes=65 extent=1\n",
        }
        foreign.update({
            str(p.relative_to(run_dir)): p.read_bytes()
            for p in inner.directory.rglob("*") if p.is_file()
        })
        for rel, data in foreign.items():
            (run_dir / rel).parent.mkdir(parents=True, exist_ok=True)
            (run_dir / rel).write_bytes(data)
        own = ["config.txt", "report_terms.csv", "reports.csv", "trajectory.csv"]
        snapshots = [f"fields/{kind}_{k:06d}.f64" for kind in "uw" for k in (0, 5, 10)]

        for stride, listed in ((5, own + snapshots), (0, own)):
            cfg = make_cfg(**{"directory = demo": f"directory = demo\nsnapshot_stride = {stride}"})
            assert run_experiment(cfg, tmp_path).ok
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert sorted(manifest["artifacts"]) == sorted(listed)
            on_disk = {str(p.relative_to(run_dir)) for p in run_dir.rglob("*") if p.is_file()}
            assert on_disk == set(foreign) | set(listed) | {"manifest.json"}
            for rel, data in foreign.items():
                assert (run_dir / rel).read_bytes() == data

    def test_run_into_the_working_directory_lists_only_its_files(self, tmp_path, monkeypatch):
        """directory = . with no output root writes into the working
        directory, and the user's files there are neither listed nor removed."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text(BASE)
        (tmp_path / "junk" / "sub").mkdir(parents=True)
        (tmp_path / "junk" / "sub" / "big.bin").write_bytes(b"\0" * 64)
        result = run_experiment(make_cfg(**{"directory = demo": "directory = ."}))
        assert result.ok
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == [
            "config.txt", "report_terms.csv", "reports.csv", "trajectory.csv"
        ]
        assert (tmp_path / "exp.cfg").read_text() == BASE
        assert (tmp_path / "junk" / "sub" / "big.bin").read_bytes() == b"\0" * 64

    def test_empty_output_root_is_unset(self, tmp_path, monkeypatch):
        """output_root = "" leaves the configured directory as it is, as
        None does: an absolute directory is written, not refused."""
        monkeypatch.chdir(tmp_path)
        absolute = tmp_path / "abs"
        result = run_experiment(make_cfg(**{"directory = demo": f"directory = {absolute}"}),
                                output_root="")
        assert result.ok and result.directory == absolute
        assert (absolute / "manifest.json").is_file()

    def test_manifest_iteration_totals(self, tmp_path, monkeypatch):
        """manifest.json holds the run's Newton and PCG iteration totals, the
        sums over its records; the PCG total is every iteration the sinh
        directions took, and 0 for exp, whose directions are factored."""
        pcg_direction, cg = stepper._pcg_direction, []

        def counting(*args):
            out = pcg_direction(*args)
            cg.append(out[2])
            return out

        monkeypatch.setattr(stepper, "_pcg_direction", counting)
        for kind in ("sinh", "exp"):
            cg.clear()
            cfg = make_cfg(**{"[output]": f"[variant]\nkind = {kind}\n\n[output]",
                              "directory = demo": f"directory = {kind}"})
            result = run_experiment(cfg, tmp_path)
            manifest = json.loads((result.directory / "manifest.json").read_text())
            records = result.trajectory.records
            newton = [int(row["newton_iters"]) for row in trajectory_rows(result.directory)]
            assert manifest["newton_iterations"] == sum(r.newton_iters for r in records)
            assert manifest["newton_iterations"] == sum(newton) > 0
            assert manifest["cg_iterations"] == sum(r.cg_iters for r in records) == sum(cg)
            assert records[0].cg_iters == 0
            assert (manifest["cg_iterations"] > 0) == (kind == "sinh")

    def test_snapshots_written_at_stride(self, tmp_path):
        cfg = make_cfg(**{"directory = demo": "directory = demo\nsnapshot_stride = 5"})
        result = run_experiment(cfg, tmp_path)
        names = sorted(p.name for p in (result.directory / "fields").glob("u_*.f64"))
        assert names == ["u_000000.f64", "u_000005.f64", "u_000010.f64"]

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
        assert manifest["newton_iterations"] is None and manifest["cg_iterations"] is None

    def test_corrupt_snapshot_profile_fails_with_manifest(self, tmp_path):
        snap = tmp_path / "corrupt.f64"
        snap.write_text("# grid: nodes=65 extent=1\n0\n")
        cfg = make_cfg(**{"profile = cosine\namplitude = 0.1": f"profile = snapshot\npath = {snap}"})
        result = run_experiment(cfg, tmp_path)
        assert result.exit_code == 1
        assert "SnapshotFormatError" in result.error
        manifest = json.loads((result.directory / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"

    def test_missing_snapshot_profile_fails_with_manifest(self, tmp_path):
        missing = tmp_path / "missing.f64"
        cfg = make_cfg(**{"profile = cosine\namplitude = 0.1": f"profile = snapshot\npath = {missing}"})
        result = run_experiment(cfg, tmp_path)
        assert result.exit_code == 1
        assert "SnapshotFormatError" in result.error and "missing.f64" in result.error
        manifest = json.loads((result.directory / "manifest.json").read_text())
        assert manifest["status"] == "FAILED"

    def test_singular_step_factor_fails_with_step_index(self, tmp_path):
        # exp factors a Schur matrix every Newton iteration. At max|w0| = 156
        # the step-1 Schur matrix has entries up to 3.0e74 and SuperLU finds
        # its factor exactly singular
        cfg = make_cfg(
            **{
                "nodes = 65": "nodes = 33",
                "profile = cosine\namplitude = 0.1": (
                    "profile = gaussian_bump\namplitude = 0.2\nwidth = 0.1"
                ),
                "[output]": "[variant]\nkind = exp\n\n[output]",
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

    @pytest.mark.parametrize(
        "variant, c",
        [("kind = exp", -1000), ("kind = scaled_sinh\nK = 0.5", 1000)],
        ids=["exp", "scaled_sinh-K0.5"],
    )
    def test_energy_column_is_the_variants_own(self, variant, c, tmp_path):
        # |w_0| = 1000 passes each variant's cap (exp is capped from above,
        # scaled_sinh on K|w|) but overflows cosh; the column must hold the
        # finite int F(w) of the run's own variant
        cfg = make_cfg(**{
            "nodes = 65": "nodes = 17",
            "profile = cosine\namplitude = 0.1": f"profile = constant\nc = {c}",
            "tau = 0.01\nhorizon = 0.1": "tau = 10000\nhorizon = 30000\nreg_eps = 1",
            "[output]": f"[variant]\n{variant}\n\n[output]",
        })
        result = run_experiment(cfg, tmp_path)
        assert result.ok
        traj = result.trajectory
        qw = traj.grid.quad_weights()
        rows = trajectory_rows(result.directory)
        assert float(rows[0]["w_sup"]) == 1000.0
        for row, rec in zip(rows, traj.records):
            energy = float(row["cosh_energy"])
            assert np.isfinite(energy)
            assert energy == float(qw @ traj.variant.antiderivative(rec.w.values))

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

    def test_linear_variant_gets_the_energy_reports(self, tmp_path):
        """f(w) = w is odd with f' = 1, so a linear run is audited against
        the three energy inequalities, as sinh and scaled_sinh are."""
        cfg = make_cfg(**{"[output]": "[variant]\nkind = linear\n\n[output]"})
        result = run_experiment(cfg, tmp_path)
        assert result.ok
        assert [rep.name for rep in result.reports] == ["prop31", "prop32", "prop33"]
        assert all(rep.passed for rep in result.reports)

    _LARGE_LINEAR = {
        "nodes = 65": "nodes = 17",
        "tau = 0.01\nhorizon = 0.1": "tau = 1\nhorizon = 2\nreg_eps = 1",
        "[output]": "[variant]\nkind = linear\n\n[output]",
    }

    def test_linear_is_not_bound_by_sinh_arg_cap(self, tmp_path):
        """linear's f, f' and F take no exponential: |w| = 8670 > 700 runs
        and passes the three energy inequalities."""
        cfg = make_cfg(**{**self._LARGE_LINEAR, "amplitude = 0.1": "amplitude = 800"})
        result = run_experiment(cfg, tmp_path)
        assert result.ok, result.error
        assert result.trajectory.records[0].w.values.max() > EXP_ARG_BOUND
        assert [rep.name for rep in result.reports] == ["prop31", "prop32", "prop33"]
        assert all(rep.passed for rep in result.reports)

    def test_linear_w_whose_square_overflows_is_refused(self, tmp_path):
        # w_0 = reg_eps c = 1e155 > sqrt(max double) = 1.34e154
        cfg = make_cfg(**{
            **self._LARGE_LINEAR,
            "profile = cosine\namplitude = 0.1": "profile = constant\nc = 1e155",
        })
        result = run_experiment(cfg, tmp_path)
        assert result.exit_code == 1 and result.trajectory is None
        assert result.error.startswith(
            "OverflowCapError: step 0: |argument| = 1e+155 exceeds sqrt(max double) = 1.34078e+154"
        )


class TestStepRecheck:
    @pytest.mark.parametrize(
        "replacements",
        [
            {"dim = 1\nnodes = 65": "dim = 2\nnodes = 17,17"},
            {"[output]": "[variant]\nkind = scaled_sinh\nK = 2\n\n[output]"},
            {"[output]": "[variant]\nkind = linear\n\n[output]"},
            {"[output]": "[variant]\nkind = exp\n\n[output]"},
            {"nodes = 65": "nodes = 33",
             "[output]": "[variant]\nkind = p_exponent\np = 3\n\n[output]"},
        ],
        ids=["sinh-2d", "scaled-sinh-K2", "linear", "exp", "p3"],
    )
    def test_recorded_residual_is_the_recheck(self, replacements, tmp_path):
        """Each step's residual_inf is, bit for bit, the norm that
        stepper.check_scheme recomputes from the stored snapshots, and
        trajectory.csv's residual_inf column parses to the same floats."""
        stride = {"directory = demo": "directory = demo\nsnapshot_stride = 1"}
        cfg = make_cfg(**replacements, **stride)
        result = run_experiment(cfg, tmp_path)
        assert result.ok
        recorded = [rec.residual_inf for rec in result.trajectory.records[1:]]
        assert all(res > 0 for res in recorded)
        _, reloaded = _reload_run(result.directory)
        assert stepper.check_scheme(reloaded) == recorded
        rows = trajectory_rows(result.directory)[1:]
        assert [float(row["residual_inf"]) for row in rows] == recorded


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

    def test_empty_output_root_is_unset(self, tmp_path, monkeypatch):
        """output_root = "" takes the configured directory as the root, as
        None does, not the working directory."""
        monkeypatch.chdir(tmp_path)
        results = sweep(make_cfg(), "tau", [0.01], output_root="")
        assert results[0].ok
        assert (tmp_path / "demo" / "tau_0.01" / "manifest.json").is_file()
        assert (tmp_path / "demo" / "sweep_summary.csv").is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo"]

    def test_unknown_param_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sweep parameter"):
            sweep(make_cfg(), "nodes", [33], output_root=tmp_path)

    def test_parallel_matches_serial(self, tmp_path):
        """workers > 1 writes the bytes of workers = 1, each sweep from cold
        caches: every file of every run directory, the manifest but for its
        wall time, and the summary."""
        cfg = make_cfg(**{
            "dim = 1\nnodes = 65": "dim = 2\nnodes = 9,9",
            "horizon = 0.1": "horizon = 0.04\nreg_eps = 0.01",
            "directory = demo": "directory = demo\nsnapshot_stride = 2",
        })
        values = [0.0025, 0.005, 0.01, 0.02]

        def sweep_files(workers):
            for cached in (stepper._helmholtz_inverse, stepper._direction_multipliers,
                           spectral._dct1_matrix, spectral.eigenvalues):
                cached.cache_clear()
            root = tmp_path / f"workers_{workers}"
            results = sweep(cfg, "tau", values, output_root=root, workers=workers)
            assert [r.ok for r in results] == [True] * len(values)
            assert [r.directory.name for r in results] == [f"tau_{v:g}" for v in values]
            files = {}
            for path in sorted(p for p in root.rglob("*") if p.is_file()):
                content = path.read_bytes()
                if path.name == "manifest.json":
                    content = json.loads(content)
                    del content["wall_clock_seconds"]
                files[str(path.relative_to(root))] = content
            return files

        serial = sweep_files(1)
        assert len([name for name in serial if name.endswith("manifest.json")]) == len(values)
        assert "sweep_summary.csv" in serial
        assert sweep_files(2) == serial

    def test_parallel_runs_in_the_calling_process(self, tmp_path, monkeypatch):
        """workers = 2 runs every value in this process and its calling
        thread, in the order of the values."""
        where = []

        def recording(cfg, output_root=None):
            where.append((os.getpid(), threading.current_thread() is threading.main_thread(),
                          cfg.scheme.tau))
            return run_experiment(cfg, output_root)

        monkeypatch.setattr(experiment, "run_experiment", recording)
        values = [0.02, 0.01, 0.005]
        results = sweep(make_cfg(), "tau", values, output_root=tmp_path, workers=2)
        assert all(r.ok for r in results)
        assert where == [(os.getpid(), True, tau) for tau in values]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_refused_before_any_directory(self, tmp_path, workers):
        root = tmp_path / "root"
        with pytest.raises(ArgumentError, match=f"workers must be at least 1, got {workers}"):
            sweep(make_cfg(), "tau", [0.02, 0.01], output_root=root, workers=workers)
        assert not root.exists()


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

    def test_comparison_bytes_pinned(self, tmp_path):
        # 2-D 9 x 9, three steps; the sinh columns are cosh energies, the exp
        # and linear ones integrate e^w and w^2/2
        cfg = make_cfg(**{
            "dim = 1\nnodes = 65": "dim = 2\nnodes = 9,9",
            "amplitude = 0.1": "amplitude = 0.5",
            "tau = 0.01\nhorizon = 0.1": "tau = 0.001\nhorizon = 0.003",
        })
        results = compare_variants(cfg, ("sinh", "exp", "linear"), output_root=tmp_path)
        assert all(r.ok for r in results.values())
        assert (tmp_path / "variant_comparison.csv").read_text() == (
            "t,w_sup_sinh,energy_sinh,w_sup_exp,energy_exp,w_sup_linear,energy_linear\n"
            "0,9.7439198385552981,590.51583305720874,9.7439198385552981,590.5158330572084,"
            "9.7439198385552981,11.867996727523931\n"
            "0.001,3.3489405073772258,5.8276554770230931,16.77823901267594,5.2989182229896805,"
            "7.0619583019839185,6.2339068823699444\n"
            "0.002,2.1895854840249895,2.2148500213250819,22.058827822534305,3.1881644433127008,"
            "5.1181922558133293,3.2744864959334374\n"
            "0.0030000000000000001,1.5690259048871638,1.4707331454193022,38.539611055958588,"
            "2.4769440454970435,3.7094373610374212,1.719990691932531\n"
        )

    def test_scaled_sinh_converges_to_linear(self):
        cfg = make_cfg(
            **{"profile = cosine\namplitude = 0.1": "profile = cosine\namplitude = 0.2"}
        )
        u0 = build_initial_field(cfg)
        qw = cfg.grid.quad_weights()

        def final_u(variant):
            return stepper.run(u0, cfg.scheme, variant).records[-1].u.values

        reference = final_u(make_variant("linear"))
        diffs = []
        for k in (1.0, 0.5, 0.25):
            d = final_u(make_variant("scaled_sinh", K=k)) - reference
            diffs.append(float(np.sqrt(qw @ (d * d))))
        assert len(diffs) == 3
        assert diffs[0] > diffs[1] > diffs[2]
