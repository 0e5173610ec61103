"""Command-line interface behavior and exit codes."""

import os

import numpy as np
import pytest

from crystalflow.cli import OUTPUT_ROOT_ENV, main
from crystalflow.exceptions import OverflowCapError
from crystalflow.experiment import _applicable_reports, _reload_run, verify_run
from crystalflow.grid import Field, Grid, load_field, save_field

CONFIG = """
[grid]
dim = 1
nodes = 65

[initial]
profile = cosine
amplitude = 0.1

[scheme]
tau = 0.01
horizon = 0.05

[output]
directory = demo
snapshot_stride = 1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG)
    return str(path)


# config edits giving values no run can use: each is one violation, not a
# traceback from inside the run
UNUSABLE_CASES = {
    "zero-steps": {"tau = 0.01": "tau = 1e10", "horizon = 0.05": "horizon = 0.1\nreg_eps = 1"},
    "tau-inf": {"tau = 0.01": "tau = inf"},
    "reg_eps-inf": {"tau = 0.01": "tau = 0.01\nreg_eps = inf"},
    "horizon-inf": {"horizon = 0.05": "horizon = inf"},
    "cap-nan": {"tau = 0.01": "tau = 0.01\nsinh_arg_cap = nan"},
    "extent-inf": {"nodes = 65": "nodes = 65\nextent = inf"},
    "extent-nan": {"nodes = 65": "nodes = 65\nextent = nan"},
    "extent-tiny": {"nodes = 65": "nodes = 33\nextent = 1e-300"},
    "K-tiny": {"[output]": "[variant]\nkind = scaled_sinh\nK = 1e-200\n\n[output]"},
    "amplitude-nan": {"amplitude = 0.1": "amplitude = nan"},
    "c-inf": {"profile = cosine\namplitude = 0.1": "profile = constant\nc = inf"},
    "random-amplitude-inf": {
        "profile = cosine\namplitude = 0.1": "profile = random_smooth\namplitude = inf\nseed = 1"
    },
    "seed-negative": {"profile = cosine": "profile = random_smooth\nseed = -1"},
}


class TestRunCommand:
    def test_clean_run_exit_zero(self, config_path, tmp_path, capsys):
        code = main(["--output-root", str(tmp_path), "run", config_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "prop31" in out and "pass" in out
        assert (tmp_path / "demo" / "trajectory.csv").exists()

    def test_env_var_output_root(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "via_env"))
        assert main(["run", config_path]) == 0
        assert (tmp_path / "via_env" / "demo" / "trajectory.csv").exists()

    def test_config_errors_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\ndim = 9\nnodes = 65\n[initial]\nprofile = cosine\namplitude = 0.1\n")
        assert main(["run", str(bad)]) == 2
        assert "dim" in capsys.readouterr().err

    def test_overflow_run_exit_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "boom.cfg"
        cfg.write_text(
            CONFIG.replace("amplitude = 0.1", "amplitude = 3\nmode = 8")
        )
        code = main(["--output-root", str(tmp_path), "run", str(cfg)])
        assert code == 1
        assert "failed" in capsys.readouterr().err

    @pytest.mark.parametrize("case", UNUSABLE_CASES)
    def test_unusable_value_exit_2_before_any_run(self, case, tmp_path, capsys):
        text = CONFIG
        for old, new in UNUSABLE_CASES[case].items():
            text = text.replace(old, new)
        cfg, root = tmp_path / "bad.cfg", tmp_path / "out"
        cfg.write_text(text)
        assert main(["--output-root", str(root), "run", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "invalid configuration:" and len(err) == 2
        assert not root.exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["--output-root", str(tmp_path / "out"), "run", str(tmp_path / "nosuch.cfg")])
        assert code == 2
        _assert_one_error_line(capsys.readouterr().err, "nosuch.cfg")
        assert not (tmp_path / "out").exists()


def _assert_one_error_line(err, bad_value):
    """A rejected argument prints one "error: ..." line naming it, no traceback."""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert bad_value in err


# config edits giving run kinds whose reports differ: all three, a subset in
# the configured order, the p-variant dissipation law, and none for exp
VERIFY_CASES = {
    "default": {},
    "subset": {"snapshot_stride = 1": "snapshot_stride = 1\nreports = prop33,prop31"},
    "p3": {"[output]": "[variant]\nkind = p_exponent\np = 3\n\n[output]"},
    "exp": {"[output]": "[variant]\nkind = exp\n\n[output]"},
    "3d": {"dim = 1\nnodes = 65": "dim = 3\nnodes = 9,9,9"},
}


class TestVerifyCommand:
    @pytest.mark.parametrize("case", VERIFY_CASES)
    def test_verify_round_trip(self, case, tmp_path, capsys):
        text = CONFIG
        for old, new in VERIFY_CASES[case].items():
            text = text.replace(old, new)
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert main(["--output-root", str(tmp_path), "run", str(path)]) == 0
        capsys.readouterr()
        code = main(["verify", str(tmp_path / "demo")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("name,lhs,rhs,margin,pass")
        assert out == (tmp_path / "demo" / "reports.csv").read_text()
        if case in ("default", "3d"):
            assert out.count("true") == 3

    def test_verify_rejects_step_off_the_scheme(self, tmp_path, capsys):
        # 1e-6 cos(3 pi x) added to u_20 of a 50-step run leaves every report
        # passing but puts step 20's residual at 1e-3, far above picard_tol
        text = CONFIG.replace("amplitude = 0.1", "amplitude = 0.5").replace(
            "tau = 0.01", "tau = 0.001"
        )
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert main(["--output-root", str(tmp_path), "run", str(path)]) == 0
        run_dir = tmp_path / "demo"
        snapshot = run_dir / "fields" / "u_000020.csv"
        u20 = load_field(snapshot, Grid(1, (1.0,), (65,)))
        x = u20.grid.axis_coords(0)
        save_field(Field(u20.grid, u20.values + 1e-6 * np.cos(3 * np.pi * x)), snapshot)
        cfg, traj = _reload_run(run_dir)
        assert all(rep.passed for rep in _applicable_reports(cfg, traj))
        capsys.readouterr()
        assert main(["verify", str(run_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: step 20: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "name, scale, step",
        [("w_000000.csv", 1 + 1e-15, 0), ("w_000002.csv", 1e6, 2)],
        ids=["w0-off-u0", "w-over-cap"],
    )
    def test_verify_names_tampered_step(self, name, scale, step, config_path, tmp_path, capsys):
        main(["--output-root", str(tmp_path), "run", config_path])
        snapshot = tmp_path / "demo" / "fields" / name
        w = load_field(snapshot, Grid(1, (1.0,), (65,)))
        save_field(Field(w.grid, w.values * scale), snapshot)
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 1
        assert capsys.readouterr().err.startswith(f"error: step {step}: ")

    def test_verify_labels_cap_failure_as_run_does(self, config_path, tmp_path):
        # a stored w over the cap stays an OverflowCapError, step-indexed
        main(["--output-root", str(tmp_path), "run", config_path])
        snapshot = tmp_path / "demo" / "fields" / "w_000002.csv"
        w = load_field(snapshot, Grid(1, (1.0,), (65,)))
        save_field(Field(w.grid, w.values * 1e6), snapshot)
        with pytest.raises(OverflowCapError) as exc:
            verify_run(tmp_path / "demo")
        assert exc.value.step_index == 2
        assert str(exc.value).startswith("step 2: |argument| = ")

    def test_verify_reads_snapshots_on_the_run_grid(self, tmp_path, capsys):
        # headers of u_1 and w_1 edited to extent 1.05 x 1 on a 9 x 9 run: the
        # values alone would still pass every check, read on the header's grid
        text = CONFIG.replace("dim = 1\nnodes = 65", "dim = 2\nnodes = 9,9")
        text = text.replace("amplitude = 0.1", "amplitude = 0.5")
        text = text.replace("tau = 0.01\nhorizon = 0.05", "tau = 0.001\nhorizon = 0.005")
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert main(["--output-root", str(tmp_path), "run", str(path)]) == 0
        for name in ("u_000001.csv", "w_000001.csv"):
            snapshot = tmp_path / "demo" / "fields" / name
            header, values = snapshot.read_text().split("\n", 1)
            assert header == "# grid: dim=2 nodes=9,9 extent=1,1"
            snapshot.write_text("# grid: dim=2 nodes=9,9 extent=1.05,1\n" + values)
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "u_000001.csv" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("missing", ["fields/w_000001.csv", "config.txt"])
    def test_verify_names_missing_file(self, missing, config_path, tmp_path, capsys):
        main(["--output-root", str(tmp_path), "run", config_path])
        (tmp_path / "demo" / missing).unlink()
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 1
        assert missing.split("/")[-1] in capsys.readouterr().err

    def test_verify_legacy_normalized_key(self, tmp_path, capsys):
        # a scaled_sinh config.txt written while f = sinh(K s)/K was selected
        # by "normalized = true" still verifies
        path = tmp_path / "scaled.cfg"
        path.write_text(CONFIG.replace("[output]", "[variant]\nkind = scaled_sinh\nK = 2\n\n[output]"))
        assert main(["--output-root", str(tmp_path), "run", str(path)]) == 0
        config_txt = tmp_path / "demo" / "config.txt"
        text = config_txt.read_text()
        legacy = text.replace("K = 2\n", "K = 2\nnormalized = true\n")
        assert legacy != text
        config_txt.write_text(legacy)
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 0
        out = capsys.readouterr().out
        assert out.count("true") == 3
        assert out == (tmp_path / "demo" / "reports.csv").read_text()

    def test_verify_rejects_corrupt_snapshot(self, config_path, tmp_path, capsys):
        main(["--output-root", str(tmp_path), "run", config_path])
        (tmp_path / "demo" / "fields" / "u_000002.csv").write_text(
            "# grid: dim=1 nodes=65 extent=1\nnot a number\n"
        )
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 1
        assert "u_000002.csv" in capsys.readouterr().err

    def test_verify_ignores_stray_files(self, config_path, tmp_path, capsys):
        main(["--output-root", str(tmp_path), "run", config_path])
        fields = tmp_path / "demo" / "fields"
        (fields / "u_000001 copy.csv").write_bytes((fields / "u_000001.csv").read_bytes())
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 0
        assert capsys.readouterr().out == (tmp_path / "demo" / "reports.csv").read_text()

    def test_verify_names_first_missing_step(self, config_path, tmp_path, capsys):
        sparse = CONFIG.replace("snapshot_stride = 1", "snapshot_stride = 2")
        path = tmp_path / "sparse.cfg"
        path.write_text(sparse)
        main(["--output-root", str(tmp_path), "run", str(path)])
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 1
        err = capsys.readouterr().err
        assert "u_000001.csv" in err and "snapshot_stride = 1" in err

    def test_verify_requires_snapshots(self, config_path, tmp_path, capsys):
        no_snap = CONFIG.replace("snapshot_stride = 1", "snapshot_stride = 0")
        path = tmp_path / "nosnap.cfg"
        path.write_text(no_snap)
        main(["--output-root", str(tmp_path), "run", str(path)])
        code = main(["verify", str(tmp_path / "demo")])
        assert code == 1
        assert "snapshot" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_outputs_summary(self, config_path, tmp_path, capsys):
        code = main(
            [
                "--output-root",
                str(tmp_path),
                "sweep",
                config_path,
                "--param",
                "tau",
                "--values",
                "0.01",
                "0.005",
            ]
        )
        assert code == 0
        assert (tmp_path / "sweep_summary.csv").exists()
        assert "tau = 0.01: ok" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args, bad_value",
        [
            (["--param", "foo", "--values", "0.01"], "foo"),
            # 0.007 does not divide the horizon 0.05
            (["--values", "0.01", "0.007"], "0.007"),
            (["--values", "0.01", "abc"], "abc"),
            (["--values", "0.01", "inf"], "inf"),
        ],
        ids=["param", "not-dividing", "not-a-number", "not-finite"],
    )
    def test_bad_argument_exit_2_before_any_run(
        self, args, bad_value, config_path, tmp_path, capsys
    ):
        root = tmp_path / "out"
        assert main(["--output-root", str(root), "sweep", config_path, *args]) == 2
        _assert_one_error_line(capsys.readouterr().err, bad_value)
        assert not root.exists()


class TestCompareCommand:
    def test_compare_variants(self, config_path, tmp_path, capsys):
        code = main(
            ["--output-root", str(tmp_path), "compare", config_path, "--variants", "sinh,exp"]
        )
        assert code == 0
        assert (tmp_path / "variant_comparison.csv").exists()
        out = capsys.readouterr().out
        assert "sinh: ok" in out and "exp: ok" in out

    @pytest.mark.parametrize("bad_value", ["tanh", "scaled_sinh"])
    def test_bad_variant_exit_2_before_any_run(self, bad_value, config_path, tmp_path, capsys):
        root = tmp_path / "out"
        args = ["compare", config_path, "--variants", f"sinh,{bad_value}"]
        assert main(["--output-root", str(root), *args]) == 2
        _assert_one_error_line(capsys.readouterr().err, bad_value)
        assert not root.exists()
