"""Command-line interface behavior and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


# config edits giving values no run can use, each with a word its violation
# names: each is one violation, not a traceback from inside the run
UNUSABLE_CASES = {
    "zero-steps": (
        "horizon",
        {"tau = 0.01": "tau = 1e10", "horizon = 0.05": "horizon = 0.1\nreg_eps = 1"},
    ),
    "tau-inf": ("tau", {"tau = 0.01": "tau = inf"}),
    "reg_eps-inf": ("reg_eps", {"tau = 0.01": "tau = 0.01\nreg_eps = inf"}),
    "horizon-inf": ("horizon", {"horizon = 0.05": "horizon = inf"}),
    # the retired cap key is read only at the fixed bound, 700
    "cap-nan": ("sinh_arg_cap", {"tau = 0.01": "tau = 0.01\nsinh_arg_cap = nan"}),
    "cap-over-overflow": ("sinh_arg_cap", {"tau = 0.01": "tau = 0.01\nsinh_arg_cap = 1000"}),
    "extent-inf": ("extent", {"nodes = 65": "nodes = 65\nextent = inf"}),
    "extent-nan": ("extent", {"nodes = 65": "nodes = 65\nextent = nan"}),
    "extent-tiny": ("spacing", {"nodes = 65": "nodes = 33\nextent = 1e-300"}),
    "K-tiny": ("linear", {"[output]": "[variant]\nkind = scaled_sinh\nK = 1e-200\n\n[output]"}),
    "amplitude-nan": ("amplitude", {"amplitude = 0.1": "amplitude = nan"}),
    "c-inf": ("'c'", {"profile = cosine\namplitude = 0.1": "profile = constant\nc = inf"}),
    "random-amplitude-inf": (
        "amplitude",
        {"profile = cosine\namplitude = 0.1": "profile = random_smooth\namplitude = inf\nseed = 1"},
    ),
    "seed-negative": ("seed", {"profile = cosine": "profile = random_smooth\nseed = -1"}),
}


def _edited(edits):
    """CONFIG with each old text replaced by its new one, in order."""
    text = CONFIG
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    return text


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
        cfg.write_text(_edited({"amplitude = 0.1": "amplitude = 3\nmode = 8"}))
        code = main(["--output-root", str(tmp_path), "run", str(cfg)])
        assert code == 1
        assert "failed" in capsys.readouterr().err

    @pytest.mark.parametrize("case", UNUSABLE_CASES)
    def test_unusable_value_exit_2_before_any_run(self, case, tmp_path, capsys):
        named, edits = UNUSABLE_CASES[case]
        cfg, root = tmp_path / "bad.cfg", tmp_path / "out"
        cfg.write_text(_edited(edits))
        assert main(["--output-root", str(root), "run", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "invalid configuration:" and len(err) == 2
        assert named in err[1]
        assert not root.exists()

    @pytest.mark.parametrize(
        "second, code, artifacts",
        [
            ({"amplitude = 0.1": "amplitude = 30"}, 1, ["config.txt"]),
            (
                {"amplitude = 0.1": "amplitude = 0.2", "snapshot_stride = 1": "snapshot_stride = 0"},
                0,
                ["config.txt", "report_terms.csv", "reports.csv", "trajectory.csv"],
            ),
        ],
        ids=["failed-over-clean", "no-snapshots-over-snapshots"],
    )
    def test_rerun_lists_only_its_own_artifacts(self, second, code, artifacts, tmp_path, capsys):
        """A run into the directory of an earlier one removes what that run
        wrote under the names a run writes: its manifest lists only its own
        files, and verify cannot pass on the earlier run's snapshots."""
        cfg, run_dir = tmp_path / "exp.cfg", tmp_path / "demo"
        small = {"nodes = 65": "nodes = 17", "horizon = 0.05": "horizon = 0.04"}
        cfg.write_text(_edited(small))
        assert main(["--output-root", str(tmp_path), "run", str(cfg)]) == 0
        assert len(list((run_dir / "fields").iterdir())) == 10
        cfg.write_text(_edited({**small, **second}))
        assert main(["--output-root", str(tmp_path), "run", str(cfg)]) == code
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == artifacts
        capsys.readouterr()
        assert main(["verify", str(run_dir)]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command",
        [["run"], ["sweep", "--values", "0.01"], ["compare"]],
        ids=["run", "sweep", "compare"],
    )
    def test_config_not_utf8_exit_2_before_any_run(self, command, tmp_path, capsys):
        cfg, root = tmp_path / "bad.cfg", tmp_path / "out"
        cfg.write_bytes(b"\xff" + CONFIG.encode())
        assert main(["--output-root", str(root), command[0], str(cfg), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err == "invalid configuration:\nnot UTF-8 text: byte 0xff at offset 0\n"
        assert not root.exists()

    def test_absolute_directory_under_root_exit_2(self, tmp_path, capsys):
        """A root cannot be prepended to an absolute directory: refused, not
        dropped, and nothing is written."""
        absolute = tmp_path / "abs"
        cfg, root = tmp_path / "abs.cfg", tmp_path / "out"
        cfg.write_text(_edited({"directory = demo": f"directory = {absolute}"}))
        assert main(["--output-root", str(root), "run", str(cfg)]) == 2
        _assert_one_error_line(capsys.readouterr().err, str(absolute))
        assert not absolute.exists() and not root.exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["--output-root", str(tmp_path / "out"), "run", str(tmp_path / "nosuch.cfg")])
        assert code == 2
        _assert_one_error_line(capsys.readouterr().err, "nosuch.cfg")
        assert not (tmp_path / "out").exists()


def _assert_one_error_line(err, bad_value):
    """A rejected argument prints one "error: ..." line naming it, no traceback."""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert bad_value in err


_GRID = "dim = 1\nnodes = 65"
_AMPLITUDE = "amplitude = 0.1"
_SCHEME = "tau = 0.01\nhorizon = 0.05"
_P3 = {"[output]": "[variant]\nkind = p_exponent\np = 3\n\n[output]"}

# config edits giving run kinds whose reports differ: all three, a subset in
# the configured order, the p-variant dissipation law, and none for exp;
# then runs whose step solves differ: a non-square grid and box, whose DCT-I
# transforms differ per axis; 2-D 65^2 at amplitude 0.5, whose step 1 ends
# near the round-off floor of its inexact Newton directions; PCG condition
# bounds of about 8400 (3 x 3 box, tau = 1e-4) and 1e5 (tau = 1e-7, where
# B^-1 needs its constant mode in closed form); the one tau' that is not tau,
# so that the multipliers and closed-form means holding both see distinct
# values; 3-D at amplitude 0.5; scaled_sinh; and linear, audited as sinh is
VERIFY_CASES = {
    "default": {},
    "subset": {"snapshot_stride = 1": "snapshot_stride = 1\nreports = prop33,prop31"},
    "p3": _P3,
    "exp": {"[output]": "[variant]\nkind = exp\n\n[output]"},
    "3d": {_GRID: "dim = 3\nnodes = 9,9,9"},
    "p3-1d-33": {"nodes = 65": "nodes = 33", **_P3},
    "2d-9": {
        _GRID: "dim = 2\nnodes = 9,9",
        _AMPLITUDE: "amplitude = 0.5",
        _SCHEME: "tau = 0.001\nhorizon = 0.005",
    },
    "2d-17x9-box-2x1": {
        _GRID: "dim = 2\nnodes = 17,9\nextent = 2,1",
        _AMPLITUDE: "amplitude = 0.5",
        _SCHEME: "tau = 0.001\nhorizon = 0.005",
    },
    "2d-65": {
        _GRID: "dim = 2\nnodes = 65,65",
        _AMPLITUDE: "amplitude = 0.5",
        _SCHEME: "tau = 0.001\nhorizon = 0.003",
    },
    "2d-17-box-3x3-tau-1e-4": {
        _GRID: "dim = 2\nnodes = 17,17\nextent = 3,3",
        _SCHEME: "tau = 0.0001\nhorizon = 0.0005",
    },
    "1d-65-tau-1e-7": {_AMPLITUDE: "amplitude = 0.01", _SCHEME: "tau = 1e-7\nhorizon = 3e-7"},
    "2d-17-reg_eps-1e-4": {
        _GRID: "dim = 2\nnodes = 17,17",
        _AMPLITUDE: "amplitude = 0.5",
        _SCHEME: "tau = 0.004\nhorizon = 0.02\nreg_eps = 1e-4",
    },
    "3d-9-amplitude-0.5": {
        _GRID: "dim = 3\nnodes = 9,9,9",
        _AMPLITUDE: "amplitude = 0.5",
        _SCHEME: "tau = 0.001\nhorizon = 0.003",
    },
    "scaled_sinh-K2-1d-33": {
        "nodes = 65": "nodes = 33",
        _AMPLITUDE: "amplitude = 0.5",
        _SCHEME: "tau = 0.001\nhorizon = 0.01",
        "[output]": "[variant]\nkind = scaled_sinh\nK = 2\n\n[output]",
    },
    "linear-2d-9": {
        _GRID: "dim = 2\nnodes = 9,9",
        _AMPLITUDE: "amplitude = 0.5",
        _SCHEME: "tau = 0.001\nhorizon = 0.005",
        "[output]": "[variant]\nkind = linear\n\n[output]",
    },
}
# the runs whose Newton directions factor a Schur matrix instead of using PCG
LU_DIRECTION_CASES = {"p3", "exp", "p3-1d-33"}


class TestVerifyCommand:
    @pytest.mark.parametrize("case", VERIFY_CASES)
    def test_verify_round_trip(self, case, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(_edited(VERIFY_CASES[case]))
        assert main(["--output-root", str(tmp_path), "run", str(path)]) == 0
        run_dir = tmp_path / "demo"
        assert (run_dir / "trajectory.csv").read_text().startswith("k,t,newton_iters,")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["newton_iterations"] > 0
        assert (manifest["cg_iterations"] > 0) == (case not in LU_DIRECTION_CASES)
        capsys.readouterr()
        code = main(["verify", str(run_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("name,lhs,rhs,margin,pass")
        assert out == (run_dir / "reports.csv").read_text()
        if case in ("default", "3d", "linear-2d-9"):
            assert out.count("true") == 3

    def test_verify_rejects_step_off_the_scheme(self, tmp_path, capsys):
        # 1e-6 cos(3 pi x) added to u_20 of a 50-step run leaves every report
        # passing but puts step 20's residual at 1e-3, far above picard_tol
        path = tmp_path / "exp.cfg"
        path.write_text(_edited({_AMPLITUDE: "amplitude = 0.5", "tau = 0.01": "tau = 0.001"}))
        assert main(["--output-root", str(tmp_path), "run", str(path)]) == 0
        run_dir = tmp_path / "demo"
        snapshot = run_dir / "fields" / "u_000020.f64"
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
        [("w_000000.f64", 1 + 1e-15, 0), ("w_000002.f64", 1e6, 2)],
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
        snapshot = tmp_path / "demo" / "fields" / "w_000002.f64"
        w = load_field(snapshot, Grid(1, (1.0,), (65,)))
        save_field(Field(w.grid, w.values * 1e6), snapshot)
        with pytest.raises(OverflowCapError) as exc:
            verify_run(tmp_path / "demo")
        assert exc.value.step_index == 2
        assert str(exc.value).startswith("step 2: |argument| = ")

    def test_verify_reads_snapshots_on_the_run_grid(self, tmp_path, capsys):
        # headers edited to extent 1.05 x 1 on a 9 x 9 run, first w_2's alone,
        # then also u_1's and w_1's: the values alone would still pass every
        # check, read on the header's grid; verify names the first it reads
        path = tmp_path / "exp.cfg"
        path.write_text(_edited(VERIFY_CASES["2d-9"]))
        assert main(["--output-root", str(tmp_path), "run", str(path)]) == 0
        for names in (("w_000002.f64",), ("u_000001.f64", "w_000001.f64")):
            for name in names:
                snapshot = tmp_path / "demo" / "fields" / name
                header, values = snapshot.read_bytes().split(b"\n", 1)
                assert header == b"# grid: dim=2 nodes=9,9 extent=1,1 values=float64le"
                snapshot.write_bytes(
                    b"# grid: dim=2 nodes=9,9 extent=1.05,1 values=float64le\n" + values)
            capsys.readouterr()
            assert main(["verify", str(tmp_path / "demo")]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and names[0] in captured.err
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("missing", ["fields/w_000001.f64", "config.txt"])
    def test_verify_names_missing_file(self, missing, config_path, tmp_path, capsys):
        main(["--output-root", str(tmp_path), "run", config_path])
        (tmp_path / "demo" / missing).unlink()
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 1
        assert missing.split("/")[-1] in capsys.readouterr().err

    def test_verify_config_not_utf8(self, config_path, tmp_path, capsys):
        # refused as any config.txt that fails validation, not a traceback
        assert main(["--output-root", str(tmp_path), "run", config_path]) == 0
        config_txt = tmp_path / "demo" / "config.txt"
        config_txt.write_bytes(config_txt.read_bytes().replace(b"demo", b"d\xe9mo"))
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:\nnot UTF-8 text: byte 0xe9 at offset ")

    def test_verify_legacy_normalized_key(self, tmp_path, capsys):
        # a scaled_sinh config.txt written while f = sinh(K s)/K was selected
        # by "normalized = true", and while every config.txt carried the
        # overflow bound as "sinh_arg_cap = 700", still verifies
        path = tmp_path / "scaled.cfg"
        path.write_text(_edited({"[output]": "[variant]\nkind = scaled_sinh\nK = 2\n\n[output]"}))
        assert main(["--output-root", str(tmp_path), "run", str(path)]) == 0
        config_txt = tmp_path / "demo" / "config.txt"
        text = config_txt.read_text()

        def legacy(cap):
            edited = text.replace("K = 2\n", "K = 2\nnormalized = true\n").replace(
                "picard_tol = 1e-10\n", f"picard_tol = 1e-10\nsinh_arg_cap = {cap}\n")
            assert edited.count("\n") == text.count("\n") + 2
            return edited

        config_txt.write_text(legacy(700))
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 0
        out = capsys.readouterr().out
        assert out.count("true") == 3
        assert out == (tmp_path / "demo" / "reports.csv").read_text()
        # the bound is fixed: any other cap is one violation naming it
        for cap in ("50", "nan"):
            config_txt.write_text(legacy(cap))
            assert main(["verify", str(tmp_path / "demo")]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == ["invalid configuration:",
                           f"[scheme] sinh_arg_cap = {cap} is not supported; the overflow "
                           "bound is fixed: 700 on |K w| for the sinh variants and on "
                           "max w for exp, sqrt(max double) on |w| for linear"]

    def test_verify_rejects_corrupt_snapshot(self, config_path, tmp_path, capsys):
        main(["--output-root", str(tmp_path), "run", config_path])
        (tmp_path / "demo" / "fields" / "u_000002.f64").write_bytes(
            b"# grid: dim=1 nodes=65 extent=1 values=float64le\nnot a number\n"
        )
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 1
        assert "u_000002.f64" in capsys.readouterr().err

    def test_verify_refuses_text_snapshots(self, config_path, tmp_path, capsys):
        """A run directory as versions before the float64 store wrote it,
        each snapshot one header line and one 17-digit value per line, is
        refused with one error line naming the first text snapshot."""
        main(["--output-root", str(tmp_path), "run", config_path])
        grid = Grid(1, (1.0,), (65,))
        fields = tmp_path / "demo" / "fields"
        for path in fields.glob("*.f64"):
            values = load_field(path, grid).values
            path.with_suffix(".csv").write_text(
                "# grid: dim=1 nodes=65 extent=1\n" + "".join(f"{v:.17g}\n" for v in values))
            path.unlink()
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {fields / 'u_000000.csv'} is a text snapshot of an "
                                "earlier crystalflow; this version does not read text snapshots\n")

    def test_verify_ignores_stray_files(self, config_path, tmp_path, capsys):
        main(["--output-root", str(tmp_path), "run", config_path])
        fields = tmp_path / "demo" / "fields"
        (fields / "u_000001 copy.f64").write_bytes((fields / "u_000001.f64").read_bytes())
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 0
        assert capsys.readouterr().out == (tmp_path / "demo" / "reports.csv").read_text()

    def test_verify_names_first_missing_step(self, config_path, tmp_path, capsys):
        path = tmp_path / "sparse.cfg"
        path.write_text(_edited({"snapshot_stride = 1": "snapshot_stride = 2"}))
        main(["--output-root", str(tmp_path), "run", str(path)])
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 1
        err = capsys.readouterr().err
        assert "u_000001.f64" in err and "snapshot_stride = 1" in err

    def test_verify_requires_snapshots(self, config_path, tmp_path, capsys):
        path = tmp_path / "nosnap.cfg"
        path.write_text(_edited({"snapshot_stride = 1": "snapshot_stride = 0"}))
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
            # both name the run directory reg_eps_0.001
            (["--param", "reg_eps", "--values", "1e-3", "1.0000001e-3", "5e-4"], "1.0000001e-3"),
            (["--values", "0.01", "0.01", "0.005"], "0.01"),
        ],
        ids=["param", "not-dividing", "not-a-number", "not-finite", "same-directory", "repeated"],
    )
    def test_bad_argument_exit_2_before_any_run(
        self, args, bad_value, config_path, tmp_path, capsys
    ):
        root = tmp_path / "out"
        assert main(["--output-root", str(root), "sweep", config_path, *args]) == 2
        _assert_one_error_line(capsys.readouterr().err, bad_value)
        assert not root.exists()


class TestCompareCommand:
    def test_compare_variants(self, tmp_path, capsys):
        """sinh, exp and linear side by side on 2-D 9^2 reach both Newton
        direction solves (PCG for sinh and linear, the factored Schur matrix
        for exp); verify re-checks the exp and linear runs and prints the
        reports.csv each wrote: the header alone for exp, the three energy
        reports for linear."""
        path = tmp_path / "exp.cfg"
        path.write_text(_edited(VERIFY_CASES["2d-9"]))
        args = ["compare", str(path), "--variants", "sinh,exp,linear"]
        assert main(["--output-root", str(tmp_path), *args]) == 0
        assert (tmp_path / "variant_comparison.csv").exists()
        out = capsys.readouterr().out
        assert "sinh: ok" in out and "exp: ok" in out and "linear: ok" in out
        for kind in ("sinh", "exp", "linear"):
            manifest = json.loads((tmp_path / f"variant_{kind}" / "manifest.json").read_text())
            assert manifest["status"] == "OK"
        for kind, passing in (("exp", 0), ("linear", 3)):
            run_dir = tmp_path / f"variant_{kind}"
            assert main(["verify", str(run_dir)]) == 0
            out = capsys.readouterr().out
            assert out == (run_dir / "reports.csv").read_text()
            assert out.count("true") == passing

    @pytest.mark.parametrize(
        "variants, named",
        [
            ("sinh,tanh", "tanh"),
            ("sinh,scaled_sinh", "scaled_sinh"),
            # both would run in variant_sinh
            ("sinh,sinh", "variant_sinh"),
            (",", "no variant"),
        ],
        ids=["tanh", "scaled_sinh", "repeated", "none"],
    )
    def test_bad_variant_exit_2_before_any_run(
        self, variants, named, config_path, tmp_path, capsys
    ):
        root = tmp_path / "out"
        args = ["compare", config_path, "--variants", variants]
        assert main(["--output-root", str(root), *args]) == 2
        _assert_one_error_line(capsys.readouterr().err, named)
        assert not root.exists()


@pytest.mark.parametrize(
    "args, root, blocked",
    [
        (["run"], ".", "demo"),
        (["sweep", "--values", "0.01", "0.005"], ".", "tau_0.005"),
        (["compare"], "r", "r"),
        (["compare", "--variants", "sinh,exp"], "r", "r/variant_exp"),
    ],
    ids=["run", "sweep-value", "compare-root", "compare-variant"],
)
def test_output_directory_that_cannot_be_made_exit_2(
    args, root, blocked, config_path, tmp_path, capsys
):
    """A plain file where an output directory should go is refused with one
    "error: ..." line naming it, before any run starts."""
    out = tmp_path / "out"
    out.mkdir()
    path = out / blocked
    path.parent.mkdir(exist_ok=True)
    path.write_text("not a directory\n")
    command, *options = args
    assert main(["--output-root", str(out / root), command, config_path, *options]) == 2
    _assert_one_error_line(capsys.readouterr().err, str(path))
    assert [p for p in out.rglob("*") if p.is_file()] == [path]
    assert path.read_text() == "not a directory\n"


@pytest.mark.parametrize("empty", ["option", "env"])
@pytest.mark.parametrize(
    "args", [["sweep", "--values", "0.01", "0.005"], ["compare"]], ids=["sweep", "compare"]
)
def test_empty_output_root_is_unset(args, empty, config_path, tmp_path, monkeypatch, capsys):
    """An empty --output-root or CRYSTALFLOW_OUTPUT_ROOT counts as unset:
    the batch goes to the configured directory, not the working directory."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    if empty == "env":
        monkeypatch.setenv(OUTPUT_ROOT_ENV, "")
        option = []
    else:
        monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
        option = ["--output-root", ""]
    command, *options = args
    assert main([*option, command, config_path, *options]) == 0
    assert [p.name for p in work.iterdir()] == ["demo"]
    summary = "sweep_summary.csv" if command == "sweep" else "variant_comparison.csv"
    assert (work / "demo" / summary).is_file()


def _module_cli(*args):
    """`python -m crystalflow.cli` in a fresh interpreter on this checkout's src."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop(OUTPUT_ROOT_ENV, None)
    cmd = [sys.executable, "-m", "crystalflow.cli", *args]
    return subprocess.run(cmd, capture_output=True, env=env, timeout=120)


class TestModuleEntryPoint:
    def test_run_verify_and_refusal(self, tmp_path):
        """The module entry point exits with main's code: run then verify, on
        a PCG and a Schur-factor run, prints reports.csv byte for byte in a
        process that did not make it, and a config no run can use exits 2
        with its one violation, no traceback and no run directory."""
        path = tmp_path / "exp.cfg"
        for case in ("2d-9", "p3-1d-33"):
            root = tmp_path / case
            path.write_text(_edited(VERIFY_CASES[case]))
            run = _module_cli("--output-root", str(root), "run", str(path))
            assert run.returncode == 0, run.stderr
            verify = _module_cli("verify", str(root / "demo"))
            assert verify.returncode == 0, verify.stderr
            assert verify.stdout == (root / "demo" / "reports.csv").read_bytes()

        named, edits = UNUSABLE_CASES["tau-inf"]
        path.write_text(_edited(edits))
        refused = _module_cli("--output-root", str(tmp_path / "out"), "run", str(path))
        assert refused.returncode == 2
        err = refused.stderr.decode()
        assert err.startswith("invalid configuration:\n") and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
