"""Command-line interface behavior and exit codes."""

import os

import pytest

from crystalflow.cli import OUTPUT_ROOT_ENV, main

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
        if case == "default":
            assert out.count("true") == 3

    @pytest.mark.parametrize("missing", ["fields/w_000001.csv", "config.txt"])
    def test_verify_names_missing_file(self, missing, config_path, tmp_path, capsys):
        main(["--output-root", str(tmp_path), "run", config_path])
        (tmp_path / "demo" / missing).unlink()
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "demo")]) == 1
        assert missing.split("/")[-1] in capsys.readouterr().err

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
        ],
        ids=["param", "not-dividing", "not-a-number"],
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
