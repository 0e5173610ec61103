"""Configuration grammar: parsing, validation, round-trip, profiles."""

import numpy as np
import pytest

from crystalflow.config import (
    ExperimentConfig,
    InitialSpec,
    OutputSpec,
    _random_smooth,
    build_initial_field,
    config_to_text,
    parse_config,
)
from crystalflow.exceptions import ConfigError, CrystalflowError, SnapshotFormatError
from crystalflow.grid import Field, Grid, save_field

MINIMAL = """
[grid]
dim = 1
nodes = 65

[initial]
profile = cosine
amplitude = 0.1
"""


class TestParsing:
    def test_minimal_config_echoes_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid == Grid(1, (1.0,), (65,))
        assert cfg.initial.profile == "cosine"
        assert cfg.initial.mode == 1
        assert cfg.scheme.tau == 0.01
        assert cfg.scheme.horizon == pytest.approx(0.1)
        assert cfg.scheme.reg_eps is None
        assert cfg.scheme.picard_tol == 1e-10
        assert cfg.variant.name == "sinh"
        assert cfg.output.reports == ("prop31", "prop32", "prop33")

    def test_accepts_bytes(self):
        cfg = parse_config(MINIMAL.encode("utf-8"))
        assert isinstance(cfg, ExperimentConfig)

    def test_bytes_not_utf8_is_one_violation(self):
        data = MINIMAL.encode("utf-8")
        with pytest.raises(ConfigError) as exc:
            parse_config(data[:10] + b"\xff" + data[10:])
        assert exc.value.violations == ["not UTF-8 text: byte 0xff at offset 10"]

    def test_byte_order_mark_dropped(self):
        """A config saved with a UTF-8 byte-order mark parses as the same
        text without it; a byte that is not UTF-8 is still named by its
        offset in the file, the mark's three bytes included."""
        data = MINIMAL.encode("utf-8")
        assert parse_config(b"\xef\xbb\xbf" + data) == parse_config(data)
        assert parse_config("\ufeff" + MINIMAL) == parse_config(MINIMAL)
        with pytest.raises(ConfigError) as exc:
            parse_config(b"\xef\xbb\xbf" + data[:10] + b"\xff" + data[10:])
        assert exc.value.violations == ["not UTF-8 text: byte 0xff at offset 13"]

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# leading comment\n" + MINIMAL.replace(
            "amplitude = 0.1", "amplitude = 0.1  # inline"
        ))
        assert cfg.initial.amplitude == 0.1

    def test_collects_all_violations_with_line_numbers(self):
        text = "\n".join(
            [
                "[grid]",
                "dim = 7",
                "nodes = abc",
                "bogus = 1",
                "[initial]",
                "profile = cosine",
                "amplitude = much",
                "[scheme]",
                "tau = -3",
            ]
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        msgs = exc.value.violations
        assert any("line 3" in m and "nodes" in m for m in msgs)
        assert any("line 4" in m and "bogus" in m for m in msgs)
        assert any("line 7" in m and "amplitude" in m for m in msgs)
        assert any("tau" in m for m in msgs)
        assert len(msgs) >= 4

    def test_p_exponent_requires_dim_1(self):
        text = MINIMAL.replace("dim = 1", "dim = 2").replace(
            "nodes = 65", "nodes = 9,9"
        ) + "\n[variant]\nkind = p_exponent\np = 3\n"
        with pytest.raises(ConfigError, match="dim = 1"):
            parse_config(text)

    def test_grid_invariant_cited(self):
        with pytest.raises(ConfigError, match="3 nodes"):
            parse_config(MINIMAL.replace("nodes = 65", "nodes = 2"))

    def test_random_smooth_requires_seed(self):
        text = MINIMAL.replace(
            "profile = cosine\namplitude = 0.1",
            "profile = random_smooth\namplitude = 0.3",
        )
        with pytest.raises(ConfigError, match="seed"):
            parse_config(text)

    def test_unknown_section_reported(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[extras]\nx = 1\n")

    def test_unknown_report_name(self):
        with pytest.raises(ConfigError, match="unknown report"):
            parse_config(MINIMAL + "\n[output]\nreports = prop99\n")

    def test_output_problems_listed_together(self):
        """[output] reports every problem at once, parsed or built through the API."""
        expected = [
            "[output] unknown report name(s) bogus; choose from prop31, prop32, prop33",
            "[output] snapshot_stride must be >= 0",
        ]
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[output]\nsnapshot_stride = -1\nreports = bogus\n")
        assert exc.value.violations == expected
        with pytest.raises(ConfigError) as exc:
            OutputSpec(directory="runs#3", snapshot_stride=-1, reports=("bogus",))
        assert exc.value.violations == expected + [
            "[output] directory 'runs#3' must not contain '#' or a line break, "
            "or begin or end with whitespace"
        ]

    def test_missing_sections(self):
        with pytest.raises(ConfigError, match="missing required section"):
            parse_config("[grid]\ndim = 1\nnodes = 9\n")

    @pytest.mark.parametrize(
        "key, value",
        [("newton_fallback", "true"), ("picard_max_iter", "200"), ("picard_damping", "1.0")],
    )
    def test_removed_solver_keys_rejected(self, key, value):
        # every step is a Newton solve, so the fixed-point map's knobs are gone
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"\n[scheme]\ntau = 0.01\n{key} = {value}\n")
        assert exc.value.violations == [f"line 12: unknown key {key!r} in [scheme]"]

    def test_legacy_normalized_true_is_scaled_sinh(self):
        legacy = parse_config(MINIMAL + "\n[variant]\nkind = scaled_sinh\nK = 2\nnormalized = true\n")
        assert legacy == parse_config(MINIMAL + "\n[variant]\nkind = scaled_sinh\nK = 2\n")
        assert "normalized" not in config_to_text(legacy)

    @pytest.mark.parametrize("value", ["false", "no", "0"])
    def test_legacy_normalized_false_rejected(self, value):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"\n[variant]\nkind = scaled_sinh\nK = 2\nnormalized = {value}\n")
        assert len(exc.value.violations) == 1
        assert exc.value.violations[0].startswith("[variant] normalized")


# config_to_text(parse_config(MINIMAL)), byte for byte; the cases below
# each change one section of it
MINIMAL_TEXT = """[grid]
dim = 1
nodes = 65
extent = 1
[initial]
profile = cosine
amplitude = 0.10000000000000001
mode = 1
[scheme]
tau = 0.01
horizon = 0.10000000000000001
picard_tol = 1e-10
[variant]
kind = sinh
[output]
directory = out
snapshot_stride = 0
reports = prop31,prop32,prop33
"""

# (edit of MINIMAL, the lines that replace its section in MINIMAL_TEXT)
TEXT_CASES = {
    "constant": ("profile = constant\nc = 2.5", "profile = constant\nc = 2.5\n"),
    "cosine": (
        "profile = cosine\namplitude = 0.2\nmode = 3",
        "profile = cosine\namplitude = 0.20000000000000001\nmode = 3\n",
    ),
    "gaussian_bump": (
        "profile = gaussian_bump\namplitude = 0.3",
        "profile = gaussian_bump\namplitude = 0.29999999999999999\nwidth = 0.5\n",
    ),
    "random_smooth": (
        "profile = random_smooth\namplitude = 0.4\nseed = 9",
        "profile = random_smooth\namplitude = 0.40000000000000002\nseed = 9\n",
    ),
    "snapshot": (
        "profile = snapshot\npath = /tmp/u0.f64",
        "profile = snapshot\npath = /tmp/u0.f64\n",
    ),
    "sinh": ("[variant]\nkind = sinh\n", "kind = sinh\n"),
    "exp": ("[variant]\nkind = exp\n", "kind = exp\n"),
    "scaled_sinh": ("[variant]\nkind = scaled_sinh\nK = 0.25\n", "kind = scaled_sinh\nK = 0.25\n"),
    "legacy_normalized": (
        "[variant]\nkind = scaled_sinh\nK = 2\nnormalized = true\n",
        "kind = scaled_sinh\nK = 2\n",
    ),
    "p_exponent": ("[variant]\nkind = p_exponent\np = 3\n", "kind = p_exponent\np = 3\n"),
    "linear": ("[variant]\nkind = linear\n", "kind = linear\n"),
    "scheme": (
        "[scheme]\ntau = 0.005\nhorizon = 0.02\nreg_eps = 0.0001\npicard_tol = 1e-9\n",
        "tau = 0.0050000000000000001\nhorizon = 0.02\nreg_eps = 0.0001\n"
        "picard_tol = 1.0000000000000001e-09\n",
    ),
    # every config.txt written before the overflow bound was fixed carries it
    "legacy_cap": (
        "[scheme]\ntau = 0.01\nhorizon = 0.1\nsinh_arg_cap = 700\n",
        "tau = 0.01\nhorizon = 0.10000000000000001\npicard_tol = 1e-10\n",
    ),
    "output": (
        "[output]\ndirectory = elsewhere\nsnapshot_stride = 2\nreports = prop33, prop31\n",
        "directory = elsewhere\nsnapshot_stride = 2\nreports = prop33,prop31\n",
    ),
}


class TestCanonicalText:
    @pytest.mark.parametrize("case", TEXT_CASES)
    def test_config_text_bytes(self, case):
        edit, section_text = TEXT_CASES[case]
        if edit.startswith("["):
            text = MINIMAL + "\n" + edit
            section = edit[1:edit.index("]")]
        else:
            text = MINIMAL.replace("profile = cosine\namplitude = 0.1", edit)
            section = "initial"
        head, rest = MINIMAL_TEXT.split(f"[{section}]\n")
        tail = rest[rest.index("["):] if "[" in rest else ""
        assert config_to_text(parse_config(text)) == f"{head}[{section}]\n{section_text}{tail}"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "extra",
        [
            "",
            "\n[scheme]\ntau = 0.005\nhorizon = 0.02\nreg_eps = 0.0001\n",
            "\n[scheme]\ntau = 0.005\nhorizon = 0.02\nsinh_arg_cap = 7e2\n",
            "\n[variant]\nkind = scaled_sinh\nK = 0.25\n",
            "\n[variant]\nkind = scaled_sinh\nK = 0.25\nnormalized = true\n",
            "\n[variant]\nkind = p_exponent\np = 3\n",
            "\n[output]\ndirectory = elsewhere\nsnapshot_stride = 2\nreports = prop31\n",
        ],
    )
    def test_parse_print_parse_fixed_point(self, extra):
        cfg = parse_config(MINIMAL + extra)
        assert parse_config(config_to_text(cfg)) == cfg

    def test_strings_with_blanks_and_equals_signs_read_back(self):
        cfg = parse_config(MINIMAL)
        output = OutputSpec(directory="my runs/a=b")
        cfg = ExperimentConfig(cfg.grid, InitialSpec("snapshot", path="in put/u0 =.f64"),
                               cfg.scheme, cfg.variant, output)
        assert parse_config(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize(
        "value",
        ["runs#3", " padded ", "runs\n3", "runs\r", "runs\u2028x", "\tlead", "trail "],
        ids=["hash", "padded", "newline", "carriage-return", "line-separator", "tab", "trailing"],
    )
    def test_unwritable_strings_refused(self, value):
        """A directory or snapshot path that its `key = value` line could not
        carry back (a '#' starts a comment, a line break ends the line, the
        reader strips the whitespace around a value) is refused as one
        violation naming the key."""
        reason = "must not contain '#' or a line break, or begin or end with whitespace"
        with pytest.raises(ConfigError) as exc:
            OutputSpec(directory=value)
        assert exc.value.violations == [f"[output] directory {value!r} {reason}"]
        with pytest.raises(ConfigError) as exc:
            InitialSpec("snapshot", path=value)
        assert exc.value.violations == [f"[initial] path {value!r} {reason}"]


class TestProfiles:
    def test_unknown_profile(self):
        # a spec built through the API is checked as a parsed one is
        with pytest.raises(ValueError, match="unknown profile 'nosuch'"):
            InitialSpec("nosuch")
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("profile = cosine", "profile = nosuch"))
        assert exc.value.violations == [
            "[initial] unknown profile 'nosuch'; choose from constant, cosine, "
            "gaussian_bump, random_smooth, snapshot",
            "line 8: unknown key 'amplitude' in [initial]",
        ]

    def test_unseeded_random_smooth_refused(self):
        """Through the API as in a config, random_smooth needs a seed: an
        unseeded field would not be reproducible."""
        with pytest.raises(ConfigError) as exc:
            InitialSpec("random_smooth", amplitude=0.4)
        assert exc.value.violations == ["[initial] missing required key 'seed'"]
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("profile = cosine", "profile = random_smooth"))
        assert exc.value.violations == ["[initial] missing required key 'seed'"]

    def test_snapshot_without_path_is_package_error(self):
        with pytest.raises(CrystalflowError, match="missing required key 'path'"):
            InitialSpec("snapshot")

    def test_constant(self):
        cfg = parse_config(
            MINIMAL.replace("profile = cosine\namplitude = 0.1", "profile = constant\nc = 2.5")
        )
        f = build_initial_field(cfg)
        assert np.all(f.values == 2.5)

    def test_snapshot_profile(self, tmp_path):
        grid = Grid(1, (1.0,), (65,))
        stored = Field(grid, np.linspace(0, 1, 65))
        path = tmp_path / "u0.f64"
        save_field(stored, path)
        cfg = parse_config(
            MINIMAL.replace(
                "profile = cosine\namplitude = 0.1", f"profile = snapshot\npath = {path}"
            )
        )
        loaded = build_initial_field(cfg)
        assert np.array_equal(loaded.values, stored.values)

    def test_snapshot_grid_mismatch(self, tmp_path):
        grid = Grid(1, (1.0,), (33,))
        path = tmp_path / "u0.f64"
        save_field(Field.constant(grid, 1.0), path)
        cfg = parse_config(
            MINIMAL.replace(
                "profile = cosine\namplitude = 0.1", f"profile = snapshot\npath = {path}"
            )
        )
        with pytest.raises(SnapshotFormatError, match="does not match"):
            build_initial_field(cfg)

    def test_snapshot_of_another_extent_same_nodes(self, tmp_path):
        # 65 nodes on a box of extent 2: as many values as the configured
        # grid takes, but the header names another grid
        path = tmp_path / "u0.f64"
        save_field(Field.constant(Grid(1, (2.0,), (65,)), 1.0), path)
        cfg = parse_config(
            MINIMAL.replace(
                "profile = cosine\namplitude = 0.1", f"profile = snapshot\npath = {path}"
            )
        )
        with pytest.raises(SnapshotFormatError, match="u0.f64") as exc:
            build_initial_field(cfg)
        assert "extent=2 values=float64le'" in str(exc.value)
        assert "extent=1 values=float64le'" in str(exc.value)

    @pytest.mark.parametrize(
        "profile_block",
        [
            "profile = cosine\namplitude = 0.2\nmode = 2",
            "profile = gaussian_bump\namplitude = 0.3\nwidth = 0.2",
            "profile = random_smooth\namplitude = 0.4\nseed = 9",
        ],
    )
    def test_profiles_have_zero_boundary_slope(self, profile_block):
        """All built-ins must be compatible with the zero-flux boundary: the
        one-sided slope at each wall vanishes at second order in h."""
        slopes = []
        for n in (129, 257):
            text = MINIMAL.replace("nodes = 65", f"nodes = {n}").replace(
                "profile = cosine\namplitude = 0.1", profile_block
            )
            f = build_initial_field(parse_config(text))
            h = f.grid.spacing[0]
            slopes.append(
                max(
                    abs(f.values[1] - f.values[0]) / h,
                    abs(f.values[-1] - f.values[-2]) / h,
                )
            )
        # one-sided difference of a zero-slope endpoint decays like h
        assert slopes[1] < slopes[0] / 1.8 or slopes[1] < 1e-12

    def test_random_smooth_deterministic_and_normalized(self):
        text = MINIMAL.replace(
            "profile = cosine\namplitude = 0.1",
            "profile = random_smooth\namplitude = 0.4\nseed = 3",
        )
        a = build_initial_field(parse_config(text))
        b = build_initial_field(parse_config(text))
        assert np.array_equal(a.values, b.values)
        assert np.abs(a.values).max() == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize(
        "grid, seed, pinned",
        [
            (Grid(1, (1.0,), (65,)), 0, {0: 0.4440689367614932, 21: 0.21308007826371902}),
            (Grid(1, (3.0,), (33,)), 7, {11: -0.11278015006406635, 32: 0.391683011342463}),
            (Grid(2, (1.0, 1.0), (17, 17)), 3, {96: 0.21881118185919501, 288: 0.35434933893896525}),
            (Grid(2, (1.3, 0.7), (21, 13)), 5, {0: -0.13739761572499157, 272: 0.0660167909735287}),
        ],
    )
    def test_random_smooth_stream_pinned(self, grid, seed, pinned):
        """Each dimension keeps its seeded field bit for bit, so a stored
        random_smooth run reproduces."""
        values = _random_smooth(grid, 0.5, seed).values
        assert {i: values[i] for i in pinned} == pinned

    def test_random_smooth_2d(self):
        text = "\n".join(
            [
                "[grid]",
                "dim = 2",
                "nodes = 17,17",
                "[initial]",
                "profile = random_smooth",
                "amplitude = 0.5",
                "seed = 4",
            ]
        )
        f = build_initial_field(parse_config(text))
        assert np.abs(f.values).max() == pytest.approx(0.5, rel=1e-12)
