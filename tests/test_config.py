"""Configuration grammar: parsing, validation, round-trip, profiles."""

import numpy as np
import pytest

from crystalflow.config import (
    ExperimentConfig,
    build_initial_field,
    config_to_text,
    parse_config,
)
from crystalflow.exceptions import ConfigError
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


class TestRoundTrip:
    @pytest.mark.parametrize(
        "extra",
        [
            "",
            "\n[scheme]\ntau = 0.005\nhorizon = 0.02\nreg_eps = 0.0001\n",
            "\n[variant]\nkind = scaled_sinh\nK = 0.25\n",
            "\n[variant]\nkind = p_exponent\np = 3\n",
            "\n[output]\ndirectory = elsewhere\nsnapshot_stride = 2\nreports = prop31\n",
        ],
    )
    def test_parse_print_parse_fixed_point(self, extra):
        cfg = parse_config(MINIMAL + extra)
        assert parse_config(config_to_text(cfg)) == cfg


class TestProfiles:
    def test_constant(self):
        cfg = parse_config(
            MINIMAL.replace("profile = cosine\namplitude = 0.1", "profile = constant\nc = 2.5")
        )
        f = build_initial_field(cfg)
        assert np.all(f.values == 2.5)

    def test_snapshot_profile(self, tmp_path):
        grid = Grid(1, (1.0,), (65,))
        stored = Field(grid, np.linspace(0, 1, 65))
        path = tmp_path / "u0.csv"
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
        path = tmp_path / "u0.csv"
        save_field(Field.constant(grid, 1.0), path)
        cfg = parse_config(
            MINIMAL.replace(
                "profile = cosine\namplitude = 0.1", f"profile = snapshot\npath = {path}"
            )
        )
        with pytest.raises(ConfigError, match="does not match"):
            build_initial_field(cfg)

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
