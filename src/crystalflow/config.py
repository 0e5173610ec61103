"""Line-oriented experiment configuration: parsing, validation, round-trip.

The format is `key = value` lines grouped under `[section]` headers, with
`#` comments. Sections are [grid], [initial], [scheme], [variant] and
[output]; [scheme], [variant] and [output] may be omitted entirely and
fall back to their defaults. Validation reports every violation at once,
each tagged with its source line, instead of stopping at the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimates import REPORT_NAMES
from .exceptions import ConfigError
from .grid import FLOAT_FMT, Field, Grid, load_field
from .nonlinearity import Variant, make_variant
from .stepper import SchemeParams

__all__ = [
    "InitialSpec",
    "OutputSpec",
    "ExperimentConfig",
    "parse_config",
    "config_to_text",
    "build_initial_field",
]

PROFILE_KINDS = ("constant", "cosine", "gaussian_bump", "random_smooth", "snapshot")
VARIANT_KINDS = ("sinh", "exp", "scaled_sinh", "p_exponent", "linear")


@dataclass(frozen=True)
class InitialSpec:
    """One initial-condition source; all built-in profiles have exact
    zero normal derivative on the box boundary."""

    profile: str
    c: float = 0.0
    amplitude: float = 0.0
    mode: int = 1
    width: float = 0.1
    seed: int | None = None
    path: str | None = None


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    snapshot_stride: int = 0
    reports: tuple = REPORT_NAMES


@dataclass(frozen=True)
class ExperimentConfig:
    grid: Grid
    initial: InitialSpec
    scheme: SchemeParams
    variant: Variant
    output: OutputSpec = field(default_factory=OutputSpec)


# -- parsing ------------------------------------------------------------------

_SECTIONS = ("grid", "initial", "scheme", "variant", "output")


def _raw_sections(text: str, violations: list) -> dict:
    """Split the text into {section: {key: (value, lineno)}}."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                violations.append(f"line {lineno}: unknown section [{name}]")
                current = None
            else:
                current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            violations.append(f"line {lineno}: key outside any known section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current:
            violations.append(f"line {lineno}: duplicate key {key!r}")
        current[key] = (value, lineno)
    return sections


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


class _SectionReader:
    """Typed accessors over one raw section, accumulating violations."""

    def __init__(self, name, raw, violations):
        self.name = name
        self.raw = dict(raw)
        self.violations = violations
        self.ok = True

    def _take(self, key, default, required):
        if key not in self.raw:
            if required:
                self.violations.append(f"[{self.name}] missing required key {key!r}")
                self.ok = False
            return None, default
        return self.raw.pop(key), None

    def _parse(self, key, conv, typename, default=None, required=False):
        entry, fallback = self._take(key, default, required)
        if entry is None:
            return fallback
        value, lineno = entry
        try:
            return conv(value)
        except (ValueError, TypeError):
            self.violations.append(f"line {lineno}: {key!r} must be {typename}, got {value!r}")
            self.ok = False
            return default

    def real(self, key, default=None, required=False):
        return self._parse(key, _finite, "a finite real number", default, required)

    def integer(self, key, default=None, required=False):
        return self._parse(key, int, "an integer", default, required)

    def string(self, key, default=None, required=False):
        return self._parse(key, str, "a string", default, required)

    def real_list(self, key, default=None, required=False):
        conv = lambda s: tuple(_finite(part) for part in s.split(","))
        return self._parse(key, conv, "a comma-separated list of finite reals", default, required)

    def int_list(self, key, default=None, required=False):
        conv = lambda s: tuple(int(part) for part in s.split(","))
        return self._parse(key, conv, "a comma-separated list of integers", default, required)

    def finish(self):
        for key, (_, lineno) in self.raw.items():
            self.violations.append(f"line {lineno}: unknown key {key!r} in [{self.name}]")
            self.ok = False


def parse_config(text) -> ExperimentConfig:
    """Parse and fully validate; raises ConfigError listing all violations."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    violations: list = []
    sections = _raw_sections(text, violations)
    for name in ("grid", "initial"):
        if name not in sections:
            violations.append(f"missing required section [{name}]")
    if violations and ("grid" not in sections or "initial" not in sections):
        raise ConfigError(violations)

    grid = _parse_grid(sections.get("grid", {}), violations)
    initial = _parse_initial(sections.get("initial", {}), violations)
    scheme = _parse_scheme(sections.get("scheme", {}), violations)
    variant = _parse_variant(sections.get("variant", {}), violations)
    output = _parse_output(sections.get("output", {}), violations)

    if grid is not None and variant is not None and variant.p is not None and grid.dim != 1:
        violations.append(
            "[variant] the p_exponent variant requires dim = 1 "
            f"(grid has dim = {grid.dim})"
        )
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(grid=grid, initial=initial, scheme=scheme,
                            variant=variant, output=output)


def _parse_grid(raw, violations):
    r = _SectionReader("grid", raw, violations)
    dim = r.integer("dim", required=True)
    nodes = r.int_list("nodes", required=True)
    extent = r.real_list("extent", default=None)
    r.finish()
    if not r.ok or dim is None or nodes is None:
        return None
    if extent is None:
        extent = tuple(1.0 for _ in range(dim or 1))
    try:
        return Grid(dim=dim, extents=extent, nodes=nodes)
    except Exception as err:
        violations.append(f"[grid] {err}")
        return None


def _parse_initial(raw, violations):
    r = _SectionReader("initial", raw, violations)
    profile = r.string("profile", required=True)
    spec = None
    if profile is not None and profile not in PROFILE_KINDS:
        violations.append(
            f"[initial] unknown profile {profile!r}; choose from {', '.join(PROFILE_KINDS)}"
        )
        profile = None
    if profile == "constant":
        c = r.real("c", required=True)
        if r.ok:
            spec = InitialSpec(profile="constant", c=c)
    elif profile == "cosine":
        amplitude = r.real("amplitude", required=True)
        mode = r.integer("mode", default=1)
        if r.ok:
            spec = InitialSpec(profile="cosine", amplitude=amplitude, mode=mode)
        if mode is not None and mode < 1:
            violations.append("[initial] cosine mode must be >= 1")
            spec = None
    elif profile == "gaussian_bump":
        amplitude = r.real("amplitude", required=True)
        width = r.real("width", default=0.1)
        if width is not None and width <= 0:
            violations.append("[initial] gaussian_bump width must be positive")
        elif r.ok:
            spec = InitialSpec(profile="gaussian_bump", amplitude=amplitude, width=width)
    elif profile == "random_smooth":
        amplitude = r.real("amplitude", required=True)
        seed = r.integer("seed", required=True)
        if seed is not None and seed < 0:
            violations.append("[initial] random_smooth seed must be >= 0")
        elif r.ok and seed is not None:
            spec = InitialSpec(profile="random_smooth", amplitude=amplitude, seed=seed)
    elif profile == "snapshot":
        path = r.string("path", required=True)
        if r.ok:
            spec = InitialSpec(profile="snapshot", path=path)
    r.finish()
    return spec


def _parse_scheme(raw, violations):
    r = _SectionReader("scheme", raw, violations)
    kwargs = {
        "tau": r.real("tau", default=0.01),
        "horizon": r.real("horizon", default=0.1),
        "reg_eps": r.real("reg_eps", default=None),
        "picard_tol": r.real("picard_tol", default=1e-10),
        "sinh_arg_cap": r.real("sinh_arg_cap", default=700.0),
    }
    r.finish()
    if not r.ok:
        return None
    try:
        return SchemeParams(**kwargs)
    except ValueError as err:
        violations.append(f"[scheme] {err}")
        return None


def _parse_variant(raw, violations):
    r = _SectionReader("variant", raw, violations)
    kind = r.string("kind", default="sinh")
    kwargs = {}
    if kind == "scaled_sinh":
        kwargs["K"] = r.real("K", required=True)
        # config.txt files written before f = sinh(K s)/K was the only
        # scaled_sinh say so; any other value named a variant that is gone
        normalized = r.string("normalized", default="true")
        if normalized.lower() not in ("true", "yes", "1"):
            violations.append(
                f"[variant] normalized = {normalized} is not supported; "
                "scaled_sinh is always sinh(K s)/K"
            )
    elif kind == "p_exponent":
        kwargs["p"] = r.real("p", required=True)
    r.finish()
    if not r.ok:
        return None
    if kind not in VARIANT_KINDS:
        violations.append(f"[variant] unknown kind {kind!r}; choose from {', '.join(VARIANT_KINDS)}")
        return None
    if any(v is None for v in kwargs.values()):
        return None
    try:
        return make_variant(kind, **kwargs)
    except ValueError as err:
        violations.append(f"[variant] {err}")
        return None


def _parse_output(raw, violations):
    r = _SectionReader("output", raw, violations)
    directory = r.string("directory", default="out")
    stride = r.integer("snapshot_stride", default=0)
    reports_raw = r.string("reports", default=",".join(REPORT_NAMES))
    r.finish()
    if not r.ok:
        return None
    reports = tuple(part.strip() for part in reports_raw.split(",") if part.strip())
    bad = [name for name in reports if name not in REPORT_NAMES]
    if bad:
        violations.append(
            f"[output] unknown report name(s) {', '.join(bad)}; "
            f"choose from {', '.join(REPORT_NAMES)}"
        )
        return None
    if stride is not None and stride < 0:
        violations.append("[output] snapshot_stride must be >= 0")
        return None
    return OutputSpec(directory=directory, snapshot_stride=stride, reports=reports)


# -- serialization ------------------------------------------------------------

def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(config_to_text(cfg)) == cfg."""
    lines = ["[grid]"]
    lines.append(f"dim = {cfg.grid.dim}")
    lines.append("nodes = " + ",".join(str(n) for n in cfg.grid.nodes))
    lines.append("extent = " + ",".join(FLOAT_FMT % e for e in cfg.grid.extents))

    ic = cfg.initial
    lines.append("[initial]")
    lines.append(f"profile = {ic.profile}")
    if ic.profile == "constant":
        lines.append(f"c = {FLOAT_FMT % ic.c}")
    elif ic.profile == "cosine":
        lines.append(f"amplitude = {FLOAT_FMT % ic.amplitude}")
        lines.append(f"mode = {ic.mode}")
    elif ic.profile == "gaussian_bump":
        lines.append(f"amplitude = {FLOAT_FMT % ic.amplitude}")
        lines.append(f"width = {FLOAT_FMT % ic.width}")
    elif ic.profile == "random_smooth":
        lines.append(f"amplitude = {FLOAT_FMT % ic.amplitude}")
        lines.append(f"seed = {ic.seed}")
    elif ic.profile == "snapshot":
        lines.append(f"path = {ic.path}")

    sp = cfg.scheme
    lines.append("[scheme]")
    lines.append(f"tau = {FLOAT_FMT % sp.tau}")
    lines.append(f"horizon = {FLOAT_FMT % sp.horizon}")
    if sp.reg_eps is not None:
        lines.append(f"reg_eps = {FLOAT_FMT % sp.reg_eps}")
    lines.append(f"picard_tol = {FLOAT_FMT % sp.picard_tol}")
    lines.append(f"sinh_arg_cap = {FLOAT_FMT % sp.sinh_arg_cap}")

    v = cfg.variant
    lines.append("[variant]")
    lines.append(f"kind = {v.name}")
    if v.name == "scaled_sinh":
        lines.append(f"K = {FLOAT_FMT % v.arg_scale}")
    elif v.name == "p_exponent":
        lines.append(f"p = {FLOAT_FMT % v.p}")

    out = cfg.output
    lines.append("[output]")
    lines.append(f"directory = {out.directory}")
    lines.append(f"snapshot_stride = {out.snapshot_stride}")
    lines.append("reports = " + ",".join(out.reports))
    return "\n".join(lines) + "\n"


# -- initial-condition synthesis ----------------------------------------------

def build_initial_field(cfg: ExperimentConfig) -> Field:
    """Materialize the configured initial condition on the configured grid."""
    grid, ic = cfg.grid, cfg.initial
    if ic.profile == "constant":
        return Field.constant(grid, ic.c)
    if ic.profile == "cosine":
        return Field.from_function(grid, _cosine_profile(grid, ic.amplitude, ic.mode))
    if ic.profile == "gaussian_bump":
        return Field.from_function(grid, _bump_profile(grid, ic.amplitude, ic.width))
    if ic.profile == "random_smooth":
        return _random_smooth(grid, ic.amplitude, ic.seed)
    if ic.profile == "snapshot":
        loaded = load_field(ic.path)
        if loaded.grid != grid:
            raise ConfigError(
                [f"snapshot grid {loaded.grid.nodes} does not match configured {grid.nodes}"]
            )
        return loaded
    raise ConfigError([f"unknown profile {ic.profile!r}"])


def _cosine_profile(grid, amplitude, mode):
    def fn(*coords):
        out = np.full_like(coords[0], amplitude)
        for axis, x in enumerate(coords):
            out = out * np.cos(mode * np.pi * x / grid.extents[axis])
        return out

    return fn


def _bump_profile(grid, amplitude, width):
    # built on cos(pi x / L) so the normal derivative vanishes exactly on
    # the boundary while the bump peaks at the box center
    def fn(*coords):
        out = np.full_like(coords[0], amplitude)
        for axis, x in enumerate(coords):
            s = np.cos(np.pi * x / grid.extents[axis])
            out = out * np.exp(-(s * s) / (2.0 * width * width))
        return out

    return fn


def _random_smooth(grid: Grid, amplitude: float, seed: int) -> Field:
    """Seeded superposition of low cosine modes, rescaled to the requested
    sup-norm. Every mode has zero normal derivative, so the sum does too."""
    rng = np.random.default_rng(seed)
    max_mode = 4
    # coefficients fall off like the squared Laplacian eigenvalue, so the
    # normalized field keeps moderate curvature and the exponent field it
    # induces stays far from the hyperbolic overflow regime
    if grid.dim == 1:
        (x,) = grid.coords()
        values = np.zeros_like(x)
        for m in range(1, max_mode + 1):
            lam = (m * np.pi / grid.extents[0]) ** 2
            coeff = rng.standard_normal() / (1.0 + lam * lam)
            values += coeff * np.cos(m * np.pi * x / grid.extents[0])
    else:
        x, y = grid.coords()
        values = np.zeros_like(x)
        for mx in range(0, max_mode + 1):
            for my in range(0, max_mode + 1):
                lam = (mx * np.pi / grid.extents[0]) ** 2 + (my * np.pi / grid.extents[1]) ** 2
                coeff = rng.standard_normal() / (1.0 + lam * lam)
                if mx == 0 and my == 0:
                    continue
                values += (
                    coeff
                    * np.cos(mx * np.pi * x / grid.extents[0])
                    * np.cos(my * np.pi * y / grid.extents[1])
                )
    top = np.abs(values).max()
    if top > 0:
        values = values * (amplitude / top)
    return Field(grid, values.reshape(-1))
