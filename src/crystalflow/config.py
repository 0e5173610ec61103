"""Line-oriented experiment configuration: parsing, validation, round-trip.

The format is `key = value` lines grouped under `[section]` headers, with
`#` comments. Sections are [grid], [initial], [scheme], [variant] and
[output]; [scheme], [variant] and [output] may be omitted entirely and
fall back to their defaults. Validation reports every violation at once,
each tagged with its source line, instead of stopping at the first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .estimates import REPORT_NAMES
from .exceptions import ConfigError, CrystalflowError
from .grid import FLOAT_FMT, Field, Grid, load_field
from .nonlinearity import EXP_ARG_BOUND, VARIANT_PARAMS, Variant
from .stepper import SchemeParams

__all__ = [
    "InitialSpec",
    "OutputSpec",
    "ExperimentConfig",
    "parse_config",
    "config_to_text",
    "build_initial_field",
]

# the [initial] keys PROFILES declares are all required but these, which
# InitialSpec defaults
_OPTIONAL_KEYS = ("mode", "width")

# the format's own defaults; SchemeParams leaves tau and horizon to the caller
_SCHEME_DEFAULTS = {"tau": 0.01, "horizon": 0.1}


def _unwritable(key: str, value: str | None) -> str | None:
    """Why a string setting would not read back from its `key = value` line,
    or None: a '#' starts a comment, a line break ends the line, and the
    reader strips the whitespace around the value."""
    if value is None or ("#" not in value and value == value.strip()
                         and value == "".join(value.splitlines())):
        return None
    return (f"{key} {value!r} must not contain '#' or a line break, "
            "or begin or end with whitespace")


@dataclass(frozen=True)
class InitialSpec:
    """One initial-condition source; all built-in profiles have exact
    zero normal derivative on the box boundary."""

    profile: str
    c: float | None = None
    amplitude: float | None = None
    mode: int = 1
    width: float = 0.5
    seed: int | None = None
    path: str | None = None

    def __post_init__(self):
        """Refuses an unknown profile (ValueError), and raises ConfigError
        listing every key PROFILES declares for the profile that is unset
        (all but _OPTIONAL_KEYS), every value out of range and a path that
        config_to_text could not write (_unwritable)."""
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}; choose from {', '.join(PROFILES)}")
        problems = [
            f"missing required key {key!r}"
            for key in PROFILES[self.profile][0]
            if key not in _OPTIONAL_KEYS and getattr(self, key) is None
        ]
        if self.mode < 1:
            problems.append("cosine mode must be >= 1")
        if self.width <= 0:
            problems.append("gaussian_bump width must be positive")
        if self.seed is not None and self.seed < 0:
            problems.append("random_smooth seed must be >= 0")
        if problem := _unwritable("path", self.path):
            problems.append(problem)
        if problems:
            raise ConfigError([f"[initial] {problem}" for problem in problems])


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    snapshot_stride: int = 0
    reports: tuple = REPORT_NAMES

    def __post_init__(self):
        """Raises ConfigError listing every unknown report name, a negative
        snapshot_stride and a directory that config_to_text could not write
        (_unwritable)."""
        problems = []
        bad = [name for name in self.reports if name not in REPORT_NAMES]
        if bad:
            problems.append(f"unknown report name(s) {', '.join(bad)}; "
                            f"choose from {', '.join(REPORT_NAMES)}")
        if self.snapshot_stride < 0:
            problems.append("snapshot_stride must be >= 0")
        if problem := _unwritable("directory", self.directory):
            problems.append(problem)
        if problems:
            raise ConfigError([f"[output] {problem}" for problem in problems])


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


# value type -> (parser, what a violation says the value must be)
_TYPES = {
    "real": (_finite, "a finite real number"),
    "integer": (int, "an integer"),
    "string": (str, "a string"),
    "names": (lambda s: tuple(part.strip() for part in s.split(",") if part.strip()), "a string"),
    "real_list": (lambda s: tuple(_finite(part) for part in s.split(",")),
                  "a comma-separated list of finite reals"),
    "int_list": (lambda s: tuple(int(part) for part in s.split(",")),
                 "a comma-separated list of integers"),
}

# the keys of [scheme] and [output], each the field of the same name
_SCHEME_KEYS = {f.name: "real" for f in fields(SchemeParams)}
_OUTPUT_KEYS = {"directory": "string", "snapshot_stride": "integer", "reports": "names"}

# keys the format no longer takes, which old config.txt files still carry:
# (section, key) -> (parser, the values the key can still mean, what holds
# instead). A retired key is read only at those values; any other is refused.
_RETIRED_KEYS = {
    ("scheme", "sinh_arg_cap"): (float, {EXP_ARG_BOUND}, (
        f"the overflow bound is fixed: {EXP_ARG_BOUND:g} on |K w| for the sinh variants "
        "and on max w for exp, sqrt(max double) on |w| for linear")),
    # written while f = sinh(K s)/K was one choice of scaled_sinh
    ("variant", "normalized"): (str.lower, {"true", "yes", "1"},
                                "scaled_sinh is always sinh(K s)/K"),
}


def _still_meant(value: str, parse, meant) -> bool:
    try:
        return parse(value) in meant
    except ValueError:
        return False


class _SectionReader:
    """Typed accessors over one raw section, accumulating violations."""

    def __init__(self, name, raw, violations):
        self.name = name
        self.raw = dict(raw)
        self.violations = violations
        self.ok = True

    def read(self, key, kind, required=False):
        """The parsed value of key, or None when it is absent or malformed."""
        if key not in self.raw:
            if required:
                self.violations.append(f"[{self.name}] missing required key {key!r}")
                self.ok = False
            return None
        value, lineno = self.raw.pop(key)
        conv, typename = _TYPES[kind]
        try:
            return conv(value)
        except (ValueError, TypeError):
            self.violations.append(f"line {lineno}: {key!r} must be {typename}, got {value!r}")
            self.ok = False
            return None

    def read_given(self, keys: dict) -> dict:
        """{key: value} for each key of keys the section sets and that parses."""
        values = {key: self.read(key, kind) for key, kind in keys.items()}
        return {key: value for key, value in values.items() if value is not None}

    def finish(self):
        """Refuse every key left unread: unknown, or retired at a value it can no longer mean."""
        for key, (value, lineno) in self.raw.items():
            retired = _RETIRED_KEYS.get((self.name, key))
            if retired is None:
                self.violations.append(f"line {lineno}: unknown key {key!r} in [{self.name}]")
            elif not _still_meant(value, *retired[:2]):
                self.violations.append(
                    f"[{self.name}] {key} = {value} is not supported; {retired[2]}")
            else:
                continue
            self.ok = False

    def build(self, cls, values):
        """cls(**values), or None with the reasons as violations."""
        try:
            return cls(**values)
        except ConfigError as err:
            self.violations.extend(err.violations)
            return None
        except (ValueError, CrystalflowError) as err:
            self.violations.append(f"[{self.name}] {err}")
            return None


def parse_config(text) -> ExperimentConfig:
    """Parse and fully validate; raises ConfigError listing all violations."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError(
                [f"not UTF-8 text: byte 0x{text[err.start]:02x} at offset {err.start}"]
            ) from None
    text = text.removeprefix("\ufeff")  # one UTF-8 byte-order mark, as some editors save
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
    dim = r.read("dim", "integer", required=True)
    nodes = r.read("nodes", "int_list", required=True)
    extent = r.read("extent", "real_list")
    r.finish()
    if not r.ok:
        return None
    if extent is None:
        extent = tuple(1.0 for _ in range(dim))
    return r.build(Grid, {"dim": dim, "extents": extent, "nodes": nodes})


def _parse_initial(raw, violations):
    r = _SectionReader("initial", raw, violations)
    profile = r.read("profile", "string", required=True)
    spec = None
    if profile is not None:
        # an unknown profile reads no keys; InitialSpec names it
        keys = PROFILES[profile][0] if profile in PROFILES else {}
        values = r.read_given(keys)
        # InitialSpec names the missing keys and the out-of-range values
        # together; a value that did not parse is reported, not missing
        if r.ok:
            spec = r.build(InitialSpec, {"profile": profile, **values})
    r.finish()
    return spec if r.ok else None


def _parse_scheme(raw, violations):
    r = _SectionReader("scheme", raw, violations)
    values = r.read_given(_SCHEME_KEYS)
    r.finish()
    return r.build(SchemeParams, {**_SCHEME_DEFAULTS, **values}) if r.ok else None


def _parse_variant(raw, violations):
    r = _SectionReader("variant", raw, violations)
    kind = r.read("kind", "string")
    kind = "sinh" if kind is None else kind
    key = VARIANT_PARAMS.get(kind)
    param = None if key is None else r.read(key, "real", required=True)
    r.finish()
    return r.build(Variant, {"name": kind, "param": param}) if r.ok else None


def _parse_output(raw, violations):
    r = _SectionReader("output", raw, violations)
    values = r.read_given(_OUTPUT_KEYS)
    r.finish()
    return r.build(OutputSpec, values) if r.ok else None


# -- serialization ------------------------------------------------------------

def _text(value) -> str:
    """A value as config.txt writes it; reals keep all 17 digits."""
    if isinstance(value, tuple):
        return ",".join(_text(part) for part in value)
    return FLOAT_FMT % value if isinstance(value, float) else str(value)


def _lines(obj, keys) -> list:
    """`key = value` for each of keys that obj sets, the key naming its field."""
    return [f"{key} = {_text(getattr(obj, key))}" for key in keys if getattr(obj, key) is not None]


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(config_to_text(cfg)) == cfg."""
    grid, initial, variant = cfg.grid, cfg.initial, cfg.variant
    lines = ["[grid]", f"dim = {grid.dim}", f"nodes = {_text(grid.nodes)}",
             f"extent = {_text(grid.extents)}"]
    lines += ["[initial]", f"profile = {initial.profile}"]
    lines += _lines(initial, PROFILES[initial.profile][0])
    lines += ["[scheme]"] + _lines(cfg.scheme, _SCHEME_KEYS)
    lines += ["[variant]", f"kind = {variant.name}"]
    key = VARIANT_PARAMS[variant.name]
    if key is not None:
        lines.append(f"{key} = {_text(variant.param)}")
    lines += ["[output]"] + _lines(cfg.output, _OUTPUT_KEYS)
    return "\n".join(lines) + "\n"


# -- initial-condition synthesis ----------------------------------------------

def _cosine_profile(grid: Grid, ic: InitialSpec) -> Field:
    out = ic.amplitude
    for x, length in zip(grid.coords(), grid.extents):
        out = out * np.cos(ic.mode * np.pi * x / length)
    return Field(grid, out)


def _bump_profile(grid: Grid, ic: InitialSpec) -> Field:
    # built on cos(pi x / L) so the normal derivative vanishes exactly on
    # the boundary while the bump peaks at the box center
    out = ic.amplitude
    for x, length in zip(grid.coords(), grid.extents):
        s = np.cos(np.pi * x / length)
        out = out * np.exp(-(s * s) / (2.0 * ic.width * ic.width))
    return Field(grid, out)


def _random_smooth(grid: Grid, amplitude: float, seed: int) -> Field:
    """Seeded superposition of low cosine modes, rescaled to the requested
    sup-norm. Every mode has zero normal derivative, so the sum does too."""
    rng = np.random.default_rng(seed)
    max_mode = 4
    coords = grid.coords()
    values = np.zeros_like(coords[0])
    # modes start at 1 in 1-D and at 0 per axis otherwise, drawing (and
    # skipping) the constant mode; either way the seed keeps its field
    first = 1 if grid.dim == 1 else 0
    for modes in itertools.product(range(first, max_mode + 1), repeat=grid.dim):
        # coefficients fall off like the squared Laplacian eigenvalue, so the
        # normalized field keeps moderate curvature and the exponent field it
        # induces stays far from the hyperbolic overflow regime
        lam = sum((m * np.pi / length) ** 2 for m, length in zip(modes, grid.extents))
        coeff = rng.standard_normal() / (1.0 + lam * lam)
        if not any(modes):
            continue
        term = coeff
        for m, x, length in zip(modes, coords, grid.extents):
            term = term * np.cos(m * np.pi * x / length)
        values += term
    top = np.abs(values).max()
    if top > 0:
        values = values * (amplitude / top)
    return Field(grid, values.reshape(-1))


# each profile's [initial] keys with their value types, and its builder
# (grid, spec) -> Field; the one list of profiles
PROFILES = {
    "constant": ({"c": "real"}, lambda grid, ic: Field.constant(grid, ic.c)),
    "cosine": ({"amplitude": "real", "mode": "integer"}, _cosine_profile),
    "gaussian_bump": ({"amplitude": "real", "width": "real"}, _bump_profile),
    "random_smooth": ({"amplitude": "real", "seed": "integer"},
                      lambda grid, ic: _random_smooth(grid, ic.amplitude, ic.seed)),
    "snapshot": ({"path": "string"}, lambda grid, ic: load_field(ic.path, grid)),
}


def build_initial_field(cfg: ExperimentConfig) -> Field:
    """Materialize the configured initial condition on the configured grid."""
    return PROFILES[cfg.initial.profile][1](cfg.grid, cfg.initial)
