"""Workload definitions, seeded inputs and the stored-reference gate.

Each workload is a crystalflow config built from a seed. The seed perturbs
the workload's initial amplitude by at most AMPLITUDE_JITTER (relative), so
runs with different seeds solve distinct inputs while the final field stays
within REFERENCE_TOL of the reference stored in reference.npz, which was
computed at the nominal amplitude (see make_reference.py). The jitter leaves
iteration counts unchanged, so seeds do not move the timings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.npz"

AMPLITUDE_JITTER = 1e-7
# max-norm distance of a final u from its stored reference. The jitter moves
# the final u by < 1e-8 (measured) and the step tolerance (residual 1e-10) by less.
REFERENCE_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    nodes: int
    tau: float
    horizon: float
    snapshot_stride: int
    amplitude: float = 0.5
    verify: bool = False  # run `crystalflow verify` on the run directory
    sweep_taus: tuple = ()  # non-empty: call sweep over these tau values
    reg_eps: float | None = None

    def config_text(self, seed: int, directory: str) -> str:
        rng = random.Random(f"{self.name}:{seed}")
        amplitude = self.amplitude * (1.0 + AMPLITUDE_JITTER * (2.0 * rng.random() - 1.0))
        return config_text(self, amplitude, directory)


def config_text(w: Workload, amplitude: float, directory: str) -> str:
    lines = [
        "[grid]",
        f"dim = {w.dim}",
        "nodes = " + ",".join([str(w.nodes)] * w.dim),
        "[initial]",
        "profile = cosine",
        f"amplitude = {amplitude!r}",
        "mode = 1",
        "[scheme]",
        f"tau = {w.tau!r}",
        f"horizon = {w.horizon!r}",
    ]
    if w.reg_eps is not None:
        lines.append(f"reg_eps = {w.reg_eps!r}")
    lines += [
        "[output]",
        f"directory = {directory}",
        f"snapshot_stride = {w.snapshot_stride}",
        "reports = prop31,prop32,prop33",
    ]
    return "\n".join(lines) + "\n"


# Why each workload exists is in README.md. The "-tiny" twins run the same
# code paths in well under a second for the smoke check. solve2d-65 runs at
# amplitude 0.4: at 0.5 a 2-D 65x65 grid sits on the round-off ceiling of
# the absolute step tolerance, and 4 of 140 jittered amplitudes fail at
# step 1 ("Newton line search stagnated"); 0 of 140 fail at 0.4.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve2d-65", dim=2, nodes=65, tau=1e-3, horizon=0.01, snapshot_stride=0,
                 amplitude=0.4),
        Workload("audit1d-65", dim=1, nodes=65, tau=1e-3, horizon=0.5, snapshot_stride=1,
                 verify=True),
        Workload("sweep2d-33", dim=2, nodes=33, tau=1e-3, horizon=0.02, snapshot_stride=0,
                 sweep_taus=(4e-3, 2e-3, 1e-3, 5e-4), reg_eps=1e-3),
        Workload("solve2d-65-tiny", dim=2, nodes=9, tau=1e-3, horizon=0.003, snapshot_stride=0,
                 amplitude=0.4),
        Workload("audit1d-65-tiny", dim=1, nodes=17, tau=1e-3, horizon=0.02, snapshot_stride=1,
                 verify=True),
        Workload("sweep2d-33-tiny", dim=2, nodes=9, tau=1e-3, horizon=0.004, snapshot_stride=0,
                 sweep_taus=(4e-3, 2e-3, 1e-3, 5e-4), reg_eps=1e-3),
    )
}

REQUIRED_LAYERS = ("config", "stepper", "linalg", "nonlinearity", "estimates", "experiment")


def active_layers(w: Workload, missing: set) -> tuple:
    """Layers that must record calls on w, given the hooks whose functions
    are missing. grid only does snapshot I/O; elliptic is reached through
    fixed_point_step (the Helmholtz factor and the weighted operator), so it
    is required while that function exists."""
    layers = REQUIRED_LAYERS
    if "stepper.fixed_point_step" not in missing:
        layers += ("elliptic",)
    if w.snapshot_stride > 0:
        layers += ("grid",)
    return layers


def reference_keys(w: Workload) -> list[str]:
    if w.sweep_taus:
        return [f"{w.name}/tau_{tau:g}" for tau in w.sweep_taus]
    return [w.name]


def check_reference(key: str, u, refs) -> str | None:
    """Return an error message when u is not within REFERENCE_TOL of refs[key]."""
    if key not in refs:
        return f"{key}: no stored reference"
    ref = refs[key]
    if ref.shape != u.shape:
        return f"{key}: final u has shape {u.shape}, reference {ref.shape}"
    err = float(abs(u - ref).max())
    if not err <= REFERENCE_TOL:
        return f"{key}: final u differs from reference by {err:.3e} > {REFERENCE_TOL:g}"
    return None
