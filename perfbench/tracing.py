"""Spans and counters around the public functions of each crystalflow layer.

The hooks live entirely in the benchmark: `install` rebinds every wrapped
function in each `crystalflow.*` namespace that holds it (module globals and
module-level dicts such as `experiment._REPORT_FUNCS`), plus the scipy
entry points the solver layers call through module attributes. Nothing
under `src/` is edited.

A span records its calls and total time. Spans of one group that nest
inside each other are counted once in the group total, so a layer's time is
never counted twice (`standard_reports` calling `verify_prop31`,
`newton_step` nested in `fixed_point_step`). Two nestings are also kept as
counters: the time of `newton_step` directly inside `fixed_point_step`, and
the self time of `run_experiment` (its time outside its direct child spans).

Pool workers forked by `experiment.sweep` inherit the hooks. There the
`run_experiment` hook starts fresh statistics per task and attaches them to
the returned result as `bench_trace`, which the sampling process merges.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, attribute path, span name, group). A group is one layer's unit of
# time; the layer name is the part before the first dot.
HOOKS = [
    ("crystalflow.config", "parse_config", "config.parse_config", "config.parse"),
    ("crystalflow.config", "build_initial_field", "config.build_initial_field",
     "config.initial_field"),
    ("crystalflow.stepper", "fixed_point_step", "stepper.fixed_point_step", "stepper.step"),
    ("crystalflow.stepper", "newton_step", "stepper.newton_step", "stepper.step"),
    ("scipy.sparse.linalg", "spsolve", "linalg.spsolve", "linalg.spsolve"),
    ("scipy.sparse.linalg", "splu", "linalg.splu", "linalg.splu"),
    ("scipy.sparse", "bmat", "linalg.bmat", "linalg.bmat"),
    ("crystalflow.elliptic", "helmholtz_matrix", "elliptic.helmholtz_matrix",
     "elliptic.assemble"),
    ("crystalflow.elliptic", "weighted_helmholtz_matrix",
     "elliptic.weighted_helmholtz_matrix", "elliptic.assemble"),
    ("crystalflow.nonlinearity", "Variant.f", "nonlinearity.f", "nonlinearity.eval"),
    ("crystalflow.nonlinearity", "Variant.df", "nonlinearity.df", "nonlinearity.eval"),
    ("crystalflow.nonlinearity", "Variant.check_cap", "nonlinearity.check_cap",
     "nonlinearity.eval"),
    ("crystalflow.nonlinearity", "Variant.antiderivative", "nonlinearity.antiderivative",
     "nonlinearity.eval"),
    ("crystalflow.grid", "save_field", "grid.save_field", "grid.snapshot_write"),
    ("crystalflow.grid", "load_field", "grid.load_field", "grid.snapshot_read"),
    ("crystalflow.estimates", "verify_prop31", "estimates.verify_prop31", "estimates.reports"),
    ("crystalflow.estimates", "verify_prop32", "estimates.verify_prop32", "estimates.reports"),
    ("crystalflow.estimates", "verify_prop33", "estimates.verify_prop33", "estimates.reports"),
    ("crystalflow.estimates", "standard_reports", "estimates.standard_reports",
     "estimates.reports"),
    ("crystalflow.estimates", "continuum_monitors", "estimates.continuum_monitors",
     "estimates.monitors"),
    ("crystalflow.experiment", "run_experiment", "experiment.run_experiment", "experiment.run"),
]

STEP_GROUP = "stepper.step"
PICARD_SPAN = "stepper.fixed_point_step"
NEWTON_SPAN = "stepper.newton_step"
RUN_SPAN = "experiment.run_experiment"


class Tracer:
    """In-memory span statistics for one process."""

    def __init__(self):
        self.owner_pid = os.getpid()
        self.missing: set[str] = set()
        self.reset()

    def reset(self):
        self.pid = os.getpid()
        self.stack: list[list] = []  # [span name, time in direct child spans]
        self.depth: dict[str, int] = {}
        self.spans: dict[str, list] = {}  # name -> [calls, total s]
        self.groups: dict[str, float] = {}  # group -> s, outermost spans only
        self.step_s: list[float] = []
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def call(self, name, group, fn, args, kwargs):
        frame = [name, 0.0]
        self.stack.append(frame)
        self.depth[group] = self.depth.get(group, 0) + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            self.stack.pop()
            self.depth[group] -= 1
            st = self.spans.setdefault(name, [0, 0.0])
            st[0] += 1
            st[1] += dur
            if name == RUN_SPAN:
                self.count("run_experiment_self_s", dur - frame[1])
            if self.stack:
                parent = self.stack[-1]
                parent[1] += dur
                if name == NEWTON_SPAN and parent[0] == PICARD_SPAN:
                    self.count("newton_in_picard_s", dur)
            if self.depth[group] == 0:
                self.groups[group] = self.groups.get(group, 0.0) + dur
                if group == STEP_GROUP:
                    self.step_s.append(dur)

    def wrap(self, fn, name, group, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.call(name, group, fn, args, kwargs)
            if on_return is not None:
                out = on_return(tracer, out, args)
            return out

        return traced

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "groups": self.groups,
            "step_s": self.step_s,
            "counters": self.counters,
        }

    def merge(self, data: dict | None):
        if not data:
            return
        for name, (calls, total) in data["spans"].items():
            st = self.spans.setdefault(name, [0, 0.0])
            st[0] += calls
            st[1] += total
        for table in ("groups", "counters"):
            mine = getattr(self, table)
            for key, value in data[table].items():
                mine[key] = mine.get(key, 0) + value
        self.step_s.extend(data["step_s"])


# -- return-value observers ----------------------------------------------------

def _after_fixed_point(tracer, out, args):
    diag = out[2]
    tracer.count("picard_iters", diag.picard_iters)
    tracer.count("newton_fallbacks", int(bool(diag.newton_used)))
    return out


def _after_newton(tracer, out, args):
    tracer.count("newton_iters", max(len(out[2].residual_history) - 1, 0))
    return out


def _after_save_field(tracer, out, args):
    tracer.count("snapshot_files")
    tracer.count("snapshot_bytes", os.path.getsize(args[1]))
    return out


class _TracedFactor:
    """An LU factor whose triangular re-solves are timed as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap(lu.solve, "linalg.lu_solve", "linalg.lu_solve")

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _after_splu(tracer, out, args):
    return _TracedFactor(out, tracer)


_ON_RETURN = {
    "stepper.fixed_point_step": _after_fixed_point,
    "stepper.newton_step": _after_newton,
    "grid.save_field": _after_save_field,
    "linalg.splu": _after_splu,
}


def _per_task_stats(tracer, traced):
    """In a forked pool worker, give every top-level run its own statistics.

    The worker starts with a copy of the parent's open spans, so its first
    run resets on the pid change and later runs on an empty span stack.
    """

    @functools.wraps(traced)
    def run_experiment(*args, **kwargs):
        pid = os.getpid()
        task = pid != tracer.owner_pid and (tracer.pid != pid or not tracer.stack)
        if task:
            tracer.reset()
        out = traced(*args, **kwargs)
        if task:
            out.bench_trace = tracer.export()
        return out

    return run_experiment


def _rebind(original, wrapper):
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "crystalflow" or mod_name.startswith("crystalflow.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for dkey, dval in list(value.items()):
                    if dval is original:
                        value[dkey] = wrapper


def install() -> Tracer:
    """Wrap every function in HOOKS that exists; record the ones that do not."""
    tracer = Tracer()
    for mod_name, path, name, group in HOOKS:
        try:
            owner = importlib.import_module(mod_name)
        except ModuleNotFoundError:
            owner = None
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            tracer.missing.add(name)
            continue
        wrapper = tracer.wrap(original, name, group, _ON_RETURN.get(name))
        if name == "experiment.run_experiment":
            wrapper = _per_task_stats(tracer, wrapper)
        setattr(owner, attr, wrapper)
        if not owner_path:
            _rebind(original, wrapper)
    return tracer
