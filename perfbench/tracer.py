"""Spans around the calls into traywaiter's modules, recorded from outside
the package.

`Tracer.install` swaps each hook point (a public function or method of one
module, the module being the layer) for a timing wrapper, in the defining
module and in every traywaiter module that imported it by name. A hook point
that no longer exists is left out and the metrics that need it read null.

Spans carry name, layer, parent, start and end, and stay in memory until
`write`. The three compensation functions run once per sample, so their
calls are summed per name instead and charged to the enclosing span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

now = time.perf_counter_ns

LAYERS = ("cli", "dynamics", "planner", "smoothers", "compensation", "fileio")
ITERATION = "cli.iteration"
TIME_UNITS = ("s", "ms", "us", "ns")


class Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "covered")

    def __init__(self, id: int, name: str, layer: str, parent: int):
        self.id = id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0
        self.covered = 0          # ns of this span spent in direct children


def _count_sim(tracer, args, kwargs, result):
    tracer.counts["dynamics.steps"] += result.t.size - 1
    tracer.counts["dynamics.samples"] += result.mode.size
    tracer.counts["dynamics.slip_samples"] += int(np.count_nonzero(result.mode))
    tracer.counts["dynamics.events"] += len(result.transitions)


def _count_cascade(tracer, args, kwargs, result):
    tracer.counts["smoothers.samples"] += result[0].size
    if any(span.name == "planner.plan" for span in tracer.stack):
        tracer.counts["planner.probes"] += 1


def _count_read(tracer, args, kwargs, result):
    tracer.counts["fileio.read_trajectory.rows"] += result.t.size


def _writer_counter(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[f"{name}.rows"] += args[1].t.size
        tracer.counts["fileio.bytes_written"] += os.path.getsize(args[0])
    return count


# (layer, attribute path in the layer's module, per-sample?, counter)
HOOKS = (
    ("cli", "main", False, None),
    ("dynamics", "simulate_coupled", False, _count_sim),
    ("dynamics", "simulate_solid_sliding", False, _count_sim),
    ("dynamics", "fd_tilt_channel", False, None),
    ("dynamics", "TrayMotion.from_channels", False, None),
    ("planner", "plan", False, None),
    ("planner", "rollout_trajectory", False, None),
    ("planner", "feasibility_report", False, None),
    ("smoothers", "CascadeState.run", False, _count_cascade),
    ("smoothers", "freq_response", False, None),
    ("compensation", "tilt_angles", True, None),
    ("compensation", "rotation_matrix", True, None),
    ("compensation", "compose_flange_pose", True, None),
    ("fileio", "load_config", False, None),
    ("fileio", "read_trajectory", False, _count_read),
    ("fileio", "write_trajectory", False, _writer_counter("fileio.write_trajectory")),
    ("fileio", "write_pose_trajectory", False,
     _writer_counter("fileio.write_pose_trajectory")),
    ("fileio", "write_sim_trace", False, _writer_counter("fileio.write_sim_trace")),
    ("fileio", "band_limited_noise", False, None),
)
HOOK_NAMES = tuple(f"{layer}.{path}" for layer, path, _, _ in HOOKS)


class Tracer:
    """Spans, per-sample call totals and counters of the traced iterations."""

    def __init__(self):
        self.on = False
        self.missing: set = set()     # hook points not found, or counters that broke
        self._restore: list = []
        self.spans: list = []
        self.stack: list = []
        self.leaves: dict = {}        # name -> [calls, ns]
        self.counts: Counter = Counter()
        self.iterations = 0

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, layer: str) -> Span:
        span = Span(len(self.spans), name, layer,
                    self.stack[-1].id if self.stack else -1)
        self.spans.append(span)
        self.stack.append(span)
        span.start = now()
        return span

    def _close(self, span: Span) -> None:
        span.end = now()
        self.stack.pop()
        if self.stack:
            self.stack[-1].covered += span.end - span.start

    @contextmanager
    def iteration(self):
        """One traced pipeline iteration: the root span of everything below."""
        self.on = True
        span = self._open(ITERATION, "cli")
        try:
            yield
        finally:
            self._close(span)
            self.on = False
            self.iterations += 1

    # -- hooks ---------------------------------------------------------------

    def _span_wrapper(self, name, layer, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                try:
                    counter(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.missing.add(name)
            return result
        return wrapper

    def _leaf_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                d = now() - t0
                agg = self.leaves.setdefault(name, [0, 0])
                agg[0] += 1
                agg[1] += d
                self.stack[-1].covered += d
        return wrapper

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "traywaiter" or n.startswith("traywaiter.")}
        for (layer, path, per_sample, counter), name in zip(HOOKS, HOOK_NAMES):
            owner = modules.get(f"traywaiter.{layer}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not callable(fn):
                self.missing.add(name)
                continue
            wrapped = (self._leaf_wrapper(name, fn) if per_sample
                       else self._span_wrapper(name, layer, fn, counter))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            targets = [(owner, attr)]
            if not owner_path:
                targets += [(m, key) for m in modules.values() if m is not owner
                            for key, value in vars(m).items() if value is raw]
            for target, key in targets:
                self._restore.append((target, key, raw))
                setattr(target, key, wrapped)

    def uninstall(self) -> None:
        for target, key, raw in reversed(self._restore):
            setattr(target, key, raw)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, ns] over spans and per-sample calls."""
        out = {name: list(agg) for name, agg in self.leaves.items()}
        for span in self.spans:
            agg = out.setdefault(span.name, [0, 0])
            agg[0] += 1
            agg[1] += span.end - span.start
        return out

    def self_ns(self) -> dict:
        """Per layer: time in its spans not covered by their children."""
        out = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            out[span.layer] += span.end - span.start - span.covered
        for name, (_, ns) in self.leaves.items():
            out[name.split(".", 1)[0]] += ns
        return out

    def write(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0
        record = {
            "spans": [{"id": s.id, "name": s.name, "parent": s.parent,
                       "start_ns": s.start - t0, "end_ns": s.end - t0}
                      for s in self.spans],
            "per_sample_calls": {name: {"calls": c, "ns": ns}
                                 for name, (c, ns) in self.leaves.items()},
            "counts": self.counts,
            "missing_hooks": sorted(self.missing),
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, time_scale: float) -> dict:
    """name -> (value, unit) for every per-layer metric; value is None when
    a hook point it needs is missing. Counts and times are per iteration
    unless the name says per call, row, sample or step. Times are multiplied
    by `time_scale`."""
    totals = tracer.totals()
    n_iter = tracer.iterations
    counts = tracer.counts

    def ns(*names):
        return sum(totals.get(name, (0, 0))[1] for name in names)

    def calls(*names):
        return sum(totals.get(name, (0, 0))[0] for name in names)

    sim = ("dynamics.simulate_coupled", "dynamics.simulate_solid_sliding")
    prep = ("dynamics.fd_tilt_channel", "dynamics.TrayMotion.from_channels")
    run = "smoothers.CascadeState.run"
    pose = ("compensation.tilt_angles", "compensation.rotation_matrix",
            "compensation.compose_flange_pose")
    load = "fileio.load_config"
    noise = "fileio.band_limited_noise"
    read = "fileio.read_trajectory"
    writers = ("fileio.write_trajectory", "fileio.write_pose_trajectory",
               "fileio.write_sim_trace")

    def per_row(name):
        return _ratio(ns(name) / 1e3, counts[f"{name}.rows"])

    # (name, unit, hook points needed, value)
    table = [
        ("dynamics.sim_us_per_step", "us", sim,
         _ratio(ns(*sim) / 1e3, counts["dynamics.steps"])),
        ("dynamics.steps", "count", sim, counts["dynamics.steps"] / n_iter),
        ("dynamics.slip_share", "ratio", sim,
         _ratio(counts["dynamics.slip_samples"], counts["dynamics.samples"])),
        ("dynamics.events", "count", sim, counts["dynamics.events"] / n_iter),
        ("dynamics.motion_prep_ms", "ms", prep, ns(*prep) / 1e6 / n_iter),
        ("planner.plan_ms", "ms", ("planner.plan",), ns("planner.plan") / 1e6 / n_iter),
        ("planner.probes", "count", ("planner.plan", run),
         counts["planner.probes"] / n_iter),
        ("planner.rollout_ms", "ms", ("planner.rollout_trajectory",),
         ns("planner.rollout_trajectory") / 1e6 / n_iter),
        ("smoothers.run_ns_per_sample", "ns", (run,),
         _ratio(ns(run), counts["smoothers.samples"])),
        ("smoothers.samples", "count", (run,), counts["smoothers.samples"] / n_iter),
        ("smoothers.freq_response_ms", "ms", ("smoothers.freq_response",),
         ns("smoothers.freq_response") / 1e6 / n_iter),
        ("compensation.pose_us_per_sample", "us", pose,
         _ratio(ns(*pose) / 1e3, calls("compensation.tilt_angles"))),
        ("compensation.calls", "count", pose, calls(*pose) / n_iter),
        ("fileio.load_config_ms", "ms", (load,), _ratio(ns(load) / 1e6, calls(load))),
        ("fileio.read_trajectory_us_per_row", "us", (read,), per_row(read)),
        ("fileio.write_trajectory_us_per_row", "us", writers[:1], per_row(writers[0])),
        ("fileio.write_pose_us_per_row", "us", writers[1:2], per_row(writers[1])),
        ("fileio.write_trace_us_per_row", "us", writers[2:], per_row(writers[2])),
        ("fileio.noise_ms", "ms", (noise,), ns(noise) / 1e6 / n_iter),
        ("fileio.bytes_written", "B", writers, counts["fileio.bytes_written"] / n_iter),
    ]
    self_ns = tracer.self_ns()
    for layer in LAYERS:
        # time under a missing hook point counts as whichever layer called
        # it, so any missing point leaves every self time unmeasured
        table.append((f"{layer}.self_ms", "ms", HOOK_NAMES,
                      self_ns[layer] / 1e6 / n_iter))
    return {name: (None if tracer.missing.intersection(needs) else
                   value * time_scale if unit in TIME_UNITS else value, unit)
            for name, unit, needs, value in table}
