"""Spans and counts around the calls into each layer of delaysnn.

Tracing patches a module attribute for the duration of a traced pass:
the name each caller looks up, so ``network.train`` reaches the patched
``network.present_stimulus``, ``analysis.measure_selectivity`` the patched
``analysis.present_stimulus`` (bound there at import), and
``network.finish_stimulus`` / ``analysis.run_property_checks`` the patched
``plasticity.*`` rules. Noise draws are timed through a proxy placed on
``net.noise_stream.generator`` when ``build_network`` returns.

Spans are kept in memory as (name, start, end, parent, run id) and
written out by the caller when the run ends. A span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from delaysnn import analysis, cli, dataset, network, plasticity

# Counts that depend only on the inputs: they must repeat exactly between
# passes and runs of the same workload and seed.
EXACT_COUNTS = (
    "network.events",
    "network.dropped",
    "network.firings",
    "plasticity.pairs",
    "config.noise_values",
    "analysis.scenarios",
    "analysis.repetitions",
    "dataset.spikes",
)

# The names patched in each module: the ones their callers look up.
# ``analysis`` binds its own ``present_stimulus`` at import.
TRACED = {
    dataset: ("generate_dataset", "write_dataset", "read_dataset"),
    network: ("build_network", "train", "present_stimulus", "finish_stimulus"),
    analysis: ("present_stimulus", "measure_selectivity", "export_snapshot",
               "run_convergence_suite", "random_scenario", "run_property_checks"),
    plasticity: ("apply_pair_updates", "homeostasis_factor", "apply_homeostasis",
                 "check_freeze", "apply_growth"),
    cli: ("main",),
}

REGULATION = (
    "plasticity.homeostasis_factor",
    "plasticity.apply_homeostasis",
    "plasticity.check_freeze",
    "plasticity.apply_growth",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, run id]
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # run id -> name -> n
        self.run_id = None
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n) -> None:
        self.counts[self.run_id][name] += n

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def total(self, *names: str) -> float:
        return sum(sum(self.durations(name)) for name in names)

    def self_time(self, name: str) -> float:
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return sum(end - start - child_time[i]
                   for i, (n, start, end, _, _) in enumerate(self.spans) if n == name)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r in self.spans
            ],
            "counts": {str(run): dict(c) for run, c in self.counts.items()},
        }


class _TimedGenerator:
    """Delegates to a numpy Generator, timing and counting ``normal`` draws."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def normal(self, *args, **kwargs):
        with self._tracer.span("config.noise_draw"):
            out = self._generator.normal(*args, **kwargs)
        self._tracer.count("config.noise_values", int(np.size(out)))
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


def schedule(cfg, delays: np.ndarray, stim) -> tuple:
    """(scheduled arrivals, dropped arrivals, idle steps) for one stimulus.

    Mirrors the engine's contract: each input cell's earliest spike reaches
    every feature neuron whose 5x5 receptive field covers it at
    ``t + delay``; arrivals after ``n_steps * dt`` are dropped, and an
    arrival lands in the first step whose end time is at or after it.
    """
    k = network.KERNEL_SIZE
    out_h, out_w = cfg.grid_height - k + 1, cfg.grid_width - k + 1
    n_steps = int(round(cfg.stimulus_window / cfg.dt))
    first: dict = {}
    for sp in stim.spikes:
        key, t = (sp.y, sp.x), float(sp.t)
        if key not in first or t < first[key]:
            first[key] = t
    arrivals = [
        t + delays[:, max(0, iy - out_h + 1):min(k - 1, iy) + 1,
                   max(0, ix - out_w + 1):min(k - 1, ix) + 1].ravel()
        for (iy, ix), t in first.items()
    ]
    if not arrivals:
        return 0, 0, n_steps
    arrivals = np.concatenate(arrivals)
    kept = arrivals[arrivals <= n_steps * cfg.dt]
    step_ends = np.arange(1, n_steps + 1) * cfg.dt
    busy = np.unique(np.searchsorted(step_ends, kept, side="left")).size
    return kept.size, arrivals.size - kept.size, n_steps - busy


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args)
        return result
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced name for the duration of the block."""
    present = network.present_stimulus

    def traced_present(net, stim):
        delays = net.delays.copy()
        events, dropped, idle = schedule(net.cfg, delays, stim)
        with tracer.span("network.present_stimulus"):
            record = present(net, stim)
        tracer.count("network.events", events)
        tracer.count("network.dropped", dropped)
        tracer.count("network.idle_steps", idle)
        tracer.count("network.steps", int(round(net.cfg.stimulus_window / net.cfg.dt)))
        tracer.count("network.firings", len(record.feature_firings))
        return record

    def after_build(net, *_):
        net.noise_stream.generator = _TimedGenerator(net.noise_stream.generator, tracer)

    def after_convergence(_, scenario):
        tracer.count("analysis.scenarios", 1)
        tracer.count("analysis.repetitions", scenario.repetitions)

    hooks = {
        "network.build_network": after_build,
        "network.train": lambda _, net, *rest: tracer.count(
            "plasticity.frozen_features", len(net.frozen)),
        "plasticity.apply_pair_updates": lambda report, *_: tracer.count(
            "plasticity.pairs", report.pair_count),
        "analysis.run_convergence_suite": after_convergence,
        "dataset.generate_dataset": lambda ds, *_: tracer.count(
            "dataset.spikes", sum(len(s.spikes) for s in ds.stimuli)),
        "dataset.write_dataset": lambda _, ds, path: tracer.count(
            "dataset.bytes", Path(path).stat().st_size),
    }
    originals = [(module, attr, getattr(module, attr))
                 for module, attrs in TRACED.items() for attr in attrs]
    try:
        for module, attr, fn in originals:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, traced_present if attr == "present_stimulus"
                    else _wrap(tracer, name, fn, hooks.get(name)))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass, as (value, unit) pairs."""
    counts: dict = defaultdict(int)
    for run_counts in tracer.counts.values():
        for name, n in run_counts.items():
            counts[name] += n
    present_ms = [d * 1e3 for d in tracer.durations("network.present_stimulus")]
    present_s = tracer.total("network.present_stimulus")

    def per_pass(x):
        return x / passes

    def pct(q):
        if not present_ms:
            return 0.0
        return float(np.percentile(present_ms, q))

    return {
        "network.present_s": (per_pass(present_s), "s"),
        "network.present_calls": (per_pass(len(present_ms)), "count"),
        "network.present_ms_p50": (pct(50), "ms"),
        "network.present_ms_p99": (pct(99), "ms"),
        "network.events": (per_pass(counts["network.events"]), "count"),
        "network.dropped": (per_pass(counts["network.dropped"]), "count"),
        "network.events_per_s": (
            counts["network.events"] / present_s if present_s else 0.0, "1/s"),
        "network.firings": (per_pass(counts["network.firings"]), "count"),
        "network.idle_step_frac": (
            counts["network.idle_steps"] / counts["network.steps"]
            if counts["network.steps"] else 0.0, "ratio"),
        "network.build_s": (per_pass(tracer.total("network.build_network")), "s"),
        "network.finish_self_s": (per_pass(tracer.self_time("network.finish_stimulus")), "s"),
        "network.train_self_s": (per_pass(tracer.self_time("network.train")), "s"),
        "config.noise_draw_s": (per_pass(tracer.total("config.noise_draw")), "s"),
        "config.noise_values": (per_pass(counts["config.noise_values"]), "count"),
        "plasticity.pair_s": (per_pass(tracer.total("plasticity.apply_pair_updates")), "s"),
        "plasticity.pairs": (per_pass(counts["plasticity.pairs"]), "count"),
        "plasticity.regulation_s": (per_pass(tracer.total(*REGULATION)), "s"),
        "plasticity.frozen_features": (per_pass(counts["plasticity.frozen_features"]), "count"),
        "analysis.selectivity_self_s": (
            per_pass(tracer.self_time("analysis.measure_selectivity")), "s"),
        "analysis.snapshot_s": (per_pass(tracer.total("analysis.export_snapshot")), "s"),
        "analysis.convergence_s": (per_pass(tracer.total(
            "analysis.run_convergence_suite", "analysis.random_scenario")), "s"),
        "analysis.property_checks_s": (
            per_pass(tracer.total("analysis.run_property_checks")), "s"),
        "analysis.scenarios": (per_pass(counts["analysis.scenarios"]), "count"),
        "analysis.repetitions": (per_pass(counts["analysis.repetitions"]), "count"),
        "dataset.generate_s": (per_pass(tracer.total("dataset.generate_dataset")), "s"),
        "dataset.write_s": (per_pass(tracer.total("dataset.write_dataset")), "s"),
        "dataset.read_s": (per_pass(tracer.total("dataset.read_dataset")), "s"),
        "dataset.spikes": (per_pass(counts["dataset.spikes"]), "count"),
        "dataset.bytes": (per_pass(counts["dataset.bytes"]), "B"),
        "cli.verify_self_s": (per_pass(tracer.self_time("cli.main")), "s"),
    }


def breakdown(tracer: Tracer, passes: int) -> list:
    """(phase, phase seconds, [(span, self seconds)]) per bench phase, per pass.

    Shows where each end-to-end number comes from: the self times of the
    spans under a phase add up to the phase.
    """
    children: dict = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(tracer.spans):
        if parent is not None:
            children[parent].append(i)

    def collect(i, into):
        name, start, end, _, _ = tracer.spans[i]
        child_total = 0.0
        for c in children[i]:
            _, cs, ce, _, _ = tracer.spans[c]
            child_total += ce - cs
            collect(c, into)
        into[name] += end - start - child_total

    rows = []
    for phase in sorted({s[0] for s in tracer.spans if s[0].startswith("bench.")}):
        selfs: dict = defaultdict(float)
        for i, span in enumerate(tracer.spans):
            if span[0] == phase:
                collect(i, selfs)
        rows.append((phase, tracer.total(phase) / passes,
                     sorted(((n, t / passes) for n, t in selfs.items()),
                            key=lambda item: -item[1])))
    return rows


def repeat_mismatches(tracer: Tracer) -> list:
    """Exact counts that differ between the traced passes of one run."""
    per_run = list(tracer.counts.values())
    return [
        name for name in EXACT_COUNTS
        if len({c.get(name, 0) for c in per_run}) > 1
    ]
