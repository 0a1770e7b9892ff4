"""The pipelines the benchmark times, one pass at a time.

A pass runs one workload from scratch through the public API and returns
its phase timings and the digests of what it produced. Every pass of a
workload with the same seed does identical work, so every pass is checked
against the same reference digests.

Workloads (why each one is here):

- ``train-default``: the README library pipeline at the default config:
  generate the dataset, write it and read it back, build the network,
  train a fixed number of epochs, measure selectivity and write
  ``summary.json`` / ``snapshot.json`` / ``snapshot.svg``. The event
  engine does almost all the work and firing is sparse, so engine and
  noise-draw changes show here and plasticity changes barely do.
- ``train-dense``: the same pipeline at a premise-valid (B- <= sigma-),
  high-activity config. Over ten times the default's plasticity pairs per
  stimulus, dense lateral inhibition and no early stop.
- ``verify``: ``delaysnn verify`` through ``cli.main`` with stdout
  captured. Pure analysis, no network call, so an engine change must show
  no change here.

Training is capped at a fixed number of epochs instead of running to
freeze: the freeze epoch varies from 9 to 14 across seeds, so a
time-to-freeze figure would spread across seeds by more than any bound.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from delaysnn import analysis, cli, dataset, network
from delaysnn.config import SimConfig, config_to_text

WORKLOADS = ("train-default", "train-dense", "verify")

# Config overrides per training workload.
TRAIN_CONFIGS = {
    "train-default": {},
    "train-dense": {
        "threshold": 1.0,
        "r_target": 25.0,
        "B_minus": 0.05,
        "B_plus": 0.05,
        "sigma_minus": 0.5,
        "sigma_plus": 0.5,
    },
}
# Below the earliest all-features-frozen epoch seen at defaults (9), so
# every seed trains the same number of epochs. Short passes give more
# passes per run to take medians over; train-dense still carries over
# 10x the default's plasticity pairs per stimulus.
TRAIN_EPOCHS = {"train-default": 2, "train-dense": 1}
VERIFY_SCENARIOS = 100

# Which digests each checked operation covers.
OPERATIONS = {
    "training": ("dataset", "summary", "snapshot"),
    "selectivity": ("selectivity",),
    "verify": ("verify_report",),
}
WORKLOAD_OPERATIONS = {
    "train-default": ("training", "selectivity"),
    "train-dense": ("training", "selectivity"),
    "verify": ("verify",),
}


class NullTracer:
    """Stands in for :class:`tracing.Tracer` on untraced passes."""

    def span(self, name):
        return contextlib.nullcontext()


@dataclass
class PassResult:
    wall_s: float
    setup_s: float
    phases: dict = field(default_factory=dict)  # phase name -> seconds
    epochs: list = field(default_factory=list)  # per-epoch seconds
    digests: dict = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workload_config(name: str, seed: int) -> SimConfig:
    return SimConfig(rng_seed=seed, **TRAIN_CONFIGS.get(name, {}))


def config_hash(name: str, seed: int) -> str:
    return sha256(config_to_text(workload_config(name, seed)).encode())[:16]


def verify_argv(seed: int, workdir: Path) -> list:
    return ["verify", "--scenarios", str(VERIFY_SCENARIOS), "--seed", str(seed),
            "--out", str(workdir / "verify")]


def setup(name: str, seed: int, workdir: Path, tracer=NullTracer()):
    """Everything a workload needs before its timed work starts."""
    if name == "verify":
        argv = verify_argv(seed, workdir)
        with tracer.span("bench.setup"):
            args = cli.build_parser().parse_args(argv)
            SimConfig().replace(rng_seed=args.seed)
        return argv
    cfg = workload_config(name, seed)
    path = workdir / "dots.mdots"
    with tracer.span("bench.setup"):
        ds = dataset.generate_dataset(cfg, seed)
        dataset.write_dataset(ds, path)
        ds = dataset.read_dataset(path)
        net = network.build_network(cfg)
    return ds, net


def run_pass(name: str, seed: int, workdir: Path, tracer=NullTracer()) -> PassResult:
    """One complete pass of workload ``name``; raises if the program does."""
    workdir.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    state = setup(name, seed, workdir, tracer)
    setup_done = perf_counter()
    result = PassResult(wall_s=0.0, setup_s=setup_done - start)

    if name == "verify":
        out = io.StringIO()
        with tracer.span("bench.verify"), contextlib.redirect_stdout(out):
            code = cli.main(state)
        result.wall_s = perf_counter() - start
        result.phases["verify_s"] = result.wall_s - result.setup_s
        result.digests["verify_report"] = sha256(f"exit {code}\n{out.getvalue()}".encode())
        return result

    ds, net = state
    epoch_started = t0 = perf_counter()

    def on_epoch_end(epoch, net_):
        nonlocal epoch_started
        now = perf_counter()
        result.epochs.append(now - epoch_started)
        epoch_started = now

    with tracer.span("bench.train"):
        summary = network.train(net, ds, TRAIN_EPOCHS[name], on_epoch_end=on_epoch_end)
    t1 = perf_counter()
    with tracer.span("bench.selectivity"):
        sel = analysis.measure_selectivity(net, ds)
    t2 = perf_counter()
    result.phases.update(train_s=t1 - t0, selectivity_s=t2 - t1)
    with tracer.span("bench.write"):
        summary.save(workdir / "summary.json")
        analysis.export_snapshot(net, workdir / "snapshot.json", "numeric")
        analysis.export_snapshot(net, workdir / "snapshot.svg", "svg")
    result.wall_s = perf_counter() - start

    for key, filename in (("dataset", "dots.mdots"), ("summary", "summary.json"),
                          ("snapshot", "snapshot.json")):
        result.digests[key] = sha256((workdir / filename).read_bytes())
    result.digests["selectivity"] = sha256(json.dumps(sel.counts.tolist()).encode())
    return result
