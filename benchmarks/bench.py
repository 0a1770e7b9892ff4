"""Per-stimulus and per-epoch timings of the training loop.

For each config (default and dense) and each seed, the script generates
that seed's dataset, builds the network and trains a fixed number of
epochs, timing every ``present_stimulus`` and ``finish_stimulus`` call
and every epoch with ``time.perf_counter``, and counts the scheduled
synaptic arrivals (events) to report events per second of
``present_stimulus`` time. A separate, untimed pass of one epoch per seed
then measures each ``present_stimulus`` call's ``tracemalloc`` peak, so
tracing does not perturb the timings. Last, it times one seed's
training at the default config from a fresh network until every feature
froze (at most 100 epochs). It also times the stimulus encoding layer:
``generate_dataset``, ``write_dataset`` and ``read_dataset`` on every
seed's default dataset, ``ENCODING_REPEATS`` times each, and the verify
layer: ``run_property_checks``, the checks of ``delaysnn verify``'s
100 random scenarios and the whole ``verify`` command, ``VERIFY_REPEATS``
times each. It writes the medians and quartiles, the train-to-freeze
time and epoch, the python and numpy versions, the CPUs the process may
use and a hash of each config, to ``BENCH_<label>.json``.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench.py --label blockwise

To measure another checkout with the same script, put its ``src`` on
``PYTHONPATH`` instead. The script uses only the public training API, so
the same file times older and newer engines alike.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from delaysnn import analysis, cli
from delaysnn.config import STREAM_VERIFY, RngStream, SimConfig, config_to_text
from delaysnn.dataset import generate_dataset, read_dataset, write_dataset
from delaysnn.network import (
    FEATURE_COUNT,
    KERNEL_SIZE,
    build_network,
    finish_stimulus,
    present_stimulus,
    train,
)

# Config overrides. ``dense`` is premise-valid (B- <= sigma-) and fires
# about 100 feature neurons per stimulus, so the plasticity batch weighs
# in; at ``default`` firing is sparse and the engine does the work.
CONFIGS = {
    "default": {},
    "dense": {
        "threshold": 1.0,
        "r_target": 25.0,
        "B_minus": 0.05,
        "B_plus": 0.05,
        "sigma_minus": 0.5,
        "sigma_plus": 0.5,
    },
}
SEEDS = range(10)
# As many epochs as perfbench's train-default trains.
EPOCHS = 2
# Train-to-freeze: one seed at the default config, capped like the CLI.
FREEZE_SEED = 0
FREEZE_MAX_EPOCHS = 100
# Timed passes of generate, write and read per seed.
ENCODING_REPEATS = 5
# The verify layer: one seed, as many scenarios as perfbench's verify.
VERIFY_SEED = 0
VERIFY_SCENARIOS = 100
VERIFY_REPEATS = 15


def _quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _events(record) -> int:
    """Scheduled arrivals of a presentation: reachable minus dropped."""
    reached = np.isfinite(sliding_window_view(record.input_times, (KERNEL_SIZE, KERNEL_SIZE)))
    return FEATURE_COUNT * int(np.count_nonzero(reached)) - record.dropped_events


def _traced_peaks_kib(overrides: dict) -> list:
    """``tracemalloc`` peak of every presentation in one epoch per seed."""
    peaks = []
    for seed in SEEDS:
        cfg = SimConfig(rng_seed=seed, **overrides)
        ds = generate_dataset(cfg, seed)
        net = build_network(cfg)
        for stim in ds.stimuli:
            tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                record = present_stimulus(net, stim)
                peaks.append(tracemalloc.get_traced_memory()[1] / 1024)
            finally:
                tracemalloc.stop()
            finish_stimulus(net, record)
    return peaks


def measure(overrides: dict) -> dict:
    """Times of every presentation, batch and epoch over ``SEEDS``."""
    present_ms, finish_ms, epoch_s = [], [], []
    events = 0
    for seed in SEEDS:
        cfg = SimConfig(rng_seed=seed, **overrides)
        ds = generate_dataset(cfg, seed)
        net = build_network(cfg)
        for _ in range(EPOCHS):
            records = []
            epoch_start = perf_counter()
            for stim in ds.stimuli:
                t0 = perf_counter()
                record = present_stimulus(net, stim)
                t1 = perf_counter()
                finish_stimulus(net, record)
                t2 = perf_counter()
                present_ms.append((t1 - t0) * 1e3)
                finish_ms.append((t2 - t1) * 1e3)
                records.append(record)
            epoch_s.append(perf_counter() - epoch_start)
            events += sum(map(_events, records))
    peaks = _traced_peaks_kib(overrides)
    # The seed only picks the streams; the hash names the model config.
    text = config_to_text(SimConfig(rng_seed=0, **overrides))
    return {
        "config_hash": hashlib.sha256(text.encode()).hexdigest()[:16],
        "overrides": overrides,
        "present_ms": _quartiles(present_ms),
        "finish_ms": _quartiles(finish_ms),
        "epoch_s": _quartiles(epoch_s),
        "events_per_s": events / (sum(present_ms) / 1e3),
        "present_peak_kib": {**_quartiles(peaks), "max": max(peaks)},
    }


def train_to_freeze() -> dict:
    """Wall time of ``train`` at defaults until every feature froze."""
    cfg = SimConfig(rng_seed=FREEZE_SEED)
    ds = generate_dataset(cfg, FREEZE_SEED)
    net = build_network(cfg)
    start = perf_counter()
    summary = train(net, ds, FREEZE_MAX_EPOCHS)
    wall_s = perf_counter() - start
    frozen = None not in summary.freeze_epochs
    return {
        "seed": FREEZE_SEED,
        "max_epochs": FREEZE_MAX_EPOCHS,
        "wall_s": wall_s,
        "epochs_run": summary.epochs_run,
        "freeze_epoch": max(summary.freeze_epochs) if frozen else None,
    }


def encoding() -> dict:
    """Times of generating, writing and reading each seed's dataset."""
    times: dict = {"generate_ms": [], "write_ms": [], "read_ms": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dots.mdots"
        for _ in range(ENCODING_REPEATS):
            for seed in SEEDS:
                cfg = SimConfig(rng_seed=seed)
                t0 = perf_counter()
                ds = generate_dataset(cfg, seed)
                t1 = perf_counter()
                write_dataset(ds, path)
                t2 = perf_counter()
                read_dataset(path)
                t3 = perf_counter()
                times["generate_ms"].append((t1 - t0) * 1e3)
                times["write_ms"].append((t2 - t1) * 1e3)
                times["read_ms"].append((t3 - t2) * 1e3)
    return {name: _quartiles(values) for name, values in times.items()}


def _check_scenarios(scenarios: list) -> None:
    """Check every scenario as ``delaysnn verify`` does."""
    for batch in analysis.trajectory_batches(scenarios):
        for sc, trajectory in zip(batch, analysis.convergence_trajectories(batch)):
            analysis.run_convergence_suite(sc, trajectory=trajectory)


def verify_layer() -> dict:
    """Times of the property checks, the scenario suite and ``verify``."""
    cfg = SimConfig(rng_seed=VERIFY_SEED)
    rng = RngStream(VERIFY_SEED, STREAM_VERIFY).generator
    scenarios = [analysis.random_scenario(rng, with_late=index % 2 == 1)
                 for index in range(VERIFY_SCENARIOS)]
    times: dict = {"property_checks_ms": [], "suite_ms": [], "verify_ms": []}
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["verify", "--scenarios", str(VERIFY_SCENARIOS),
                "--seed", str(VERIFY_SEED), "--out", tmp]
        for _ in range(VERIFY_REPEATS):
            t0 = perf_counter()
            analysis.run_property_checks(VERIFY_SEED, cfg)
            t1 = perf_counter()
            _check_scenarios(scenarios)
            t2 = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            t3 = perf_counter()
            times["property_checks_ms"].append((t1 - t0) * 1e3)
            times["suite_ms"].append((t2 - t1) * 1e3)
            times["verify_ms"].append((t3 - t2) * 1e3)
    return {name: _quartiles(values) for name, values in times.items()}


def _print_layer(name: str, stats: dict) -> None:
    print(f"{name}: " + ", ".join(
        f"{key.removesuffix('_ms')} {value['median']:.2f} ms "
        f"[{value['q1']:.2f}, {value['q3']:.2f}]" for key, value in stats.items()
    ) + " (median [q1, q3])", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--out-dir", default=".", help="where to write the file")
    args = parser.parse_args(argv)

    result = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": list(SEEDS),
        "epochs_per_seed": EPOCHS,
        "configs": {},
    }
    for name, overrides in CONFIGS.items():
        result["configs"][name] = stats = measure(overrides)
        print(f"{name}: epoch {stats['epoch_s']['median']:.3f} s, "
              f"present {stats['present_ms']['median']:.2f} ms, "
              f"finish {stats['finish_ms']['median']:.2f} ms, "
              f"present peak {stats['present_peak_kib']['median']:.0f} KiB (medians), "
              f"{stats['events_per_s']:.0f} events/s", file=sys.stderr)
    result["encoding"] = encoding()
    _print_layer("encoding", result["encoding"])
    result["verify"] = verify_layer()
    _print_layer("verify", result["verify"])
    result["train_to_freeze"] = freeze = train_to_freeze()
    print(f"train to freeze, seed {FREEZE_SEED}: {freeze['wall_s']:.2f} s, "
          f"freeze epoch {freeze['freeze_epoch']}", file=sys.stderr)
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
