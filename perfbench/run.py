"""delaysnn benchmark: one workload, one process, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-default --seed 0 --seconds 35 --trace 0

Repeats whole passes of the workload (see ``workloads.py``) for
``--seconds``, at least one pass. Every pass is checked against the
reference digests in ``references.json``. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` untraced and traced passes
alternate and the metrics are the per-layer ones, plus the tracing
overhead. Scratch files, traces and results go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import delaysnn  # noqa: E402

if not Path(delaysnn.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"delaysnn imported from {delaysnn.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCES = Path(__file__).resolve().parent / "references.json"
# Inputs are drawn from ``seed % REFERENCE_SEEDS`` so that every run can be
# checked byte for byte against a reference recorded at the baseline.
REFERENCE_SEEDS = 32
# Extra set-ups before each pass, so setup_s is a median of many samples
# spread over the run.
EXTRA_SETUPS = 3

# Printed for people on every run, medians over the untraced passes; n/a
# where a workload has no such phase.
REPORTED = (
    ("setup_s", "s"), ("epoch_s", "s"), ("train_s", "s"), ("selectivity_s", "s"),
    ("run_s", "s"), ("verify_s", "s"), ("unit_s", "s"), ("peak_rss_mb", "MB"),
    ("error_rate", "ratio"),
)
# The end-to-end metrics of BENCHMARK.json, in the result line of --trace 0.
END_TO_END = (("setup_s", "s"), ("unit_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


def environment(workload: str, seed: int, input_seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "input_seed": input_seed,
        "config_sha256": workloads.config_hash(workload, input_seed),
    }


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def failed_operations(workload: str, result, reference: dict | None) -> list:
    """The operations of one pass whose digests differ from the reference."""
    return [
        op for op in workloads.WORKLOAD_OPERATIONS[workload]
        if reference is None or any(
            result.digests.get(key) != reference["digests"].get(key)
            for key in workloads.OPERATIONS[op])
    ]


def count_mismatches(counts: dict, reference: dict | None) -> list:
    """Exact counts of one traced pass that differ from the reference."""
    if reference is None:
        return []
    return [f"{name} = {counts.get(name, 0)}, reference {expected}"
            for name, expected in reference["counts"].items()
            if counts.get(name, 0) != expected]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        references: dict, workdir: Path, log=print) -> dict:
    """Run one workload; return the result object printed as the last line."""
    input_seed = seed % REFERENCE_SEEDS
    reference = references.get(workload, {}).get(str(input_seed))
    env = environment(workload, seed, input_seed)
    log(f"env {json.dumps(env, sort_keys=True)}")
    if reference is None:
        log(f"no reference for {workload} seed {input_seed}: every operation fails")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOAD_OPERATIONS[workload]

    # On a shared host each CPU slows down and speeds up on its own, for
    # stretches of seconds to tens of seconds; spreading the passes over
    # every CPU the process may use keeps one CPU's stretch from setting
    # the whole run's figures.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    tracer = tracing.Tracer()
    setups, untraced, traced, count_errors = [], [], [], []
    attempted = failed = 0
    started = perf_counter()
    index, pass_s = 0, 0.0
    # Start a pass only if it should end within --seconds, judged by the
    # previous one; run at least one (two when tracing).
    while index == 0 or (trace and index < 2) or perf_counter() - started + pass_s <= seconds:
        pass_started = perf_counter()
        if cpus:  # the next CPU in turn; an untraced and a traced pass share one
            os.sched_setaffinity(0, {cpus[(index // 2 if trace else index) % len(cpus)]})
        for _ in range(EXTRA_SETUPS):
            setup_started = perf_counter()
            workloads.setup(workload, input_seed, workdir)
            setups.append(perf_counter() - setup_started)
        traced_pass = trace and index % 2 == 1
        attempted += len(ops)
        try:
            if traced_pass:
                tracer.run_id = index
                with tracing.installed(tracer):
                    result = workloads.run_pass(workload, input_seed, workdir, tracer)
            else:
                result = workloads.run_pass(workload, input_seed, workdir)
        except Exception:  # a raising operation is a failed operation
            log(traceback.format_exc().rstrip())
            log(f"pass {index}: raised, {len(ops)} operations failed")
            failed += len(ops)
        else:
            bad = failed_operations(workload, result, reference)
            for op in bad:
                log(f"pass {index}: {op} output differs from the reference digest")
            failed += len(bad)
            if traced_pass:
                traced.append(result)
                count_errors += [f"pass {index}: {m}"
                                 for m in count_mismatches(tracer.counts[index], reference)]
            else:
                untraced.append(result)
        index += 1
        pass_s = perf_counter() - pass_started

    if cpus:
        os.sched_setaffinity(0, cpus)
    count_errors += [f"{name} differs between traced passes"
                     for name in tracing.repeat_mismatches(tracer)]
    if count_errors:  # the exact-count check is one more operation
        attempted += 1
        failed += 1
        for line in count_errors:
            log(line)

    setups += [r.setup_s for r in untraced]
    epochs = [e for r in untraced for e in r.epochs]
    phases = {name: median([r.phases[name] for r in untraced if name in r.phases])
              for name in ("train_s", "selectivity_s", "verify_s")}
    summary = {
        "setup_s": median(setups),
        "epoch_s": median(epochs),
        **phases,
        "run_s": median([r.wall_s for r in untraced]),
        # The unit of work: a training epoch, or one verify command.
        "unit_s": median(epochs) or phases["verify_s"],
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": failed / attempted,
    }
    log(f"{workload} seed {seed}: {len(untraced)} untraced and {len(traced)} traced passes, "
        f"{attempted} operations attempted, {failed} failed")
    for name, unit in REPORTED:
        value = summary[name]
        shown = "n/a" if value == 0 and name != "error_rate" else f"{value:.6g}"
        log(f"  {name:<14} {shown} {unit}")

    if trace:
        metrics = traced_metrics(tracer, traced, untraced, log)
        trace_path = workdir / "trace.json"
        trace_path.write_text(json.dumps({"env": env, **tracer.to_json()}) + "\n")
        log(f"spans written to {trace_path}")
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    outcome = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (workdir / "result.json").write_text(
        json.dumps({"env": env, "summary": summary, **outcome}, indent=2) + "\n")
    return outcome


def traced_metrics(tracer, traced: list, untraced: list, log) -> dict:
    """Per-layer metrics per traced pass, logged with the time breakdown."""
    passes = max(len(traced), 1)
    layer = tracing.layer_metrics(tracer, passes)
    overhead = (median([r.wall_s for r in traced]) - median([r.wall_s for r in untraced])
                if traced and untraced else 0.0)
    layer["trace.overhead_s"] = (overhead, "s")
    log("per-layer metrics, per traced pass:")
    for name, (value, unit) in layer.items():
        log(f"  {name:<30} {value:.6g} {unit}")
    log("where the time goes, per traced pass (self time of each span):")
    for phase, total, rows in tracing.breakdown(tracer, passes):
        log(f"  {phase:<28} {total:.6g} s")
        for name, self_s in rows:
            log(f"    {name:<34} {self_s:.6g} s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    references = load_references()
    outcomes = {}
    for name in names:
        workdir = Path.cwd() / ".perfbench" / f"{name}-{args.seed}-trace{args.trace}"
        outcomes[name] = run(name, args.seed, args.seconds, bool(args.trace),
                             references, workdir)
    if len(names) == 1:
        outcome = outcomes[names[0]]
    else:  # metric names are prefixed with their workload
        outcome = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{name}/{metric}": value for name, o in outcomes.items()
                        for metric, value in o["metrics"].items()},
        }
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
