"""Command-line driver: dataset generation, training, rule verification.

Every command loads one config (file plus flag overrides), runs one
single-threaded job and writes a manifest capturing the exact config,
seed and artifact paths needed to reproduce the outputs bit for bit.
Logs go to stderr; data only to files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import analysis, dataset, network
from .config import STREAM_VERIFY, ConfigError, RngStream, SimConfig, load_config


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _resolve_config(args) -> SimConfig:
    cfg = load_config(args.config) if args.config else SimConfig()
    return cfg if args.seed is None else cfg.replace(rng_seed=args.seed)


def _write_manifest(path: Path, command: str, args, cfg: SimConfig,
                    artifacts: dict, started: float, extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "argv": args.argv,
        "seed": cfg.rng_seed,
        "config": cfg.as_dict(),
        "premises": analysis.premises(cfg),
        "artifacts": {name: str(p) for name, p in artifacts.items()},
        "duration_seconds": time.perf_counter() - started,
    }
    if extra:
        manifest.update(extra)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_gen_data(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_config(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds = dataset.generate_dataset(cfg, cfg.rng_seed)
    dataset.write_dataset(ds, out)
    _log(f"wrote {len(ds.stimuli)} stimuli to {out}")
    _write_manifest(
        Path(f"{out}.manifest.json"), "gen-data", args, cfg,
        {"dataset": out}, started,
    )
    return 0


def cmd_train(args) -> int:
    started = time.perf_counter()
    if args.snapshot_every < 0:
        raise ValueError(f"--snapshot-every must be >= 0, got {args.snapshot_every}")
    if args.max_epochs < 1:
        raise ValueError(f"--max-epochs must be >= 1, got {args.max_epochs}")
    cfg = _resolve_config(args)
    ds = dataset.read_dataset(args.dataset)
    if not ds.stimuli:
        raise ValueError(f"dataset {args.dataset} holds no stimuli")
    if (ds.grid_height, ds.grid_width) != (cfg.grid_height, cfg.grid_width):
        raise ValueError(
            f"dataset grid {ds.grid_height}x{ds.grid_width} does not match "
            f"config grid {cfg.grid_height}x{cfg.grid_width}"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    net = network.build_network(cfg)
    artifacts: dict = {}

    def on_epoch_end(epoch: int, net_: network.Network) -> None:
        if args.snapshot_every and epoch % args.snapshot_every == 0:
            for fmt, suffix in (("numeric", "json"), ("svg", "svg")):
                path = out_dir / f"snapshot_epoch_{epoch:04d}.{suffix}"
                analysis.export_snapshot(net_, path, fmt)
                artifacts[f"snapshot_epoch_{epoch:04d}.{suffix}"] = path
        _log(f"epoch {epoch}: frozen features {sorted(net_.frozen)}")

    summary = network.train(net, ds, args.max_epochs, on_epoch_end=on_epoch_end)

    summary_path = out_dir / "summary.json"
    summary.save(summary_path)
    artifacts["summary"] = summary_path
    for fmt, suffix in (("numeric", "json"), ("svg", "svg")):
        path = out_dir / f"snapshot.{suffix}"
        analysis.export_snapshot(net, path, fmt)
        artifacts[f"snapshot.{suffix}"] = path

    _log(
        f"trained {summary.epochs_run} epochs, "
        f"freeze epochs {summary.freeze_epochs}"
    )
    _write_manifest(
        out_dir / "manifest.json", "train", args, cfg, artifacts, started,
        extra={
            "epochs_run": summary.epochs_run,
            "freeze_epochs": summary.freeze_epochs,
        },
    )
    return 0


def _format_report(rows) -> str:
    name_width = max(len(name) for name, _, _ in rows)
    lines = [f"{name.ljust(name_width)}  {status.upper():5s}  {detail}"
             for name, status, detail in rows]
    return "\n".join(lines)


def cmd_verify(args) -> int:
    started = time.perf_counter()
    if args.scenarios < 1:
        raise ValueError(f"--scenarios must be >= 1, got {args.scenarios}")
    cfg = _resolve_config(args)
    rows = list(analysis.run_property_checks(cfg.rng_seed, cfg))

    rng = RngStream(cfg.rng_seed, STREAM_VERIFY).generator
    tallies: dict = {}
    for index in range(args.scenarios):
        scenario = analysis.random_scenario(rng, with_late=index % 2 == 1)
        report = analysis.run_convergence_suite(scenario)
        for name, result in report.checks.items():
            tallies.setdefault(name, []).append(result.status)
    for name, statuses in sorted(tallies.items()):
        failed = statuses.count(analysis.FAIL)
        status = analysis.FAIL if failed else analysis.PASS
        rows.append((name, status, f"{len(statuses)} scenarios, {failed} failed"))

    # The configured rule parameters themselves: checked only when they
    # satisfy the contraction premise, otherwise reported as skipped.
    config_scenario = analysis.ConvergenceScenario(
        pre_times=[0.0, 1.0, 3.0],
        initial_delays=[10.0, 10.0, 10.0],
        rule=cfg,
        repetitions=200,
    )
    config_report = analysis.run_convergence_suite(config_scenario)
    if config_report.premise_met:
        status = analysis.PASS if config_report.all_passed() else analysis.FAIL
        detail = "configured parameters"
    else:
        status = analysis.SKIP
        detail = "configured parameters: premise 0 < B- <= sigma- unmet"
    rows.append(("configured_parameter_scenario", status, detail))

    text = _format_report(rows)
    print(text)
    all_passed = all(status != analysis.FAIL for _, status, _ in rows)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.txt"
    report_path.write_text(text + "\n")
    _write_manifest(
        out_dir / "manifest.json", "verify", args, cfg,
        {"report": report_path}, started,
        extra={"all_passed": all_passed, "scenarios": args.scenarios},
    )
    return 0 if all_passed else 1


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so ``main`` reports it in one line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="delaysnn",
        description="Spiking-network simulator with unsupervised synaptic delay learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file (key = value lines)")
        p.add_argument("--seed", type=int, help="override the config rng_seed")

    p_gen = sub.add_parser("gen-data", help="generate a moving-dots dataset")
    common(p_gen)
    p_gen.add_argument("--out", required=True, help="dataset file to write")
    p_gen.set_defaults(func=cmd_gen_data)

    p_train = sub.add_parser("train", help="train a network on a dataset")
    common(p_train)
    p_train.add_argument("--dataset", required=True, help="dataset file")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--max-epochs", type=int, default=100, dest="max_epochs")
    p_train.add_argument("--snapshot-every", type=int, default=0, dest="snapshot_every",
                         help="write snapshots every N epochs (0 = only final)")
    p_train.set_defaults(func=cmd_train)

    p_verify = sub.add_parser("verify", help="check the delay-rule convergence properties")
    common(p_verify)
    p_verify.add_argument("--out", default="verify_run", help="report/manifest directory")
    p_verify.add_argument("--scenarios", type=int, default=100,
                          help="number of randomized scenarios")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        args.argv = argv
        return args.func(args)
    except (ConfigError, dataset.DatasetFormatError, ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
