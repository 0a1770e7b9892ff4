"""Command-line driver: artifacts, manifests, exit codes, determinism."""

import hashlib
import json
import tracemalloc

import pytest

from delaysnn.cli import main
from delaysnn.config import SimConfig, config_to_text


@pytest.fixture
def toy_config(tmp_path):
    # Small, fast and freeze-prone: short window, tiny grid.
    cfg = SimConfig(grid_height=7, grid_width=7, delay_init_mean=10.0,
                    stimulus_window=15.0, rng_seed=5)
    path = tmp_path / "toy.cfg"
    path.write_text(config_to_text(cfg))
    return path


def _holds(manifest: dict) -> list:
    """The premise verdicts in a manifest: contraction, freeze, rate."""
    premises = manifest["premises"]
    assert list(premises) == ["contraction", "freeze", "rate"]
    assert all(set(p) == {"rule", "lhs", "rhs", "holds"} for p in premises.values())
    return [p["holds"] for p in premises.values()]


class TestGenData:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "dots.mdots"
        assert main(["gen-data", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("mdots v1 ")
        assert sum(1 for line in text.splitlines() if line.startswith("S ")) == 100
        manifest = json.loads((tmp_path / "dots.mdots.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["config"]["threshold"] == 4.15
        assert _holds(manifest) == [False, False, True]

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.mdots", tmp_path / "b.mdots"
        assert main(["gen-data", "--out", str(a), "--seed", "3"]) == 0
        assert main(["gen-data", "--out", str(b), "--seed", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_fails(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / "nested" / "dots.mdots"  # parent is a file
        assert main(["gen-data", "--out", str(out)]) == 1

    @pytest.mark.parametrize("line", ["tau_m = inf", "stimulus_window = inf",
                                      "threshold = nan"])
    def test_non_finite_config_fails(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(line + "\n")
        out = tmp_path / "dots.mdots"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be finite" in err
        assert not out.exists()
        assert not (tmp_path / "dots.mdots.manifest.json").exists()

    def test_manifest_records_parsed_argv(self, tmp_path):
        out = tmp_path / "dots.mdots"
        argv = ["gen-data", "--out", str(out), "--seed", "7"]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "dots.mdots.manifest.json").read_text())
        assert manifest["argv"] == argv

    @pytest.mark.parametrize("seed", ["-1", "-18446744073709551615"])
    def test_negative_seed_fails(self, tmp_path, capsys, seed):
        out = tmp_path / "dots.mdots"
        assert main(["gen-data", "--out", str(out), "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "rng_seed: must be >= 0" in err
        assert not out.exists()

    def test_duplicate_config_key_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "dup.cfg"
        cfg_path.write_text("threshold = 1\nthreshold = 4\n")
        out = tmp_path / "dots.mdots"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "line 2: duplicate key 'threshold'" in err
        assert not out.exists()

    def test_manifest_config_reproduces_dataset(self, tmp_path):
        first = tmp_path / "first.mdots"
        assert main(["gen-data", "--out", str(first), "--seed", "9"]) == 0
        manifest = json.loads((tmp_path / "first.mdots.manifest.json").read_text())
        cfg = SimConfig(**manifest["config"])
        cfg_path = tmp_path / "replay.cfg"
        cfg_path.write_text(config_to_text(cfg))
        second = tmp_path / "second.mdots"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestTrainCommand:
    def test_toy_run_writes_artifacts(self, tmp_path, toy_config):
        data = tmp_path / "toy.mdots"
        assert main(["gen-data", "--config", str(toy_config), "--out", str(data)]) == 0
        out_dir = tmp_path / "run"
        assert main([
            "train", "--config", str(toy_config), "--dataset", str(data),
            "--out", str(out_dir), "--max-epochs", "2",
        ]) == 0
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "snapshot.json").exists()
        assert (out_dir / "snapshot.svg").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["epochs_run"] >= 1
        # A 3x3 feature map settles near 0.018 spikes, far below r_target.
        assert _holds(manifest) == [False, False, False]

    def test_snapshot_every_epoch(self, tmp_path, toy_config):
        data = tmp_path / "toy.mdots"
        main(["gen-data", "--config", str(toy_config), "--out", str(data)])
        out_dir = tmp_path / "run"
        assert main([
            "train", "--config", str(toy_config), "--dataset", str(data),
            "--out", str(out_dir), "--max-epochs", "2", "--snapshot-every", "1",
        ]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        for epoch in range(1, summary["epochs_run"] + 1):
            assert (out_dir / f"snapshot_epoch_{epoch:04d}.json").exists()
            assert (out_dir / f"snapshot_epoch_{epoch:04d}.svg").exists()

    def test_deterministic_outputs(self, tmp_path, toy_config):
        data = tmp_path / "toy.mdots"
        main(["gen-data", "--config", str(toy_config), "--out", str(data)])
        outputs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            assert main([
                "train", "--config", str(toy_config), "--dataset", str(data),
                "--out", str(out_dir), "--max-epochs", "2",
            ]) == 0
            outputs.append((
                (out_dir / "summary.json").read_bytes(),
                (out_dir / "snapshot.json").read_bytes(),
            ))
        assert outputs[0] == outputs[1]

    def test_missing_dataset_fails(self, tmp_path):
        assert main(["train", "--dataset", str(tmp_path / "nope.mdots"),
                     "--out", str(tmp_path / "run")]) == 1

    def test_grid_mismatch_fails(self, tmp_path, toy_config):
        data = tmp_path / "default_grid.mdots"
        main(["gen-data", "--out", str(data)])  # 15x15 dataset
        assert main(["train", "--config", str(toy_config), "--dataset", str(data),
                     "--out", str(tmp_path / "run")]) == 1

    def test_negative_snapshot_every_fails(self, tmp_path, toy_config, capsys):
        data = tmp_path / "toy.mdots"
        main(["gen-data", "--config", str(toy_config), "--out", str(data)])
        capsys.readouterr()
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(toy_config), "--dataset", str(data),
                     "--out", str(out_dir), "--max-epochs", "1",
                     "--snapshot-every", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--snapshot-every" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("body, line_no", [
        ("S 0 dir=7\n0 0 0 1", 2),
        ("S 0 dir=45\n99 -3 3 1", 3),
        ("S 0 dir=45\n0 0 5 1", 3),
        ("S 0 dir=45\n1_0 2 1 1", 3),
    ], ids=["direction", "cell", "frame", "non-decimal"])
    def test_out_of_range_dataset_fails(self, tmp_path, capsys, body, line_no):
        data = tmp_path / "bad.mdots"
        data.write_text(f"mdots v1 grid=15x15 stimuli=1\n{body}\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--dataset", str(data), "--out", str(out_dir),
                     "--max-epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"line {line_no}:" in err
        assert not out_dir.exists()

    def test_negative_w_min_config_fails(self, tmp_path, capsys):
        data = tmp_path / "dots.mdots"
        assert main(["gen-data", "--out", str(data)]) == 0
        capsys.readouterr()
        cfg_path = tmp_path / "inhibitory.cfg"
        cfg_path.write_text("w_min = -0.1\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data),
                     "--out", str(out_dir), "--max-epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "w_min: must be >= 0" in err
        assert not out_dir.exists()

    def test_unallocatable_config_fails(self, tmp_path, capsys):
        # A step count this large asks for hundreds of TiB, which no host
        # grants, so nothing is ever allocated.
        data = tmp_path / "dots.mdots"
        assert main(["gen-data", "--out", str(data)]) == 0
        capsys.readouterr()
        cfg_path = tmp_path / "tiny_dt.cfg"
        cfg_path.write_text("dt = 1e-12\n")
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data),
                     "--out", str(tmp_path / "run"), "--max-epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Unable to allocate" in err

    def test_bad_max_epochs_fails(self, tmp_path, toy_config, capsys):
        data = tmp_path / "toy.mdots"
        main(["gen-data", "--config", str(toy_config), "--out", str(data)])
        capsys.readouterr()
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(toy_config), "--dataset", str(data),
                     "--out", str(out_dir), "--max-epochs", "0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--max-epochs" in err
        assert not out_dir.exists()


class TestVerifyCommand:
    def test_default_parameters_pass(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(["verify", "--out", str(out), "--scenarios", "20", "--seed", "4"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "PASS" in stdout
        # The configured Table-style parameters break the contraction
        # premise, so the config scenario is reported skipped, not failed.
        assert "configured_parameter_scenario" in stdout
        assert "SKIP" in stdout
        assert (out / "report.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["all_passed"] is True
        assert _holds(manifest) == [False, False, True]

    def test_report_text_is_deterministic(self, tmp_path, capsys):
        texts = []
        for name in ("v1", "v2"):
            assert main(["verify", "--out", str(tmp_path / name),
                         "--scenarios", "15", "--seed", "8"]) == 0
            texts.append((tmp_path / name / "report.txt").read_text())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("seed, digest", [
        ("0", "16b5932d494ab02c431dd94d4c39528a4056542e29349e97e3ab2a75dc547335"),
        ("1", "bc6e0e5309f6022a1ec45efd7c0b3c8c630dbafd1ddca9bb642633f778086fb2"),
    ])
    def test_report_bytes_are_pinned(self, tmp_path, capsys, seed, digest):
        out = tmp_path / "v"
        assert main(["verify", "--out", str(out), "--scenarios", "100", "--seed", seed]) == 0
        assert hashlib.sha256((out / "report.txt").read_bytes()).hexdigest() == digest

    def test_memory_does_not_grow_with_scenarios(self, tmp_path, capsys):
        # Scenarios are checked a bounded batch at a time: four times as
        # many may raise the peak of traced allocations by 10% at most.
        # Both counts span at least one full batch (100 scenarios fit in
        # one). The first call pays one-off allocations, so it is not
        # measured.
        main(["verify", "--out", str(tmp_path / "warm"), "--scenarios", "1"])
        peaks = {}
        for count in (200, 800):
            tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                assert main(["verify", "--out", str(tmp_path / str(count)),
                             "--scenarios", str(count)]) == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[800] <= 1.1 * peaks[200], peaks

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_non_positive_scenarios_fail(self, tmp_path, capsys, count):
        out = tmp_path / "v"
        assert main(["verify", "--out", str(out), "--scenarios", count]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--scenarios" in captured.err
        assert not out.exists()

    def test_negative_seed_fails(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["verify", "--out", str(out), "--scenarios", "1", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "rng_seed" in captured.err
        assert not out.exists()

    def test_manifest_premises_follow_config(self, tmp_path):
        # A config that breaks only the contraction premise still
        # verifies; the manifest says which premise it breaks.
        cfg_path = tmp_path / "freeze.cfg"
        cfg_path.write_text("freeze_c = 6.0\n")
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out),
                     "--scenarios", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert _holds(manifest) == [False, True, True]
        assert manifest["premises"]["freeze"]["lhs"] == 6.0
        assert "strict_freeze" not in manifest["config"]

    def test_strict_freeze_key_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "old.cfg"
        cfg_path.write_text("strict_freeze = true\nfreeze_c = 6.0\n")
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: unknown key 'strict_freeze'\n"
        assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["verify", "--bogus"], "unrecognized arguments: --bogus"),
        (["verify", "--scenarios", "abc"], "argument --scenarios: invalid int value: 'abc'"),
        (["train", "--out", "run"], "the following arguments are required: --dataset"),
        (["verify", "--strict-freeze"], "unrecognized arguments: --strict-freeze"),
    ], ids=["unknown-flag", "non-integer", "missing-dataset", "removed-flag"])
    def test_one_line_exit_1(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-h"])
        assert exc.value.code == 0
        assert "--scenarios" in capsys.readouterr().out
