"""Self-test of the benchmark: metric names and units, and a check that fails.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload, trace", [
    ("verify", 0),
    ("verify", 1),
    ("train-dense", 1),
])
def test_tiny_run_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    text, result = _bench(tmp_path, "--workload", workload, "--seed", "1",
                          "--seconds", "0", "--trace", str(trace))
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    printed = "\n".join(text)
    for name, unit in run.REPORTED:
        assert f"{name} " in printed and printed.count(f" {unit}") > 0
    for m in expected:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(f" {m['unit']}")
                   for line in text), m["name"]


def test_wrong_reference_digest_counts_as_error(tmp_path):
    references = run.load_references()
    outcome = run.run("verify", 1, 0, False, references, tmp_path, log=lambda _: None)
    assert outcome["correct"] and outcome["failed"] == 0

    entry = references["verify"]["1"]
    entry["digests"] = {**entry["digests"], "verify_report": "0" * 64}
    lines = []
    outcome = run.run("verify", 1, 0, False, references, tmp_path, log=lines.append)
    assert not outcome["correct"]
    assert outcome["failed"] / outcome["attempted"] > 0
    assert any("differs from the reference digest" in line for line in lines)
