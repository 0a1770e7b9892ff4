"""Delivery criteria, one test per criterion, at their stated tolerances.

Each test prints a single pass/fail line (visible with -s, or on failure)
in addition to asserting.
"""

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from delaysnn.analysis import (
    PASS,
    ConvergenceScenario,
    iterations_to_tolerance,
    measure_selectivity,
    random_scenario,
    run_convergence_suite,
)
from delaysnn.cli import main
from delaysnn.config import SimConfig
from delaysnn.dataset import (
    _DIAGONAL_STEP,
    DIRECTIONS,
    build_stimulus,
    generate_dataset,
)
from delaysnn.network import FEATURE_COUNT, build_network, finish_stimulus, present_stimulus, train

EPS = float(np.finfo(float).eps)


def _line(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")


@pytest.fixture(scope="module")
def contributing_reports():
    """100 random premise-valid scenarios, run long enough for both the
    500-repetition checks and the oracle-predicted convergence window."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(100):
        sc = random_scenario(rng, repetitions=500)
        arrivals = [t + d for t, d in zip(sc.pre_times, sc.initial_delays)]
        post = max(arrivals)
        needed = max(
            iterations_to_tolerance(post - a, sc.rule.B_minus, sc.rule.sigma_minus)
            for a in arrivals
        )
        sc.repetitions = max(500, needed + 2)
        out.append((sc, run_convergence_suite(sc)))
    return out


@pytest.fixture(scope="module")
def late_reports():
    rng = np.random.default_rng(515)
    out = []
    for _ in range(50):
        sc = random_scenario(rng, repetitions=200, with_late=True)
        out.append((sc, run_convergence_suite(sc)))
    return out


class TestCriterion1:
    def test_delay_shrink_bounded_by_lag(self):
        """10^4 samples of B(1 - exp(-lag/sigma)) <= lag, 8 eps, under 1 s."""
        rng = np.random.default_rng(42)
        n = 10_000
        started = time.perf_counter()
        sigma = rng.uniform(1e-3, 10.0, size=n)
        b = sigma * rng.uniform(1e-9, 1.0, size=n)
        lag = rng.uniform(0.0, 100.0, size=n)
        shrink = b - b * np.exp(-lag / sigma)
        excess = shrink - lag - 8 * EPS * np.maximum(1.0, lag)
        elapsed = time.perf_counter() - started
        ok = bool((excess <= 0).all()) and elapsed < 1.0
        _line("criterion 1: delay shrink bounded by lag",
              ok, f"max excess {float(excess.max()):.2e}, {elapsed*1e3:.0f} ms")
        assert (excess <= 0).all()
        assert elapsed < 1.0


class TestCriterion2:
    def test_firing_time_shifts_by_minus_b(self, contributing_reports):
        """Unfrozen, zero growth: every repetition shifts t_post by -B_minus."""
        worst = 0.0
        for sc, report in contributing_reports:
            shifts = np.diff(report.firing_times)
            worst = max(worst, float(np.max(np.abs(shifts + sc.rule.B_minus))))
        ok = worst <= 1e-9
        _line("criterion 2: firing time shift is exactly -B_minus", ok,
              f"max error {worst:.2e}")
        assert worst <= 1e-9


class TestCriterion3:
    def test_lags_nonincreasing_and_nonnegative(self, contributing_reports):
        """Across at least 500 repetitions in 100 random scenarios."""
        bad = [
            name
            for _sc, report in contributing_reports
            for name in ("contributing_lags_stay_nonnegative", "lags_nonincreasing")
            if report.checks[name].status != PASS
        ]
        _line("criterion 3: contributing lags monotone and nonnegative",
              not bad, f"{len(contributing_reports)} scenarios")
        assert not bad


class TestCriterion4:
    def test_convergence_within_oracle_prediction(self, contributing_reports):
        """Observed first repetition under 1e-3 matches the recurrence
        oracle's predicted iteration count within +-1."""
        checked = 0
        for sc, report in contributing_reports:
            for i in report.contributing:
                predicted = iterations_to_tolerance(
                    report.initial_lags[i], sc.rule.B_minus, sc.rule.sigma_minus
                )
                observed = report.convergence_rep[i]
                assert observed is not None, (sc, i)
                assert abs(observed - predicted) <= 1, (predicted, observed)
                checked += 1
        _line("criterion 4: convergence matches the recurrence oracle",
              True, f"{checked} lag trajectories")


class TestCriterion5:
    def test_late_arrivals_strictly_repelled(self, late_reports):
        """Negative lags fall by exactly -B_minus - B_plus*exp(lag/sigma_plus)."""
        bad = [
            report.checks["late_arrivals_pushed_later"].detail
            for _sc, report in late_reports
            if report.checks["late_arrivals_pushed_later"].status != PASS
        ]
        _line("criterion 5: late arrivals strictly repelled", not bad,
              f"{len(late_reports)} scenarios")
        assert not bad


class TestCriterion6:
    def test_full_run_safety_invariants(self):
        """Delays positive, weights in bounds, frozen set monotone, one
        spike per neuron and one winner per location, every stimulus."""
        cfg = SimConfig(rng_seed=0)
        ds = generate_dataset(cfg, 0)
        net = build_network(cfg)
        frozen_before: set = set()
        stimuli_checked = 0
        for _epoch in range(100):
            for stim in ds.stimuli:
                record = present_stimulus(net, stim)
                neurons = [(f, y, x) for (f, y, x, _t) in record.feature_firings]
                assert len(neurons) == len(set(neurons))
                locations = [(y, x) for (_f, y, x) in neurons]
                assert len(locations) == len(set(locations))
                finish_stimulus(net, record)
                assert (net.delays > 0).all()
                assert (net.weights >= cfg.w_min).all()
                assert (net.weights <= cfg.w_max).all()
                assert net.frozen >= frozen_before
                frozen_before = set(net.frozen)
                stimuli_checked += 1
            if len(net.frozen) == FEATURE_COUNT:
                break
        _line("criterion 6: training safety invariants", True,
              f"{stimuli_checked} stimulus boundaries")


def _e2e_run(seed: int) -> dict:
    cfg = SimConfig(rng_seed=seed)
    ds = generate_dataset(cfg, seed)
    net = build_network(cfg)
    started = time.perf_counter()
    summary = train(net, ds, 100)
    elapsed = time.perf_counter() - started
    sel = measure_selectivity(net, ds)
    return {
        "seed": seed,
        "epochs": summary.epochs_run,
        "all_frozen": all(e is not None for e in summary.freeze_epochs),
        "bijective": sel.bijective,
        "preferred": sel.preferred,
        "elapsed": elapsed,
    }


class TestCriterion7:
    def test_end_to_end_experiment(self):
        """Default config, 10 seeds: (a) every feature freezes within 100
        epochs, (b) feature-direction preferences form a bijection in at
        least 8 seeds, (c) each run stays under 5 minutes."""
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(_e2e_run, range(10)))
        for r in results:
            print(f"  seed {r['seed']}: epochs={r['epochs']} frozen={r['all_frozen']} "
                  f"bijective={r['bijective']} preferred={r['preferred']} "
                  f"{r['elapsed']:.0f}s")
        freeze_ok = all(r["all_frozen"] and r["epochs"] <= 100 for r in results)
        bijective_count = sum(1 for r in results if r["bijective"])
        runtime_ok = all(r["elapsed"] < 300.0 for r in results)
        _line("criterion 7a: all features freeze within 100 epochs", freeze_ok)
        _line("criterion 7b: bijective selectivity in >= 8/10 seeds",
              bijective_count >= 8, f"{bijective_count}/10")
        _line("criterion 7c: under 5 minutes per seed", runtime_ok,
              f"max {max(r['elapsed'] for r in results):.0f}s")
        assert freeze_ok
        assert runtime_ok
        assert bijective_count >= 8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hand_built_kernels_reach_bijection(self, seed):
        """Ceiling check for 7b: with kernels that already hold each
        direction's delay ramp, the engine and the measurement give a
        bijective selectivity at the default threshold. So a 7b failure
        lies in learning, not in the engine or the measurement."""
        cfg = SimConfig(rng_seed=seed)
        ds = generate_dataset(cfg, seed)
        net = build_network(cfg)
        net.weights[:] = 0.0
        for f, direction in enumerate(DIRECTIONS):
            dx, dy = _DIAGONAL_STEP[direction]
            for j in range(-2, 3):
                # Cells later along the motion get shorter delays, so the
                # five arrivals of a dot moving in ``direction`` coincide.
                net.weights[f, 2 + dy * j, 2 + dx * j] = 1.0
                net.delays[f, 2 + dy * j, 2 + dx * j] = 50.0 - j
        sel = measure_selectivity(net, ds)
        own = sel.counts.diagonal()
        others = sel.counts[~np.eye(FEATURE_COUNT, dtype=bool)]
        _line(f"criterion 7b ceiling, seed {seed}", sel.bijective,
              f"preferred {sel.preferred}, own {own.tolist()}, max other {others.max()}")
        assert sel.bijective
        assert sel.preferred == list(DIRECTIONS)
        assert (own >= 23).all()
        assert (others <= 12).all()


class TestCriterion8:
    def test_byte_identical_reruns(self, tmp_path):
        """Same config and seed: identical dataset files, training
        summaries and numeric snapshots, byte for byte."""
        artifacts = []
        for name in ("run1", "run2"):
            base = tmp_path / name
            data = base / "dots.mdots"
            assert main(["gen-data", "--out", str(data), "--seed", "123"]) == 0
            out = base / "train"
            assert main([
                "train", "--dataset", str(data), "--out", str(out),
                "--seed", "123", "--max-epochs", "3",
            ]) == 0
            artifacts.append((
                data.read_bytes(),
                (out / "summary.json").read_bytes(),
                (out / "snapshot.json").read_bytes(),
            ))
        ok = artifacts[0] == artifacts[1]
        _line("criterion 8: byte-identical deterministic reruns", ok)
        assert ok


class TestCriterion9:
    def test_dataset_statistics(self):
        """100 stimuli, 10 dots each, times in 0..4, 5 coherent dots on
        parallel diagonals, exactly 25 stimuli per direction."""
        cfg = SimConfig()
        ds = generate_dataset(cfg, 42)
        assert len(ds.stimuli) == 100

        hist = Counter(stim.direction for stim in ds.stimuli)
        assert [hist[d] for d in DIRECTIONS] == [25, 25, 25, 25]

        step = {45: (1, 1), -45: (1, -1), 135: (-1, 1), -135: (-1, -1)}
        w, h = cfg.grid_width, cfg.grid_height
        for stim in ds.stimuli:
            assert all(sp.t in (0, 1, 2, 3, 4) for sp in stim.spikes)
            dx, dy = step[stim.direction]
            coherent = [sp for sp in stim.spikes if sp.coherent]
            anchors = {((sp.x - sp.t * dx) % w, (sp.y - sp.t * dy) % h) for sp in coherent}
            assert 1 <= len(anchors) <= 5
            cells = {(sp.x, sp.y, sp.t) for sp in stim.spikes}
            for (ax, ay) in anchors:
                for t in range(5):
                    assert ((ax + t * dx) % w, (ay + t * dy) % h, t) in cells

        # Dot-level composition, checked at the generator seam.
        rng = np.random.default_rng(0)
        for sid, direction in enumerate((45, -45, 135, -135)):
            _stim, dots, trajectories = build_stimulus(rng, sid, direction, (w, h))
            assert len(dots) == 10
            assert sum(1 for d in dots if d.direction != "random") == 5
            assert sum(1 for d in dots if d.direction == "random") == 5
            assert all(0.5 <= d.speed <= 2.0 for d in dots if d.direction == "random")
            assert sum(len(path) for path, _coh in trajectories) == 50

        _line("criterion 9: dataset statistics", True)
