"""Fixed-point oracle, convergence suite, selectivity and snapshots."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaysnn.analysis import (
    FAIL,
    PASS,
    SKIP,
    TRAJECTORY_BYTES,
    ConvergenceScenario,
    convergence_trajectories,
    export_snapshot,
    iterations_to_tolerance,
    lag_fixed_point_step,
    measure_selectivity,
    premises,
    random_scenario,
    run_convergence_suite,
    run_property_checks,
    trajectory_batches,
)
from delaysnn import plasticity
from delaysnn.cli import main
from delaysnn.config import STREAM_VERIFY, RngStream, SimConfig
from delaysnn.dataset import Dataset, Spike, Stimulus
from delaysnn.network import build_network


class TestLagFixedPointStep:
    def test_zero_is_fixed(self):
        assert lag_fixed_point_step(0.0, 0.5, 2.0) == 0.0

    def test_closed_form_value(self):
        got = lag_fixed_point_step(3.0, 0.5, 2.0)
        assert got == pytest.approx(2.611565080074215, abs=1e-14)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lag_fixed_point_step(-1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            lag_fixed_point_step(1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            lag_fixed_point_step(1.0, 3.0, 2.0)  # contraction premise

    def test_contracts_into_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            sigma = float(rng.uniform(0.1, 5.0))
            b = sigma * float(rng.uniform(0.01, 1.0))
            lag = float(rng.uniform(0.0, 100.0))
            nxt = lag_fixed_point_step(lag, b, sigma)
            assert 0.0 <= nxt <= lag

    def test_iteration_count_oracle(self):
        assert iterations_to_tolerance(3.0, 0.5, 2.0) == 32
        lag, count = 3.0, 0
        seen = [lag]
        while lag >= 1e-3:
            lag = lag_fixed_point_step(lag, 0.5, 2.0)
            seen.append(lag)
            count += 1
        assert count == 32
        assert all(a > b for a, b in zip(seen, seen[1:]))  # strictly decreasing

    def test_already_converged_needs_zero_steps(self):
        assert iterations_to_tolerance(1e-4, 0.5, 2.0) == 0


# The rule parameters the scenarios below were written against.
RULE = SimConfig(B_minus=0.5, B_plus=0.5, sigma_minus=2.0, sigma_plus=2.0)


def _reference_suite(sc):
    """Independent scalar rerun of a scenario: the suite's trajectory and
    check statuses from running per-repetition maxima, with the delay rule
    written out inline instead of called. ``rows[k]`` lists the arrival
    times after ``k`` repetitions."""
    b_minus, b_plus = sc.rule.B_minus, sc.rule.B_plus
    s_minus, s_plus = sc.rule.sigma_minus, sc.rule.sigma_plus
    slack = 64.0 * np.finfo(float).eps * max(
        1.0, *map(abs, sc.pre_times), *map(abs, sc.initial_delays))
    arrivals = [float(t) + float(d) for t, d in zip(sc.pre_times, sc.initial_delays)]
    first_post = max(arrivals) if sc.post_time is None else sc.post_time
    contributing = [i for i, a in enumerate(arrivals) if a <= first_post]
    late = [i for i, a in enumerate(arrivals) if a > first_post]
    post = max(arrivals[i] for i in contributing)
    last = max(contributing, key=lambda i: arrivals[i])
    initial_lags = {i: post - a for i, a in enumerate(arrivals)}
    rep_of = {i: (0 if initial_lags[i] < 1e-3 else None) for i in contributing}
    firing_times = [post]
    rows = [arrivals]
    dip = last_err = shift = rise = late_err = 0.0
    late_step = -math.inf
    for rep in range(1, sc.repetitions + 1):
        lags = [post - a for a in arrivals]
        arrivals = [a - b_minus * math.exp(-lag / s_minus) if lag >= 0
                    else a + b_plus * math.exp(lag / s_plus)
                    for a, lag in zip(arrivals, lags)]
        new_post = max(arrivals[i] for i in contributing)
        shift = max(shift, abs(new_post - post + b_minus))
        for i in contributing:
            new_lag = new_post - arrivals[i]
            dip, rise = max(dip, -new_lag), max(rise, new_lag - lags[i])
            if rep_of[i] is None and new_lag < 1e-3:
                rep_of[i] = rep
        last_err = max(last_err, abs(new_post - arrivals[last]))
        for i in late:
            step = new_post - arrivals[i] - lags[i]
            late_err = max(late_err, abs(step + b_minus + b_plus * math.exp(lags[i] / s_plus)))
            late_step = max(late_step, step)
        post = new_post
        firing_times.append(post)
        rows.append(arrivals)
    final_lags = {i: post - a for i, a in enumerate(arrivals)}
    needed = max(iterations_to_tolerance(initial_lags[i], b_minus, s_minus)
                 for i in contributing)
    oks = {
        "contributing_lags_stay_nonnegative": dip <= slack,
        "last_arrival_stays_last": last_err <= slack,
        "firing_time_shift": shift <= 1e-9,
        "lags_nonincreasing": rise <= slack,
        "lags_converge": None not in rep_of.values() or sc.repetitions < needed,
    }
    if late:
        oks["late_arrivals_pushed_later"] = late_err <= 1e-9 and late_step < 0
    statuses = {name: PASS if ok else FAIL for name, ok in oks.items()}
    return firing_times, initial_lags, final_lags, rep_of, statuses, rows


class TestConvergenceSuite:
    def test_single_neuron_is_its_own_last(self):
        sc = ConvergenceScenario(pre_times=[1.0], initial_delays=[7.0],
                                 rule=RULE, repetitions=50)
        report = run_convergence_suite(sc)
        assert report.firing_times[0] == 8.0
        shifts = np.diff(report.firing_times)
        assert np.allclose(shifts, -0.5, atol=1e-12)
        assert report.final_lags[0] == 0.0
        assert all(r.status == PASS for r in report.checks.values())

    def test_three_neurons_converge(self):
        sc = ConvergenceScenario(pre_times=[0.0, 1.0, 3.0],
                                 initial_delays=[10.0, 10.0, 10.0],
                                 rule=RULE, repetitions=200)
        report = run_convergence_suite(sc)
        assert all(r.status == PASS for r in report.checks.values())
        assert max(abs(report.final_lags[i]) for i in report.contributing) < 1e-3
        assert all(report.convergence_rep[i] is not None for i in report.contributing)

    def test_observed_convergence_matches_oracle(self):
        sc = ConvergenceScenario(pre_times=[0.0, 1.0, 3.0],
                                 initial_delays=[10.0, 10.0, 10.0],
                                 rule=RULE, repetitions=200)
        report = run_convergence_suite(sc)
        for i in report.contributing:
            predicted = iterations_to_tolerance(report.initial_lags[i], 0.5, 2.0)
            assert abs(report.convergence_rep[i] - predicted) <= 1

    def test_late_arrival_closed_form(self):
        # One arrival past the firing time: after one repetition its lag
        # moves by exactly -B_minus - B_plus * exp(lag / sigma_plus).
        sc = ConvergenceScenario(pre_times=[0.0, 2.0], initial_delays=[5.0, 10.0],
                                 rule=RULE, repetitions=1, post_time=5.0)
        report = run_convergence_suite(sc)
        assert report.noncontributing == [1]
        lag0 = -7.0
        expected = lag0 - 0.5 - 0.5 * math.exp(lag0 / 2.0)
        assert report.final_lags[1] == pytest.approx(expected, abs=1e-12)
        assert report.checks["late_arrivals_pushed_later"].status == PASS

    def test_premise_unmet_is_skipped_not_failed(self):
        sc = ConvergenceScenario(pre_times=[0.0, 1.0], initial_delays=[10.0, 10.0],
                                 rule=RULE.replace(B_minus=5.0, sigma_minus=0.001),
                                 repetitions=20)
        report = run_convergence_suite(sc)
        assert not report.premise_met
        assert all(r.status == SKIP for r in report.checks.values())

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ConvergenceScenario(pre_times=[], initial_delays=[], rule=RULE)
        with pytest.raises(ValueError):
            ConvergenceScenario(pre_times=[0.0], initial_delays=[0.0], rule=RULE)
        with pytest.raises(ValueError):
            ConvergenceScenario(pre_times=[0.0], initial_delays=[1.0], rule=RULE,
                                repetitions=0)
        with pytest.raises(ValueError):
            ConvergenceScenario(pre_times=[0.0, 1.0], initial_delays=[1.0], rule=RULE)

    def test_random_scenarios_all_pass(self):
        rng = np.random.default_rng(11)
        for index in range(30):
            sc = random_scenario(rng, repetitions=500, with_late=index % 3 == 0)
            report = run_convergence_suite(sc)
            assert report.premise_met
            failed = [n for n, r in report.checks.items() if r.status == FAIL]
            assert not failed, failed

    @pytest.mark.parametrize("with_late", [False, True])
    def test_matches_scalar_reference(self, with_late):
        rng = np.random.default_rng(31 + with_late)
        for _ in range(200):
            sc = random_scenario(rng, repetitions=int(rng.integers(1, 300)),
                                 with_late=with_late)
            report = run_convergence_suite(sc)
            firing_times, initial_lags, final_lags, rep_of, statuses, _ = _reference_suite(sc)
            assert report.firing_times == firing_times
            assert report.initial_lags == initial_lags
            assert report.final_lags == final_lags
            assert report.convergence_rep == rep_of
            assert {n: r.status for n, r in report.checks.items()} == statuses

    def test_mis_scaled_rule_fails_verify(self, tmp_path, monkeypatch, capsys):
        # The suite must run the shipped rule: a 1% error in its causal
        # branch breaks the exact -B_minus firing shift.
        rule = plasticity.delay_delta_d

        def scaled(delta_t, cfg):
            delta = rule(delta_t, cfg)
            return np.where(np.asarray(delta_t) >= 0, 1.01 * delta, delta)

        monkeypatch.setattr(plasticity, "delay_delta_d", scaled)
        assert main(["verify", "--scenarios", "10", "--out", str(tmp_path / "v")]) == 1
        assert "FAIL" in capsys.readouterr().out


# (stream seed, repetitions, with_late) per scenario of a batch.
_SCENARIO_LISTS = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 120), st.booleans()),
    min_size=1, max_size=8,
)


class TestConvergenceTrajectories:
    @settings(max_examples=60, deadline=None)
    @given(_SCENARIO_LISTS)
    def test_batch_slice_equals_lone_run_and_reference(self, specs):
        # Scenarios of mixed lengths share one batch: each one's slice is
        # the same bytes as its batch of one and as the scalar rerun.
        batch = [random_scenario(np.random.default_rng(seed), repetitions=reps,
                                 with_late=with_late)
                 for seed, reps, with_late in specs]
        for sc, (firing, rows) in zip(batch, convergence_trajectories(batch)):
            [(lone_firing, lone_rows)] = convergence_trajectories([sc])
            firing_times, *_, reference_rows = _reference_suite(sc)
            assert firing.shape == (sc.repetitions + 1,)
            assert rows.shape == (sc.repetitions + 1, len(sc.pre_times))
            assert firing.tobytes() == lone_firing.tobytes()
            assert rows.tobytes() == lone_rows.tobytes()
            assert firing.tobytes() == np.array(firing_times).tobytes()
            assert rows.tobytes() == np.array(reference_rows).tobytes()

    def test_suite_on_batch_trajectory_equals_lone_suite(self):
        rng = np.random.default_rng(3)
        batch = [random_scenario(rng, with_late=index % 2 == 1) for index in range(12)]
        for sc, trajectory in zip(batch, convergence_trajectories(batch)):
            assert run_convergence_suite(sc, trajectory=trajectory) == run_convergence_suite(sc)

    def test_batches_respect_byte_budget(self):
        rng = np.random.default_rng(4)
        scenarios = [random_scenario(rng, with_late=index % 2 == 1) for index in range(200)]
        batches = list(trajectory_batches(iter(scenarios)))
        assert [sc for batch in batches for sc in batch] == scenarios
        assert len(batches) > 1
        for batch in batches:
            rows = max(sc.repetitions for sc in batch) + 1
            columns = sum(len(sc.pre_times) for sc in batch)
            assert 8 * rows * columns <= TRAJECTORY_BYTES

    def test_default_verify_is_one_batch(self):
        # ``delaysnn verify``'s 100 default scenarios, drawn as it draws
        # them, share one repetition loop.
        for seed in [*range(32), 42]:
            rng = RngStream(seed, STREAM_VERIFY).generator
            scenarios = (random_scenario(rng, with_late=index % 2 == 1)
                         for index in range(100))
            assert [len(batch) for batch in trajectory_batches(scenarios)] == [100], seed

    def test_oversized_scenario_gets_its_own_batch(self):
        rng = np.random.default_rng(5)
        small = random_scenario(rng, repetitions=10)
        big = random_scenario(rng, repetitions=TRAJECTORY_BYTES // 8)
        assert list(trajectory_batches([small, big, small])) == [[small], [big], [small]]


# perfbench's train-dense overrides: premise-valid delay rule, dense firing.
DENSE = dict(threshold=1.0, r_target=25.0, B_minus=0.05, B_plus=0.05,
             sigma_minus=0.5, sigma_plus=0.5)


class TestPremises:
    @staticmethod
    def _holds(cfg):
        report = premises(cfg)
        assert list(report) == ["contraction", "freeze", "rate"]
        return [p["holds"] for p in report.values()]

    def test_defaults(self):
        assert self._holds(SimConfig()) == [False, False, True]
        report = premises(SimConfig())
        assert (report["contraction"]["lhs"], report["contraction"]["rhs"]) == (5.0, 0.001)
        # 0.0001 / (0.0001 + 0.05) per neuron over the 11x11 feature map.
        assert report["rate"]["lhs"] == pytest.approx(0.2415, abs=1e-4)
        assert report["rate"]["rhs"] == 0.3

    def test_dense_config(self):
        assert self._holds(SimConfig(**DENSE)) == [True, False, False]
        assert premises(SimConfig(**DENSE))["rate"]["lhs"] == pytest.approx(0.2415, abs=1e-4)

    def test_freeze_premise_needs_large_c(self):
        assert not premises(SimConfig(freeze_c=5.0))["freeze"]["holds"]
        assert premises(SimConfig(freeze_c=6.0))["freeze"]["holds"]

    def test_rate_premise_within_factor(self):
        # An equilibrium of 0.2415 spikes per map is within 2x of an
        # r_target from about 0.121 to 0.483.
        assert self._holds(SimConfig(r_target=0.48))[2]
        assert not self._holds(SimConfig(r_target=0.49))[2]
        assert self._holds(SimConfig(r_target=0.121))[2]
        assert not self._holds(SimConfig(r_target=0.12))[2]

    def test_no_threshold_adaptation_has_no_rate_conflict(self):
        report = premises(SimConfig(threshold_adapt_up=0.0, threshold_adapt_down=0.0))
        assert report["rate"]["lhs"] is None and report["rate"]["holds"]


class TestPropertyChecks:
    def test_all_rows_pass_at_defaults(self):
        rows = run_property_checks(123, SimConfig(), samples=2000)
        assert rows
        assert all(status == PASS for _name, status, _detail in rows)


def _ideal_plus45_network():
    cfg = SimConfig(grid_height=9, grid_width=9, noise_std=0.0)
    net = build_network(cfg)
    net.weights[:] = 0.95
    net.delays[:] = 50.0
    for t in range(5):
        net.delays[0, t, t] = 50.0 - t  # anti-aligned to a +45 traversal
    net.thresholds[0] = 4.5
    net.thresholds[1:] = 99.0
    return cfg, net


def _single_dot_stimuli():
    # One dot per direction, each crossing the window of output (2, 2).
    paths = {
        45: [(2 + t, 2 + t) for t in range(5)],
        -135: [(6 - t, 6 - t) for t in range(5)],
        135: [(6 - t, 2 + t) for t in range(5)],
        -45: [(2 + t, 6 - t) for t in range(5)],
    }
    stimuli = [
        Stimulus(id=i, direction=d,
                 spikes=[Spike(x=x, y=y, t=t, coherent=True)
                         for t, (x, y) in enumerate(paths[d])])
        for i, d in enumerate([45, -45, 135, -135])
    ]
    return Dataset(grid_height=9, grid_width=9, stimuli=stimuli)


class TestMeasureSelectivity:
    def test_silent_network_zero_matrix(self):
        cfg = SimConfig(noise_std=0.0)
        net = build_network(cfg)
        net.thresholds[:] = 1e9
        ds = _single_dot_stimuli()
        ds = Dataset(grid_height=15, grid_width=15, stimuli=ds.stimuli)
        sel = measure_selectivity(net, ds)
        assert (sel.counts == 0).all()
        assert sel.preferred == [None] * 4
        assert sel.bijective is False

    def test_ideal_kernel_prefers_plus45(self):
        cfg, net = _ideal_plus45_network()
        sel = measure_selectivity(net, _single_dot_stimuli())
        assert sel.preferred[0] == 45
        assert sel.counts[0].tolist() == [1, 0, 0, 0]

    def test_measurement_mutates_no_parameters(self):
        cfg, net = _ideal_plus45_network()
        weights = net.weights.copy()
        delays = net.delays.copy()
        thresholds = net.thresholds.copy()
        measure_selectivity(net, _single_dot_stimuli())
        assert (net.weights == weights).all()
        assert (net.delays == delays).all()
        assert (net.thresholds == thresholds).all()
        assert net.frozen == set()


class TestSnapshots:
    def test_numeric_round_trip_exact(self, tmp_path):
        net = build_network(SimConfig())
        path = tmp_path / "snap.json"
        export_snapshot(net, path, "numeric")
        features = json.loads(path.read_text())["features"]
        assert (np.array([f["weights"] for f in features]) == net.weights).all()
        assert (np.array([f["delays"] for f in features]) == net.delays).all()

    def test_numeric_is_deterministic(self, tmp_path):
        net = build_network(SimConfig())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        export_snapshot(net, a, "numeric")
        export_snapshot(net, b, "numeric")
        assert a.read_bytes() == b.read_bytes()

    def test_svg_uniform_delays_equal_radii(self, tmp_path):
        net = build_network(SimConfig())
        net.delays[:] = 50.0
        path = tmp_path / "snap.svg"
        export_snapshot(net, path, "svg")
        radii = set(re.findall(r'r="([0-9.]+)"', path.read_text()))
        assert len(radii) == 1

    def test_svg_extreme_cell_is_largest_and_darkest(self, tmp_path):
        net = build_network(SimConfig())
        net.weights[:] = 0.5
        net.delays[:] = 50.0
        net.weights[2, 3, 4] = net.cfg.w_max
        net.delays[2, 3, 4] = 10.0
        path = tmp_path / "snap.svg"
        export_snapshot(net, path, "svg")
        circles = re.findall(r'<circle[^>]*r="([0-9.]+)" fill="rgb\((\d+)', path.read_text())
        assert len(circles) == 100  # 4 features x 25 kernel cells
        radii = [float(r) for r, _g in circles]
        grays = [int(g) for _r, g in circles]
        assert max(radii) == radii[np.argmin(grays)]
        assert min(grays) == 0

    def test_unknown_format_rejected(self, tmp_path):
        net = build_network(SimConfig())
        with pytest.raises(ValueError):
            export_snapshot(net, tmp_path / "x", "png")

    def test_svg_has_one_group_per_feature(self, tmp_path):
        net = build_network(SimConfig())
        path = tmp_path / "snap.svg"
        export_snapshot(net, path, "svg")
        text = path.read_text()
        assert all(f'id="feature-{f}"' in text for f in range(4))
