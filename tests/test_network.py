"""Topology, arrival schedule ordering, stimulus simulation and the training loop."""

import copy
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaysnn.config import STREAM_NOISE, RngStream, SimConfig, draw_gaussian_array
from delaysnn import network
from delaysnn.dataset import Spike, Stimulus, generate_dataset
from delaysnn.network import (
    FEATURE_COUNT,
    KERNEL_SIZE,
    ActivityRecord,
    _seed_events,
    build_network,
    finish_stimulus,
    present_stimulus,
    train,
)

QUIET = SimConfig(noise_std=0.0)


def _stim(spikes, direction=45, sid=0):
    return Stimulus(id=sid, direction=direction,
                    spikes=[Spike(x=x, y=y, t=t, coherent=True) for (x, y, t) in spikes])


def _grid(cfg, cells):
    """First-spike grid of ``cfg``'s shape from a {(y, x): t} mapping."""
    times = np.full((cfg.grid_height, cfg.grid_width), np.inf)
    for (y, x), t in cells.items():
        times[y, x] = t
    return times


def _reference_schedule(net, input_times):
    """Per-cell nested-loop schedule, the oracle for ``_seed_events``.

    ``input_times`` maps (y, x) to the cell's first-spike time. Returns
    ``(arrival, (f, y, x), (iy, ix), weight)`` tuples in tuple order and
    the number of arrivals past the horizon.
    """
    horizon = net.n_steps * net.cfg.dt
    events = []
    dropped = 0
    for (iy, ix), t in input_times.items():
        ky_lo = max(0, iy - (net.out_h - 1))
        ky_hi = min(KERNEL_SIZE - 1, iy)
        kx_lo = max(0, ix - (net.out_w - 1))
        kx_hi = min(KERNEL_SIZE - 1, ix)
        for f in range(FEATURE_COUNT):
            for ky in range(ky_lo, ky_hi + 1):
                for kx in range(kx_lo, kx_hi + 1):
                    arrival = t + net.delays[f, ky, kx]
                    if arrival > horizon:
                        dropped += 1
                        continue
                    events.append(
                        (arrival, (f, iy - ky, ix - kx), (iy, ix), net.weights[f, ky, kx])
                    )
    events.sort()
    return events, dropped


def _schedule_lists(net, times):
    """``_seed_events`` with its arrays as lists, for exact comparison."""
    arrivals, targets, weights, dropped = _seed_events(net, times)
    return arrivals.tolist(), targets.tolist(), weights.tolist(), dropped


def _assert_matches_reference(net, times):
    """``_seed_events`` on ``times`` equals the oracle exactly; returns it."""
    arrivals, targets, weights, dropped = _schedule_lists(net, times)
    cells = {(int(y), int(x)): float(times[y, x])
             for y, x in zip(*np.nonzero(np.isfinite(times)))}
    events, expected_dropped = _reference_schedule(net, cells)
    assert arrivals == [arrival for arrival, _t, _s, _w in events]
    assert targets == [int(np.ravel_multi_index(target, net.potentials.shape))
                       for _a, target, _s, _w in events]
    assert weights == [weight for _a, _t, _s, weight in events]
    assert dropped == expected_dropped
    return arrivals, targets, weights, dropped


def _random_kernels(cfg, rng, coarse):
    """A network of ``cfg`` with random weights and delays.

    Coarse delays are integers which, with integer input times, force
    many tied arrivals; fine ones reach past the window.
    """
    net = build_network(cfg)
    if coarse:
        net.delays[:] = rng.integers(1, 4, size=net.delays.shape)
    else:
        net.delays[:] = rng.uniform(0.05, cfg.stimulus_window, size=net.delays.shape)
    net.weights[:] = rng.uniform(cfg.w_min, cfg.w_max, size=net.weights.shape)
    return net


def _random_spikes(cfg, rng, n_spikes):
    """(x, y, t) spikes at random cells and frames; cells may repeat."""
    return [(int(rng.integers(0, cfg.grid_width)), int(rng.integers(0, cfg.grid_height)),
             int(rng.integers(0, 5))) for _ in range(n_spikes)]


def _first_spikes(cfg, spikes):
    """The first-spike grid that ``present_stimulus`` must build from ``spikes``."""
    cells = {}
    for x, y, t in spikes:
        cells[(y, x)] = min(cells.get((y, x), np.inf), float(t))
    return _grid(cfg, cells)


def _reference_present(net, stim):
    """The list-walking step loop, the oracle for ``present_stimulus``.

    Per step: leak, noise, then each arrival of the step in schedule order
    with an immediate threshold check (firing at the arrival time), then
    a boundary scan in (f, y, x) order for crossings left by noise.
    """
    cfg = net.cfg
    times = _first_spikes(cfg, [(sp.x, sp.y, sp.t) for sp in stim.spikes])
    arrivals, targets, weights, dropped = _schedule_lists(net, times)
    record = ActivityRecord(input_times=times, dropped_events=dropped)
    noise = draw_gaussian_array(
        net.noise_stream, 0.0, cfg.noise_std, (net.n_steps,) + net.potentials.shape
    ).reshape(net.n_steps, -1)
    decay = math.exp(-cfg.dt / cfg.tau_m)
    n_loc = net.out_h * net.out_w
    pot, thr, fired, won = (
        a.reshape(-1) for a in (net.potentials, net.thresholds, net.fired, net.won)
    )

    def fire(i, loc, when):
        fired[i] = True
        won[loc] = True
        y, x = divmod(loc, net.out_w)
        record.feature_firings.append((i // n_loc, y, x, when))

    next_event = 0
    for step in range(1, net.n_steps + 1):
        t_end = step * cfg.dt
        pot *= decay
        pot += noise[step - 1]
        while next_event < len(arrivals) and arrivals[next_event] <= t_end:
            i = targets[next_event]
            pot[i] += weights[next_event]
            loc = i % n_loc
            if not won[loc] and pot[i] >= thr[i]:
                fire(i, loc, arrivals[next_event])
            next_event += 1
        crossed = (net.potentials >= net.thresholds) & ~net.won
        for i in crossed.ravel().nonzero()[0].tolist():
            loc = i % n_loc
            if not won[loc]:
                fire(i, loc, t_end)
    return record


class TestEventQueue:
    def test_pops_in_arrival_then_target_then_source_order(self):
        rng = np.random.default_rng(3)
        net = _random_kernels(QUIET, rng, coarse=True)
        times = _first_spikes(QUIET, _random_spikes(QUIET, rng, 40))
        arrivals, targets, _weights, dropped = _assert_matches_reference(net, times)
        keys = list(zip(arrivals, targets))
        assert keys == sorted(keys)
        assert len(arrivals) > len(set(arrivals))  # ties were exercised
        assert dropped == 0

    def test_rejects_arrival_before_emission(self):
        net = build_network(QUIET)
        net.delays[2, 3, 1] = -0.5
        with pytest.raises(ValueError):
            present_stimulus(net, _stim([(1, 3, 0)]))

    def test_matches_reference_with_arrivals_past_window(self):
        rng = np.random.default_rng(4)
        net = _random_kernels(QUIET, rng, coarse=False)
        times = _first_spikes(QUIET, _random_spikes(QUIET, rng, 60))
        # An arrival exactly at the horizon is kept.
        horizon = net.n_steps * QUIET.dt
        times[0, 0] = 0.0
        net.delays[0, 0, 0] = horizon
        arrivals, _targets, _weights, dropped = _assert_matches_reference(net, times)
        assert dropped > 0
        assert arrivals[-1] == horizon

    @pytest.mark.parametrize("height, width", [(7, 9), (9, 7), (5, 5)])
    def test_matches_reference_on_non_square_and_minimal_grids(self, height, width):
        cfg = QUIET.replace(grid_height=height, grid_width=width)
        for seed, coarse in ((5, True), (6, False)):
            rng = np.random.default_rng(seed)
            net = _random_kernels(cfg, rng, coarse)
            times = _first_spikes(cfg, _random_spikes(cfg, rng, 30))
            arrivals, *_ = _assert_matches_reference(net, times)
            assert arrivals


class TestBuildNetwork:
    def test_default_topology(self):
        net = build_network(QUIET)
        assert net.weights.shape == (4, 5, 5)
        assert net.delays.shape == (4, 5, 5)
        assert net.weights.size == 100  # 4 maps x 25 shared synapses
        assert (net.out_h, net.out_w) == (11, 11)
        assert net.thresholds.shape == (4, 11, 11)
        assert (net.thresholds == QUIET.threshold).all()
        assert not net.frozen

    def test_minimal_grid(self):
        cfg = QUIET.replace(grid_height=5, grid_width=5)
        net = build_network(cfg)
        assert (net.out_h, net.out_w) == (1, 1)

    def test_grid_smaller_than_kernel_rejected(self):
        with pytest.raises(ValueError):
            build_network(QUIET.replace(grid_height=4, grid_width=8))

    def test_fixed_seed_reproduces_tensors(self):
        a = build_network(QUIET)
        b = build_network(QUIET)
        assert (a.weights == b.weights).all()
        assert (a.delays == b.delays).all()

    def test_initial_bounds(self):
        net = build_network(QUIET)
        assert (net.weights >= QUIET.w_min).all() and (net.weights <= QUIET.w_max).all()
        assert (net.delays >= QUIET.freeze_c + QUIET.B_minus * QUIET.dt).all()


class TestPresentStimulus:
    def test_empty_stimulus_empty_record(self):
        net = build_network(QUIET)
        record = present_stimulus(net, _stim([]))
        assert record.feature_firings == []
        assert record.input_times.shape == (QUIET.grid_height, QUIET.grid_width)
        assert np.isinf(record.input_times).all()
        assert not net.fired.any()

    def test_full_window_fires_after_arrival(self):
        # 25 spikes at t=0 filling the window of output (0, 0); uniform
        # delays d and weights 0.95 push every map's corner neuron past
        # threshold when the arrivals land at t = d.
        net = build_network(QUIET)
        net.weights[:] = 0.95
        net.delays[:] = 50.0
        spikes = [(x, y, 0) for y in range(5) for x in range(5)]
        record = present_stimulus(net, _stim(spikes))
        fired = {(f, y, x): t for (f, y, x, t) in record.feature_firings}
        assert (0, 0, 0) in fired
        assert 50.0 <= fired[(0, 0, 0)] <= 50.0 + QUIET.dt

    def test_lateral_inhibition_single_winner_per_location(self):
        # Map 1 made faster via smaller delays: it fires first at (0, 0)
        # and must silence the other maps at that location.
        net = build_network(QUIET)
        net.weights[:] = 0.95
        net.delays[:] = 50.0
        net.delays[1] = 49.0
        spikes = [(x, y, 0) for y in range(5) for x in range(5)]
        record = present_stimulus(net, _stim(spikes))
        at_corner = [(f, t) for (f, y, x, t) in record.feature_firings if (y, x) == (0, 0)]
        assert len(at_corner) == 1
        assert at_corner[0][0] == 1
        assert net.won[0, 0]
        assert net.fired[:, 0, 0].tolist() == [False, True, False, False]

    def test_input_first_spike_coding(self):
        net = build_network(QUIET)
        record = present_stimulus(net, _stim([(2, 3, 4), (2, 3, 1), (2, 3, 2)]))
        assert np.array_equal(record.input_times, _grid(QUIET, {(3, 2): 1.0}))

    def test_out_of_grid_spike_rejected(self):
        net = build_network(QUIET)
        for spike in ((QUIET.grid_width, 0, 0), (0, -1, 0), (-1, 3, 2)):
            with pytest.raises(ValueError, match="outside"):
                present_stimulus(net, _stim([(1, 1, 0), spike]))

    @pytest.mark.parametrize("t", [math.nan, -math.inf, math.inf, -1.0])
    def test_non_finite_or_negative_spike_time_rejected(self, t):
        net = build_network(QUIET)
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            present_stimulus(net, _stim([(1, 1, 0), (2, 2, t)]))

    def test_int_spike_time_accepted(self):
        net = build_network(QUIET)
        record = present_stimulus(net, _stim([(2, 3, 4)]))
        assert record.input_times[3, 2] == 4.0

    @pytest.mark.parametrize("busy", [False, True])
    def test_draws_one_noise_value_per_neuron_and_step(self, busy):
        # The stream's consumption is independent of activity.
        cfg = SimConfig()
        net = build_network(cfg)
        if busy:
            net.thresholds[:] = 0.5
        stim = generate_dataset(cfg, 0).stimuli[0] if busy else _stim([])
        record = present_stimulus(net, stim)
        assert bool(record.feature_firings) == busy
        expected = RngStream(cfg.rng_seed, STREAM_NOISE).generator
        expected.normal(0.0, cfg.noise_std, size=net.n_steps * net.potentials.size)
        assert net.noise_stream.generator.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("grid, limit_mib", [(15, 1.0), (31, 4.0)])
    def test_traced_peak_of_one_presentation(self, grid, limit_mib):
        # The trajectory is integrated block by block: the whole
        # (steps x neurons) float64 trajectory alone would take 2.2 MiB at
        # the default grid and 13.3 MiB at 31x31.
        cfg = SimConfig(grid_height=grid, grid_width=grid)
        net = build_network(cfg)
        stim = generate_dataset(cfg, 0).stimuli[0]
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            present_stimulus(net, stim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20

    def test_beyond_window_events_dropped_and_counted(self):
        net = build_network(QUIET)
        net.delays[:] = 58.0  # t=4 spike arrives at 62 > window 60
        record = present_stimulus(net, _stim([(0, 0, 4)]))
        assert record.dropped_events == FEATURE_COUNT  # one reachable neuron per map
        assert record.feature_firings == []

    def test_tied_arrivals_applied_in_target_order(self):
        # Every map's corner neuron gets the same supra-threshold arrival
        # at the same time: the lowest feature index fires and inhibits
        # the rest.
        net = build_network(QUIET)
        net.weights[:] = 1.0
        net.delays[:] = 10.05
        net.thresholds[:] = 1.0
        record = present_stimulus(net, _stim([(0, 0, 0)]))
        assert record.feature_firings == [(0, 0, 0, 10.05)]
        assert net.won[0, 0]
        assert net.fired[:, 0, 0].tolist() == [True, False, False, False]

    def test_leak_between_arrivals_prevents_crossing(self):
        # Two arrivals of half the threshold at the corner neuron fire it
        # when they land in one step; 20 time units apart, the first has
        # leaked by exp(-200*dt/tau_m) and the sum stays below threshold.
        for second_arrival, firings in ((10.05, [(0, 0, 0, 10.05)]), (30.05, [])):
            net = build_network(QUIET)
            net.weights[:] = 0.0
            net.weights[0, 0, :2] = 0.5
            net.delays[0, 0, :2] = (10.05, second_arrival)
            net.thresholds[:] = 1.0
            record = present_stimulus(net, _stim([(0, 0, 0), (1, 0, 0)]))
            assert record.feature_firings == firings

    def test_arrival_firings_precede_boundary_firings_of_their_step(self):
        # Neuron (0, 5, 5) gets no input and a threshold at the peak of
        # its noise-only trajectory, so it fires at that step's end. An
        # arrival inside the same step tips neuron (3, 0, 0): it fires
        # first although its flat id is the higher one.
        cfg = SimConfig()
        net = build_network(cfg)
        noise = RngStream(cfg.rng_seed, STREAM_NOISE).generator.normal(
            0.0, cfg.noise_std, size=(net.n_steps,) + net.potentials.shape)
        decay = math.exp(-cfg.dt / cfg.tau_m)
        walk = [0.0]
        for value in noise[:, 0, 5, 5]:
            walk.append(walk[-1] * decay + value)
        step = int(np.argmax(walk))
        net.thresholds[:] = 100.0
        net.thresholds[0, 5, 5] = walk[step]
        net.thresholds[3, 0, 0] = 0.5
        net.weights[:] = 0.0
        net.weights[3, 0, 0] = 1.0
        net.delays[:] = (step - 0.5) * cfg.dt
        ref = copy.deepcopy(net)
        record = present_stimulus(net, _stim([(0, 0, 0)]))
        assert record.feature_firings == [(3, 0, 0, (step - 0.5) * cfg.dt),
                                          (0, 5, 5, step * cfg.dt)]
        assert repr(record.feature_firings) == repr(
            _reference_present(ref, _stim([(0, 0, 0)])).feature_firings)

    def test_rejects_negative_weight(self):
        net = build_network(QUIET)
        net.weights[1, 2, 0] = -0.1
        with pytest.raises(ValueError, match="weights must be >= 0"):
            present_stimulus(net, _stim([(0, 2, 0)]))

    @pytest.mark.parametrize("overrides", [
        {},
        {"threshold": 1.0, "r_target": 25.0, "B_minus": 0.05, "B_plus": 0.05,
         "sigma_minus": 0.5, "sigma_plus": 0.5},
    ])
    def test_matches_reference_while_training(self, overrides):
        # Default and dense configs, learning between stimuli: the
        # engine and the step loop see the same kernels and thresholds.
        cfg = SimConfig(**overrides)
        net = build_network(cfg)
        ref = copy.deepcopy(net)
        for stim in generate_dataset(cfg, 3).stimuli[:6]:
            record = present_stimulus(net, stim)
            expected = _reference_present(ref, stim)
            assert repr(record.feature_firings) == repr(expected.feature_firings)
            assert net.potentials.tobytes() == ref.potentials.tobytes()
            finish_stimulus(net, record)
            finish_stimulus(ref, expected)
            assert net.weights.tobytes() == ref.weights.tobytes()
            assert net.thresholds.tobytes() == ref.thresholds.tobytes()

    def test_requires_reset_neurons(self):
        net = build_network(QUIET)
        net.fired[0, 0, 0] = True
        with pytest.raises(ValueError):
            present_stimulus(net, _stim([]))

    def test_at_most_one_spike_per_neuron(self):
        cfg = SimConfig()  # noise on
        net = build_network(cfg)
        ds = generate_dataset(cfg, 5)
        for stim in ds.stimuli[:10]:
            record = present_stimulus(net, stim)
            seen = [(f, y, x) for (f, y, x, _t) in record.feature_firings]
            assert len(seen) == len(set(seen))
            finish_stimulus(net, record)

    def test_record_conserves_every_fire(self):
        cfg = SimConfig()
        net = build_network(cfg)
        ds = generate_dataset(cfg, 7)
        for stim in ds.stimuli[:10]:
            record = present_stimulus(net, stim)
            recorded = {(f, y, x) for (f, y, x, _t) in record.feature_firings}
            fired = {tuple(int(v) for v in idx) for idx in zip(*np.nonzero(net.fired))}
            assert recorded == fired
            assert len(record.feature_firings) == len(recorded)
            finish_stimulus(net, record)

    def test_at_most_one_feature_per_location(self):
        cfg = SimConfig()
        net = build_network(cfg)
        ds = generate_dataset(cfg, 6)
        for stim in ds.stimuli[:10]:
            record = present_stimulus(net, stim)
            locations = [(y, x) for (_f, y, x, _t) in record.feature_firings]
            assert len(locations) == len(set(locations))
            finish_stimulus(net, record)

    def test_simultaneous_noise_crossings_one_winner_per_location(self):
        # Near-zero thresholds: noise alone carries several features of a
        # location across in the same step, and the lowest index wins.
        tiny = 1e-9
        net = build_network(SimConfig())
        net.thresholds[:] = tiny
        record = present_stimulus(net, _stim([]))
        locations = [(y, x) for (_f, y, x, _t) in record.feature_firings]
        assert len(locations) == len(set(locations)) == net.out_h * net.out_w
        first_step = RngStream(net.cfg.rng_seed, STREAM_NOISE).generator.normal(
            0.0, net.cfg.noise_std, size=net.potentials.shape)
        for f, y, x, t in record.feature_firings:
            if t == net.cfg.dt:
                assert f == int(np.argmax(first_step[:, y, x] >= tiny))


class TestFinishStimulus:
    def test_silent_stimulus_runs_homeostasis_growth_adaptation(self):
        cfg = QUIET.replace(lambda_w=0.01, lambda_d=0.1, r_target=1.0,
                            threshold_adapt_down=0.001)
        net = build_network(cfg)
        w0 = net.weights.copy()
        d0 = net.delays.copy()
        t0 = net.thresholds.copy()
        record = present_stimulus(net, _stim([]))
        finish_stimulus(net, record)
        # EMA stays 0 for a silent map, so K = 1 everywhere.
        growth = cfg.growth_factor * cfg.stimulus_window
        assert np.allclose(net.delays, d0 - cfg.lambda_d + growth)
        assert np.allclose(net.weights, np.clip(w0 + cfg.lambda_w, 0, 1))
        assert np.allclose(net.thresholds, t0 - cfg.threshold_adapt_down)
        assert not net.fired.any() and not net.won.any()
        assert (net.potentials == 0).all()

    def test_freeze_detected_and_permanent(self):
        net = build_network(QUIET)
        net.delays[2, 1, 1] = 0.0005
        record = present_stimulus(net, _stim([]))
        report = finish_stimulus(net, record)
        assert 2 in report.newly_frozen and net.frozen == {2}
        frozen_delays = net.delays[2].copy()
        record = present_stimulus(net, _stim([]))
        report = finish_stimulus(net, record)
        assert (net.delays[2] == frozen_delays).all()
        assert 2 not in report.newly_frozen and net.frozen == {2}

    def test_threshold_adaptation_splits_by_firing(self):
        net = build_network(QUIET)
        net.weights[:] = 0.95
        net.delays[:] = 50.0
        spikes = [(x, y, 0) for y in range(5) for x in range(5)]
        record = present_stimulus(net, _stim(spikes))
        fired_mask = net.fired.copy()
        assert fired_mask.any()
        finish_stimulus(net, record)
        up = QUIET.threshold + QUIET.threshold_adapt_up
        down = QUIET.threshold - QUIET.threshold_adapt_down
        assert np.allclose(net.thresholds[fired_mask], up)
        assert np.allclose(net.thresholds[~fired_mask], down)


class TestTrain:
    def test_zero_epochs_rejected(self):
        cfg = QUIET
        net = build_network(cfg)
        ds = generate_dataset(cfg, 1)
        with pytest.raises(ValueError):
            train(net, ds, 0)

    def test_empty_stimuli_run_to_max_epochs(self):
        from delaysnn.dataset import Dataset

        net = build_network(QUIET)
        ds = Dataset(grid_height=15, grid_width=15,
                     stimuli=[Stimulus(id=i, direction=45, spikes=[]) for i in range(5)])
        summary = train(net, ds, 3)
        assert summary.epochs_run == 3
        assert summary.freeze_epochs == [None] * FEATURE_COUNT
        assert summary.stimuli_presented == 15

    def test_early_stop_when_all_frozen(self):
        from delaysnn.dataset import Dataset

        net = build_network(QUIET)
        net.delays[:, 0, 0] = 0.0005  # every feature freezes on stimulus 1
        ds = Dataset(grid_height=15, grid_width=15,
                     stimuli=[Stimulus(id=0, direction=45, spikes=[])])
        summary = train(net, ds, 10)
        assert summary.epochs_run == 1
        assert summary.freeze_epochs == [1, 1, 1, 1]

    def test_epoch_callback(self):
        from delaysnn.dataset import Dataset

        net = build_network(QUIET)
        ds = Dataset(grid_height=15, grid_width=15,
                     stimuli=[Stimulus(id=0, direction=45, spikes=[])])
        seen = []
        net.delays[:, 0, 0] = 0.0005
        train(net, ds, 2, on_epoch_end=lambda epoch, _n: seen.append(epoch))
        assert seen == [1]

    def test_summary_serialization_roundtrip(self):
        net = build_network(QUIET)
        net.delays[:, 0, 0] = 0.0005
        ds = generate_dataset(QUIET, 4)
        summary = train(net, ds, 2)
        data = json.loads(summary.to_json())
        assert data["epochs_run"] == summary.epochs_run
        assert np.allclose(np.array(data["weights"]), net.weights)
        assert np.allclose(np.array(data["delays"]), net.delays)


class TestDeterminism:
    def test_identical_runs_byte_identical_summaries(self):
        cfg = SimConfig(grid_height=9, grid_width=9, stimulus_window=56.0)
        outs = []
        for _ in range(2):
            ds = generate_dataset(cfg, cfg.rng_seed)
            net = build_network(cfg)
            summary = train(net, ds, 2)
            outs.append(summary.to_json())
        assert outs[0] == outs[1]

    def test_shared_kernel_coherence(self):
        # Updates touch the one shared tensor per feature: simulating any
        # stimulus leaves exactly 4 kernels, and every window reads them.
        cfg = SimConfig()
        net = build_network(cfg)
        ds = generate_dataset(cfg, 8)
        for stim in ds.stimuli[:5]:
            finish_stimulus(net, present_stimulus(net, stim))
        assert net.weights.shape == (FEATURE_COUNT, KERNEL_SIZE, KERNEL_SIZE)
        assert net.delays.shape == (FEATURE_COUNT, KERNEL_SIZE, KERNEL_SIZE)


@st.composite
def _cases(draw):
    """A random grid, kernel set, threshold map and stimulus, not yet presented.

    A short window keeps each example fast. Coarse delays force tied
    arrivals, some exactly at a step's end. Noise on some examples makes
    crossings at step boundaries, several per location and step when the
    thresholds are tiny; large noise also makes noise-only crossings
    before the first arrival and in the same step as arrival crossings.
    """
    cfg = SimConfig(grid_height=draw(st.integers(5, 9)), grid_width=draw(st.integers(5, 9)),
                    noise_std=draw(st.sampled_from([0.0, 0.05, 1.0])), delay_init_mean=10.0,
                    stimulus_window=15.0, rng_seed=draw(st.integers(0, 999)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = _random_kernels(cfg, rng, coarse=draw(st.booleans()))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    net.thresholds[:] = scale * rng.uniform(0.5, 3.0, size=net.thresholds.shape)
    return net, _random_spikes(cfg, rng, draw(st.integers(0, 40)))


def _presentations():
    """``_cases`` presented once: (net, spikes, record)."""
    return _cases().map(lambda case: (*case, present_stimulus(case[0], _stim(case[1]))))


PROPERTY = settings(max_examples=100, deadline=None)


class TestProperties:
    @PROPERTY
    @given(_presentations())
    def test_one_spike_per_neuron(self, case):
        net, _spikes, record = case
        neurons = [(f, y, x) for (f, y, x, _t) in record.feature_firings]
        assert len(neurons) == len(set(neurons))
        assert set(neurons) == {tuple(int(v) for v in idx) for idx in zip(*np.nonzero(net.fired))}

    @PROPERTY
    @given(_presentations())
    def test_one_winner_per_location(self, case):
        net, _spikes, record = case
        locations = [(y, x) for (_f, y, x, _t) in record.feature_firings]
        assert len(locations) == len(set(locations))
        assert set(locations) == {(int(y), int(x)) for y, x in zip(*np.nonzero(net.won))}

    @PROPERTY
    @given(_presentations())
    def test_firing_time_is_an_arrival_or_a_step_boundary(self, case):
        net, _spikes, record = case
        arrivals, targets, _weights, _dropped = _schedule_lists(net, record.input_times)
        boundaries = {step * net.cfg.dt for step in range(1, net.n_steps + 1)}
        for f, y, x, t in record.feature_firings:
            flat = int(np.ravel_multi_index((f, y, x), net.potentials.shape))
            reaching = {a for a, target in zip(arrivals, targets) if target == flat}
            assert t in reaching or t in boundaries

    @PROPERTY
    @given(_presentations())
    def test_schedule_matches_reference(self, case):
        net, spikes, record = case
        assert np.array_equal(record.input_times, _first_spikes(net.cfg, spikes))
        _assert_matches_reference(net, record.input_times)

    @PROPERTY
    @given(_cases())
    def test_matches_step_loop_reference(self, case):
        net, spikes = case
        ref = copy.deepcopy(net)
        # A second stimulus continues the noise stream from the first.
        for stim in (_stim(spikes), _stim(spikes[::2])):
            record = present_stimulus(net, stim)
            expected = _reference_present(ref, stim)
            # repr: the same firings, in the same order, as the same Python types.
            assert repr(record.feature_firings) == repr(expected.feature_firings)
            assert record.dropped_events == expected.dropped_events
            assert net.potentials.tobytes() == ref.potentials.tobytes()
            assert np.array_equal(net.fired, ref.fired)
            assert np.array_equal(net.won, ref.won)
            net.reset_neurons()
            ref.reset_neurons()

    @PROPERTY
    @given(_cases(), st.integers(1, 40))
    def test_block_size_does_not_change_the_result(self, case, block_steps):
        # Blocks of a few steps put block boundaries inside the window, so
        # a location's first crossing must carry over from block to block.
        net, spikes = case
        ref = copy.deepcopy(net)
        budget = block_steps * 8 * net.potentials.size
        with mock.patch.object(network, "BLOCK_BYTES", budget):
            for stim in (_stim(spikes), _stim(spikes[::2])):
                record = present_stimulus(net, stim)
                expected = _reference_present(ref, stim)
                assert repr(record.feature_firings) == repr(expected.feature_firings)
                assert net.potentials.tobytes() == ref.potentials.tobytes()
                assert np.array_equal(net.won, ref.won)
                net.reset_neurons()
                ref.reset_neurons()
