"""Topology, arrival schedule ordering, stimulus simulation and the training loop."""

import json

import numpy as np
import pytest

from delaysnn.config import SimConfig
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


class TestEventQueue:
    def test_pops_in_arrival_then_target_then_source_order(self):
        net = build_network(QUIET)
        rng = np.random.default_rng(3)
        # Coarse delays and input times force many tied arrivals.
        net.delays[:] = rng.integers(1, 4, size=net.delays.shape)
        input_times = {
            (int(y), int(x)): float(rng.integers(0, 3))
            for y, x in rng.integers(0, QUIET.grid_height, size=(40, 2))
        }
        events, dropped = _seed_events(net, input_times)
        keys = [(arrival, target, source) for arrival, target, source, _w in events]
        assert keys == sorted(keys)
        assert len({(target, source) for _a, target, source in keys}) == len(keys)
        assert dropped == 0

    def test_rejects_arrival_before_emission(self):
        net = build_network(QUIET)
        net.delays[2, 3, 1] = -0.5
        with pytest.raises(ValueError):
            present_stimulus(net, _stim([(1, 3, 0)]))


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
        assert record.input_times == {}
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
        assert net.inhibited[0, 0, 0] and net.inhibited[2, 0, 0] and net.inhibited[3, 0, 0]
        assert not net.inhibited[1, 0, 0]

    def test_input_first_spike_coding(self):
        net = build_network(QUIET)
        record = present_stimulus(net, _stim([(2, 3, 4), (2, 3, 1), (2, 3, 2)]))
        assert record.input_times == {(3, 2): 1.0}

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
        assert net.inhibited[1:, 0, 0].all()

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
        assert not net.fired.any() and not net.inhibited.any()
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
