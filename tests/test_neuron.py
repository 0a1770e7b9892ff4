"""LIF dynamics of the network engine: leak, firing, threshold adaptation, reset.

Every test runs on a 5x5 grid, which has a single output location, so
input cell (0, kx) reaches neuron (f, 0, 0) through kernel cell (0, kx)
only and a spike at t = 0 arrives at exactly that cell's delay.
"""

import math

import numpy as np
import pytest

from delaysnn.config import STREAM_NOISE, ConfigValidationError, RngStream, SimConfig
from delaysnn.dataset import Spike, Stimulus
from delaysnn.network import build_network, finish_stimulus, present_stimulus

ONE = SimConfig(noise_std=0.0, grid_height=5, grid_width=5)
DECAY = math.exp(-ONE.dt / ONE.tau_m)
N_STEPS = int(round(ONE.stimulus_window / ONE.dt))


def _net(cfg=ONE, threshold=None):
    """A network whose synapses carry no charge until a test wires them."""
    net = build_network(cfg)
    net.weights[:] = 0.0
    if threshold is not None:
        net.thresholds[:] = threshold
    return net


def _present(net, arrivals):
    """Present one t = 0 input spike per kernel column of row 0.

    ``arrivals`` maps a feature to one (weight, arrival time) pair per
    column, wired into that feature's kernel cells (0, kx).
    """
    for f, pairs in arrivals.items():
        for kx, (weight, arrival) in enumerate(pairs):
            net.weights[f, 0, kx] = weight
            net.delays[f, 0, kx] = arrival
    columns = max((len(pairs) for pairs in arrivals.values()), default=0)
    spikes = [Spike(x=kx, y=0, t=0, coherent=True) for kx in range(columns)]
    return present_stimulus(net, Stimulus(id=0, direction=45, spikes=spikes))


def _in_step(step):
    """An arrival time strictly inside integration step ``step`` (1-based)."""
    return (step - 0.5) * ONE.dt


class TestIntegrateStep:
    def test_pure_leak_one_tau(self):
        # Charge landing tau_m before the window ends leaks to 1/e.
        net = _net()
        k = int(round(ONE.tau_m / ONE.dt))
        _present(net, {0: [(1.0, _in_step(N_STEPS - k))]})
        assert net.potentials[0, 0, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_fresh_charge_lands_undecayed(self):
        net = _net()
        _present(net, {0: [(0.95, _in_step(N_STEPS))]})
        assert net.potentials[0, 0, 0] == 0.95

    def test_negative_dt_rejected(self):
        # The engine's step comes only from the config, which rejects it.
        with pytest.raises(ConfigValidationError):
            ONE.replace(dt=-0.1)

    def test_noise_is_additive(self):
        # One sample per neuron and step, added after the leak.
        cfg = ONE.replace(noise_std=0.02)
        net = _net(cfg)
        record = _present(net, {0: [(0.5, _in_step(N_STEPS - 3))]})
        assert record.feature_firings == []
        noise = RngStream(cfg.rng_seed, STREAM_NOISE).generator.normal(
            0.0, cfg.noise_std, size=(N_STEPS,) + net.potentials.shape
        )
        expected = np.zeros(net.potentials.shape)
        for step in range(1, N_STEPS + 1):
            expected *= DECAY
            expected += noise[step - 1]
            if step == N_STEPS - 3:
                expected[0, 0, 0] += 0.5
        assert (net.potentials == expected).all()

    def test_k_step_leak_matches_closed_form(self):
        # After k silent steps the potential is p0 * exp(-k*dt/tau).
        for k in (1, 7, 50, 200, 599):
            net = _net()
            _present(net, {0: [(1.0, _in_step(N_STEPS - k))]})
            expected = math.exp(-k * ONE.dt / ONE.tau_m)
            assert abs(net.potentials[0, 0, 0] - expected) < 1e-9

    def test_silent_decay_is_monotone_and_never_fires(self):
        net = _net(threshold=1.0)
        record = _present(net, {0: [(0.99, _in_step(1))]})
        assert record.feature_firings == []
        assert 0 < net.potentials[0, 0, 0] < 0.99 * DECAY ** (N_STEPS - 2)


class TestCheckFire:
    def test_boundary_counts_as_fire(self):
        net = _net(threshold=0.95)
        record = _present(net, {0: [(0.95, 10.05)]})
        assert record.feature_firings == [(0, 0, 0, 10.05)]

    def test_below_threshold_no_fire(self):
        net = _net(threshold=0.95)
        record = _present(net, {0: [(np.nextafter(0.95, 0.0), 10.05)]})
        assert record.feature_firings == []
        assert not net.fired.any()

    def test_one_spike_per_stimulus(self):
        net = _net(threshold=0.5)
        record = _present(net, {0: [(1.0, 10.05), (1.0, 20.05)]})
        assert record.feature_firings == [(0, 0, 0, 10.05)]

    def test_inhibited_never_fires(self):
        # Feature 1 wins the location first; feature 0's later
        # supra-threshold arrival is ignored.
        net = _net(threshold=0.5)
        record = _present(net, {1: [(1.0, 10.05)], 0: [(1.0, 20.05)]})
        assert record.feature_firings == [(1, 0, 0, 10.05)]
        assert net.won[0, 0] and not net.fired[0, 0, 0]

    def test_simultaneous_arrivals_from_rest_fire(self):
        # 5 arrivals of 0.95 in one step beat the default threshold; the
        # fifth one tips the neuron.
        net = _net()
        record = _present(net, {0: [(0.95, 10.05)] * 5})
        assert record.feature_firings == [(0, 0, 0, 10.05)]


class TestAdaptThreshold:
    def test_fired_moves_up(self):
        net = _net(threshold=0.5)
        finish_stimulus(net, _present(net, {0: [(1.0, 10.05)]}))
        assert net.thresholds[0, 0, 0] == pytest.approx(0.5 + ONE.threshold_adapt_up)

    def test_silent_moves_down(self):
        net = _net(ONE.replace(threshold_adapt_down=0.001))
        finish_stimulus(net, _present(net, {}))
        assert np.allclose(net.thresholds, ONE.threshold - 0.001)

    def test_floor_clamps(self):
        # Repeated silent stimuli walk the threshold down to the floor,
        # where it stays.
        cfg = ONE.replace(threshold=1.0, threshold_min=0.1, threshold_adapt_down=0.3)
        net = _net(cfg)
        for _ in range(5):
            finish_stimulus(net, _present(net, {}))
        assert (net.thresholds == 0.1).all()


class TestReset:
    def test_clears_per_stimulus_state(self):
        net = _net(threshold=0.5)
        _present(net, {0: [(1.0, 10.05)], 1: [(0.3, 10.05)]})
        assert net.fired.any() and net.won.any() and net.potentials.any()
        net.reset_neurons()
        assert not net.fired.any()
        assert not net.won.any()
        assert not net.potentials.any()

    def test_threshold_survives(self):
        net = _net(threshold=4.3)
        net.reset_neurons()
        assert (net.thresholds == 4.3).all()

    def test_idempotent(self):
        net = _net(threshold=0.5)
        _present(net, {0: [(1.0, 10.05)]})
        net.reset_neurons()
        def state():
            return [a.copy() for a in (net.potentials, net.fired, net.won)]

        before = state()
        net.reset_neurons()
        assert all((a == b).all() for a, b in zip(before, state()))
