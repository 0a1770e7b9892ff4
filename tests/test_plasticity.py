"""Pair rules, homeostasis, freeze and growth, with closed-form oracles."""

import math

import numpy as np
import pytest

from delaysnn.config import SimConfig
from delaysnn.network import ActivityRecord
from delaysnn.plasticity import (
    DELAY_FLOOR,
    apply_growth,
    apply_homeostasis,
    apply_pair_updates,
    check_freeze,
    delay_delta_d,
    homeostasis_factor,
    stdp_delta_w,
)

CFG = SimConfig()


class TestStdpDeltaW:
    def test_zero_lag_full_potentiation(self):
        assert stdp_delta_w(0.0, CFG) == 5.0

    def test_large_lag_vanishes(self):
        assert 0.0 <= stdp_delta_w(1e6, CFG) < 1e-12

    def test_depression_closed_form(self):
        # -A_minus * exp(delta_t / tau_minus) at delta_t = -tau_minus.
        got = stdp_delta_w(-0.0001, CFG)
        assert got == pytest.approx(-1.8393972058572117, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for lag in rng.uniform(-1.0, 1.0, size=1000):
            dw = stdp_delta_w(float(lag), CFG)
            assert -CFG.A_minus < dw <= CFG.A_plus


class TestDelayDeltaD:
    def test_zero_lag_full_shrink(self):
        assert delay_delta_d(0.0, CFG) == -5.0

    def test_very_late_vanishes(self):
        assert 0.0 < delay_delta_d(-1e6, CFG) or delay_delta_d(-1e6, CFG) == 0.0

    def test_shrink_closed_form(self):
        cfg = CFG.replace(B_minus=1.0, sigma_minus=1.0)
        got = delay_delta_d(2.0, cfg)
        assert got == pytest.approx(-0.1353352832366127, abs=1e-15)

    def test_branch_ranges(self):
        # Late-branch positivity is checked at lags within a few time
        # constants; far beyond that exp() underflows to an exact 0.
        cfg = CFG.replace(sigma_plus=1.0, sigma_minus=1.0)
        rng = np.random.default_rng(1)
        for lag in rng.uniform(0.0, 10.0, size=1000):
            assert -cfg.B_minus <= delay_delta_d(float(lag), cfg) <= 0.0
        for lag in rng.uniform(-10.0, -1e-9, size=1000):
            assert 0.0 < delay_delta_d(float(lag), cfg) < cfg.B_plus

    def test_updates_oppose_weights(self):
        cfg = CFG.replace(tau_plus=0.5, tau_minus=0.5, sigma_plus=0.5, sigma_minus=0.5)
        rng = np.random.default_rng(2)
        for lag in rng.uniform(-3.0, 3.0, size=2000):
            assert stdp_delta_w(float(lag), cfg) * delay_delta_d(float(lag), cfg) <= 0.0


def _record(grid=15, input_times=None, firings=None):
    """A record on a square grid; ``input_times`` maps (y, x) to a time."""
    times = np.full((grid, grid), np.inf)
    for (y, x), t in (input_times or {}).items():
        times[y, x] = t
    return ActivityRecord(input_times=times, feature_firings=firings or [])


def _kernels(n_features=4, k=5, weight=0.5, delay=10.0):
    weights = np.full((n_features, k, k), weight)
    delays = np.full((n_features, k, k), delay)
    return weights, delays


def _reference_pair_sums(record, delays, cfg):
    """Per-firing, per-cell loop, the oracle for ``apply_pair_updates``'s batch.

    Returns the summed weight and delay deltas and the pair counts per
    kernel cell, accumulated in (firing, ky, kx) order.
    """
    n_features, k, _ = delays.shape
    dw_sum, dd_sum = np.zeros(delays.shape), np.zeros(delays.shape)
    counts = np.zeros(delays.shape, dtype=np.int64)
    for (f, y, x, t_post) in record.feature_firings:
        lags = t_post - record.input_times[y:y + k, x:x + k] - delays[f]
        for ky, kx in zip(*np.nonzero(np.isfinite(lags))):
            dw_sum[f, ky, kx] += stdp_delta_w(lags[ky, kx], cfg)
            dd_sum[f, ky, kx] += delay_delta_d(lags[ky, kx], cfg)
            counts[f, ky, kx] += 1
    return dw_sum, dd_sum, counts


class TestApplyPairUpdates:
    def test_silent_pre_no_update(self):
        weights, delays = _kernels()
        record = _record(firings=[(0, 0, 0, 12.0)])
        report = apply_pair_updates(record, weights, delays, set(), CFG)
        assert report.pair_count == 0
        assert (weights == 0.5).all() and (delays == 10.0).all()

    def test_zero_lag_single_location(self):
        weights, delays = _kernels(delay=50.0)
        record = _record(input_times={(0, 0): 0.0}, firings=[(0, 0, 0, 50.0)])
        report = apply_pair_updates(record, weights, delays, set(), CFG)
        assert report.pair_count == 1
        assert delays[0, 0, 0] == pytest.approx(45.0, abs=1e-12)
        assert weights[0, 0, 0] == CFG.w_max  # +A_plus clamped
        assert (delays[0].ravel()[1:] == 50.0).all()

    def test_window_read_at_firing_location(self):
        # Neuron (0, y=1, x=6) sees input (3, 9) through kernel cell (2, 3).
        weights, delays = _kernels(delay=50.0)
        record = _record(input_times={(3, 9): 0.0}, firings=[(0, 1, 6, 50.0)])
        report = apply_pair_updates(record, weights, delays, set(), CFG)
        assert report.pair_count == 1
        assert delays[0, 2, 3] == pytest.approx(45.0, abs=1e-12)
        assert (np.delete(delays[0].ravel(), 2 * 5 + 3) == 50.0).all()

    def test_shared_cell_takes_mean_of_location_deltas(self):
        # Two firings of one feature, far apart, drive the same kernel cell
        # with lags ln(5) and ln(2.5); with B=sigma=1 those shrink the
        # delay by 0.2 and 0.4, so the shared cell moves by their mean.
        cfg = CFG.replace(B_minus=1.0, sigma_minus=1.0)
        weights, delays = _kernels()
        record = _record(
            input_times={(0, 0): 0.0, (6, 6): 0.0},
            firings=[
                (0, 0, 0, 10.0 + math.log(5.0)),
                (0, 6, 6, 10.0 + math.log(2.5)),
            ],
        )
        report = apply_pair_updates(record, weights, delays, set(), cfg)
        assert report.pair_count == 2
        assert delays[0, 0, 0] == pytest.approx(9.7, abs=1e-12)
        assert (np.delete(delays[0].ravel(), 0) == 10.0).all()

    def test_frozen_feature_weights_only(self):
        weights, delays = _kernels(delay=50.0)
        record = _record(input_times={(0, 0): 0.0}, firings=[(0, 0, 0, 50.0)])
        apply_pair_updates(record, weights, delays, {0}, CFG)
        assert delays[0, 0, 0] == 50.0
        assert weights[0, 0, 0] == CFG.w_max

    def test_unknown_neuron_rejected(self):
        weights, delays = _kernels()
        with pytest.raises(ValueError):
            apply_pair_updates(
                _record(firings=[(7, 0, 0, 1.0)]), weights, delays, set(), CFG
            )
        with pytest.raises(ValueError):
            apply_pair_updates(
                _record(firings=[(0, 30, 0, 1.0)]), weights, delays, set(), CFG
            )

    def test_delays_stay_positive_after_overshoot(self):
        weights, delays = _kernels(delay=1.0)
        record = _record(input_times={(0, 0): 0.0}, firings=[(0, 0, 0, 1.0)])
        apply_pair_updates(record, weights, delays, set(), CFG)
        assert delays[0, 0, 0] == DELAY_FLOOR

    def test_matches_per_firing_loop(self):
        # Dense random firings on a 9x11 grid with silent cells, one
        # frozen feature: the batch equals the loop's sums bit for bit.
        cfg = CFG.replace(sigma_minus=0.5, sigma_plus=0.5, tau_plus=0.5, tau_minus=0.5)
        rng = np.random.default_rng(11)
        for _ in range(20):
            times = rng.uniform(0.0, 4.0, size=(9, 11))
            times[rng.random(times.shape) < 0.3] = np.inf
            neurons = rng.permutation(4 * 5 * 7)[:rng.integers(0, 60)]
            firings = [(int(n // 35), int(n % 35 // 7), int(n % 7), float(rng.uniform(0.0, 60.0)))
                       for n in neurons]
            record = ActivityRecord(input_times=times, feature_firings=firings)
            weights = rng.uniform(0.0, 1.0, size=(4, 5, 5))
            delays = rng.uniform(0.1, 55.0, size=(4, 5, 5))
            dw_sum, dd_sum, counts = _reference_pair_sums(record, delays, cfg)
            expected_w = weights.copy()
            expected_d = delays.copy()
            touched = counts > 0
            expected_w[touched] += dw_sum[touched] / counts[touched]
            np.clip(expected_w, cfg.w_min, cfg.w_max, out=expected_w)
            moved = touched & (np.arange(4) != 2)[:, None, None]
            expected_d[moved] = np.maximum(
                expected_d[moved] + dd_sum[moved] / counts[moved], DELAY_FLOOR)
            report = apply_pair_updates(record, weights, delays, {2}, cfg)
            assert report.pair_count == int(counts.sum())
            assert weights.tobytes() == expected_w.tobytes()
            assert delays.tobytes() == expected_d.tobytes()

    def test_lags_use_pre_update_delays(self):
        # Both locations must see the same delay snapshot: two equal-lag
        # firings produce exactly the single-pair delta, not a cascade.
        weights, delays = _kernels(delay=50.0)
        record = _record(
            input_times={(0, 0): 0.0, (6, 6): 0.0},
            firings=[(0, 0, 0, 50.0), (0, 6, 6, 50.0)],
        )
        apply_pair_updates(record, weights, delays, set(), CFG)
        assert delays[0, 0, 0] == pytest.approx(45.0, abs=1e-12)


class TestHomeostasis:
    def test_balanced_is_zero(self):
        assert homeostasis_factor(1.0, 1.0) == 0.0

    def test_silent_is_one(self):
        assert homeostasis_factor(1.0, 0.0) == 1.0

    def test_overactive_is_negative(self):
        assert homeostasis_factor(2.0, 3.0) == -0.5

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            homeostasis_factor(0.0, 1.0)
        with pytest.raises(ValueError):
            homeostasis_factor(-1.0, 0.0)

    def test_apply_zero_k_is_identity(self):
        weights, delays = _kernels()
        apply_homeostasis(weights[0], delays[0], 0.0, CFG)
        assert (weights[0] == 0.5).all() and (delays[0] == 10.0).all()

    def test_apply_underactive_shifts(self):
        cfg = CFG.replace(lambda_w=0.01, lambda_d=0.1)
        weights, delays = _kernels(weight=0.5, delay=50.0)
        apply_homeostasis(weights[0], delays[0], 1.0, cfg)
        assert weights[0, 0, 0] == pytest.approx(0.51)
        assert delays[0, 0, 0] == pytest.approx(49.9)

    def test_apply_overactive_raises_delays(self):
        cfg = CFG.replace(lambda_d=0.1)
        weights, delays = _kernels(delay=50.0)
        apply_homeostasis(weights[0], delays[0], -1.0, cfg)
        assert delays[0, 0, 0] == pytest.approx(50.1)

    def test_frozen_delays_untouched(self):
        weights, delays = _kernels(delay=50.0)
        apply_homeostasis(weights[0], delays[0], 1.0, CFG, delays_frozen=True)
        assert (delays[0] == 50.0).all()
        assert (weights[0] != 0.5).any()

    def test_nonfinite_k_rejected(self):
        weights, delays = _kernels()
        with pytest.raises(ValueError):
            apply_homeostasis(weights[0], delays[0], float("nan"), CFG)


class TestFreezeAndGrowth:
    def test_any_small_delay_freezes(self):
        assert check_freeze(np.array([0.0005, 3.0, 7.0]), 0.001) is True

    def test_exactly_c_does_not_freeze(self):
        assert check_freeze(np.array([0.001, 0.001]), 0.001) is False

    def test_all_above_c(self):
        assert check_freeze(np.array([0.0011, 5.0]), 0.001) is False

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_freeze(np.array([]), 0.001)

    def test_bad_constant_rejected(self):
        with pytest.raises(ValueError):
            check_freeze(np.array([1.0]), 0.0)

    def test_growth_increment(self):
        delays = np.array([50.0])
        apply_growth(delays, 0.0001)
        assert delays[0] == pytest.approx(50.0001, abs=1e-15)

    def test_zero_growth_identity(self):
        delays = np.array([50.0])
        apply_growth(delays, 0.0)
        assert delays[0] == 50.0

    def test_negative_growth_rejected(self):
        with pytest.raises(ValueError):
            apply_growth(np.array([1.0]), -0.1)


class TestRuleProperties:
    def test_shrink_bounded_by_lag(self):
        # B(1 - exp(-lag/sigma)) <= lag whenever 0 < B <= sigma; sampled
        # over the premise region, allowing a few epsilons of slack.
        rng = np.random.default_rng(42)
        n = 10_000
        sigma = rng.uniform(1e-3, 10.0, size=n)
        b = sigma * rng.uniform(1e-6, 1.0, size=n)
        lag = rng.uniform(0.0, 100.0, size=n)
        shrink = b - b * np.exp(-lag / sigma)
        assert (shrink <= lag + 8 * np.finfo(float).eps * np.maximum(1.0, lag)).all()

    def test_magnitudes_decay_away_from_zero(self):
        cfg = CFG.replace(tau_plus=0.7, tau_minus=0.7, sigma_plus=0.7, sigma_minus=0.7)
        lags = np.linspace(0.0, 5.0, 500)
        dw = [stdp_delta_w(l, cfg) for l in lags]
        dd = [abs(delay_delta_d(l, cfg)) for l in lags]
        assert all(a >= b for a, b in zip(dw, dw[1:]))
        assert all(a >= b for a, b in zip(dd, dd[1:]))
        neg = np.linspace(-5.0, -1e-9, 500)
        dw_n = [stdp_delta_w(l, cfg) for l in neg]
        dd_n = [abs(delay_delta_d(l, cfg)) for l in neg]
        assert all(a >= b for a, b in zip(dw_n, dw_n[1:]))
        assert all(b >= a for a, b in zip(dd_n, dd_n[1:]))

    def test_bounds_after_random_update_sequences(self):
        rng = np.random.default_rng(7)
        cfg = CFG.replace(sigma_minus=0.5, sigma_plus=0.5)
        weights, delays = _kernels(weight=0.9, delay=2.0)
        for _ in range(300):
            record = _record(
                input_times={(int(rng.integers(0, 15)), int(rng.integers(0, 15))): 0.0},
                firings=[(int(rng.integers(0, 4)), int(rng.integers(0, 11)),
                          int(rng.integers(0, 11)), float(rng.uniform(0.0, 8.0)))],
            )
            apply_pair_updates(record, weights, delays, set(), cfg)
            for f in range(4):
                apply_homeostasis(weights[f], delays[f], float(rng.uniform(-2, 2)), cfg)
            apply_growth(delays, cfg.growth_factor)
            assert (weights >= cfg.w_min).all() and (weights <= cfg.w_max).all()
            assert (delays > 0).all()
