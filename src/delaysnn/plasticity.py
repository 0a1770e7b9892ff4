"""Learning rules: paired weight/delay updates, homeostasis, freeze, growth.

Every pair rule is a two-branch exponential in the lag

    delta_t = t_post - t_pre - delay,

i.e. the gap between the post-synaptic firing time and the spike's arrival.
Weights move up for causal arrivals (delta_t >= 0) and down otherwise;
delays move the opposite way, shortening for causal arrivals so that a
repeated pattern pulls all arrivals toward the firing time. Updates are
batched at stimulus end: mutating shared delays mid-stimulus would distort
the timing of spikes already in flight.

A feature freezes permanently once any of its incoming delays drops below
``freeze_c``; from then on its delays stop learning (pair updates,
homeostatic delay shifts and growth all halt) while weight learning and
threshold adaptation continue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import SimConfig

# Delays must stay strictly positive even when an update overshoots; the
# freeze check (delay < freeze_c) then halts further delay learning.
DELAY_FLOOR = 1e-9


@dataclass
class PlasticityReport:
    """Pairs applied by one batch and the features it froze."""

    newly_frozen: set[int] = field(default_factory=set)
    pair_count: int = 0


def stdp_delta_w(delta_t: float, cfg: SimConfig) -> float:
    """Weight change for one pre/post pair.

    +A_plus * exp(-delta_t/tau_plus) when the arrival preceded the firing
    (delta_t >= 0), else -A_minus * exp(delta_t/tau_minus).
    """
    if delta_t >= 0:
        return cfg.A_plus * math.exp(-delta_t / cfg.tau_plus)
    return -cfg.A_minus * math.exp(delta_t / cfg.tau_minus)


def delay_delta_d(delta_t: float, cfg: SimConfig) -> float:
    """Delay change for one pre/post pair; mirror-signed to the weight rule.

    -B_minus * exp(-delta_t/sigma_minus) for causal arrivals (delta_t >= 0),
    +B_plus * exp(delta_t/sigma_plus) for arrivals after the firing.
    """
    if delta_t >= 0:
        return -cfg.B_minus * math.exp(-delta_t / cfg.sigma_minus)
    return cfg.B_plus * math.exp(delta_t / cfg.sigma_plus)


def apply_pair_updates(record, weights, delays, frozen, cfg: SimConfig) -> PlasticityReport:
    """Batch-apply the pair rules for one finished stimulus.

    ``record`` is an ActivityRecord; ``weights`` and ``delays`` are the
    shared (n_features, k, k) kernel tensors, mutated in place. Only pairs
    where both the input cell and the feature neuron fired contribute.
    Because kernels are shared across locations, each kernel cell receives
    the MEAN of its per-location deltas. Frozen features still take weight
    updates but their delays are left untouched.

    Lags are computed against the pre-update delays: the whole batch sees
    one consistent snapshot.
    """
    n_features, k, _ = delays.shape
    times = record.input_times
    out_h = times.shape[0] - k + 1
    out_w = times.shape[1] - k + 1

    dw_sum = np.zeros_like(weights)
    dd_sum = np.zeros_like(delays)
    counts = np.zeros(weights.shape, dtype=np.int64)

    firings = record.feature_firings
    for (f, y, x, _t) in firings:
        if not (0 <= f < n_features and 0 <= y < out_h and 0 <= x < out_w):
            raise ValueError(f"firing references unknown neuron ({f}, {y}, {x})")
    if firings:
        f, y, x, t_post = (np.array(column) for column in zip(*firings))
        # lags[n, ky, kx] pairs firing n with the input cell its kernel
        # cell (ky, kx) reads. Silent input cells (time inf) give an
        # infinite lag and no pair.
        lags = t_post[:, None, None] - sliding_window_view(times, (k, k))[y, x] - delays[f]
        n, ky, kx = np.nonzero(np.isfinite(lags))
        cells = (f[n], ky, kx)
        # The rules stay scalar: a vectorised exp may differ in the last
        # bit. ``np.add.at`` sums in (firing, ky, kx) order.
        pair_lags = lags[n, ky, kx].tolist()
        np.add.at(dw_sum, cells, [stdp_delta_w(lag, cfg) for lag in pair_lags])
        np.add.at(dd_sum, cells, [delay_delta_d(lag, cfg) for lag in pair_lags])
        np.add.at(counts, cells, 1)

    touched = counts > 0
    mean_dw = np.zeros_like(dw_sum)
    mean_dd = np.zeros_like(dd_sum)
    np.divide(dw_sum, counts, out=mean_dw, where=touched)
    np.divide(dd_sum, counts, out=mean_dd, where=touched)

    np.clip(weights + mean_dw, cfg.w_min, cfg.w_max, out=weights)
    unfrozen = np.array([f not in frozen for f in range(n_features)])
    delays[unfrozen] = np.maximum(delays[unfrozen] + mean_dd[unfrozen], DELAY_FLOOR)

    return PlasticityReport(pair_count=int(counts.sum()))


def homeostasis_factor(r_target: float, r_observed: float) -> float:
    """Relative rate error (target - observed) / target.

    1 for a silent neuron, 0 at the target rate, negative when over-active.
    """
    if r_target <= 0:
        raise ValueError(f"r_target must be > 0, got {r_target}")
    if r_observed < 0:
        raise ValueError(f"r_observed must be >= 0, got {r_observed}")
    return (r_target - r_observed) / r_target


def apply_homeostasis(weights, delays, k_factor: float, cfg: SimConfig,
                      delays_frozen: bool = False) -> None:
    """Uniformly shift one feature's incoming parameters by the rate error.

    Weights move by +lambda_w * K (clamped), delays by -lambda_d * K
    (floored above zero): an under-active feature gets stronger, faster
    synapses; an over-active one the reverse. A frozen feature keeps its
    delays but still takes the weight shift.
    """
    if not math.isfinite(k_factor):
        raise ValueError(f"K must be finite, got {k_factor}")
    np.clip(weights + cfg.lambda_w * k_factor, cfg.w_min, cfg.w_max, out=weights)
    if not delays_frozen:
        np.maximum(delays - cfg.lambda_d * k_factor, DELAY_FLOOR, out=delays)


def check_freeze(delays, c: float) -> bool:
    """True iff any incoming delay fell below the stop constant ``c``."""
    if c <= 0:
        raise ValueError(f"freeze constant must be > 0, got {c}")
    arr = np.asarray(delays)
    if arr.size == 0:
        raise ValueError("cannot evaluate freeze condition on an empty delay set")
    return bool((arr < c).any())


def apply_growth(delays, g: float) -> None:
    """Add the growth increment ``g`` to every delay in place.

    Callers scope this to unfrozen features and scale ``g`` by the number
    of elapsed time units when batching a whole stimulus window.
    """
    if g < 0:
        raise ValueError(f"growth increment must be >= 0, got {g}")
    delays += g
