"""Two-layer spiking network with shared-kernel features and delayed events.

An input grid of H x W cells feeds four convolutional feature maps through
a shared 5x5 kernel of (weight, delay) pairs per feature, stride 1. Input
spikes are injected at their stimulus times; every synaptic arrival is an
exact real-valued time (emission + current delay). All arrivals of a
stimulus are known before it starts, so they are sorted once into a
time-ordered schedule, while membrane integration advances on a fixed
grid of ``dt`` steps. A firing feature neuron laterally inhibits the other
maps at the same output location for the rest of the stimulus.

All learning happens in :func:`finish_stimulus`, batched at stimulus end;
:func:`present_stimulus` only simulates and records.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import plasticity
from .config import (
    STREAM_DELAYS,
    STREAM_NOISE,
    STREAM_WEIGHTS,
    RngStream,
    SimConfig,
    draw_gaussian_array,
)

FEATURE_COUNT = 4
KERNEL_SIZE = 5

# Decay of the per-feature firing-rate estimate used by homeostasis.
RATE_EMA_DECAY = 0.9


@dataclass
class ActivityRecord:
    """Tagged firings of one stimulus presentation.

    First-spike coding holds on both layers: ``input_times`` keeps the
    earliest spike per input cell, ``feature_firings`` one entry per
    feature neuron, in firing order.
    """

    grid_height: int
    grid_width: int
    input_times: dict = field(default_factory=dict)
    feature_firings: list = field(default_factory=list)
    dropped_events: int = 0


@dataclass
class TrainingSummary:
    """Outcome of a training run, serializable as deterministic JSON."""

    epochs_run: int
    freeze_epochs: list
    weights: list
    delays: list
    stimuli_presented: int
    dropped_events: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")


class Network:
    """Mutable simulation state: shared kernels, per-neuron LIF state."""

    def __init__(self, cfg: SimConfig, weights: np.ndarray, delays: np.ndarray):
        self.cfg = cfg
        self.weights = weights
        self.delays = delays
        self.out_h = cfg.grid_height - KERNEL_SIZE + 1
        self.out_w = cfg.grid_width - KERNEL_SIZE + 1
        shape = (FEATURE_COUNT, self.out_h, self.out_w)
        self.potentials = np.zeros(shape)
        self.thresholds = np.full(shape, cfg.threshold)
        self.fired = np.zeros(shape, dtype=bool)
        self.inhibited = np.zeros(shape, dtype=bool)
        self.frozen: set[int] = set()
        self.rate_ema = np.zeros(FEATURE_COUNT)
        self.noise_stream = RngStream(cfg.rng_seed, STREAM_NOISE)
        self.n_steps = int(round(cfg.stimulus_window / cfg.dt))

    def reset_neurons(self) -> None:
        """Clear per-stimulus state; adapted thresholds persist."""
        self.potentials.fill(0.0)
        self.fired.fill(False)
        self.inhibited.fill(False)


def build_network(cfg: SimConfig) -> Network:
    """Draw initial shared kernels and allocate neuron state.

    Weights come from N(weight_init_mean, weight_init_std) clamped to the
    weight bounds; delays from N(delay_init_mean, delay_init_spread),
    floored high enough that one update cannot push them negative before
    the freeze check sees them.
    """
    if cfg.grid_height < KERNEL_SIZE or cfg.grid_width < KERNEL_SIZE:
        raise ValueError(
            f"grid {cfg.grid_height}x{cfg.grid_width} is smaller than the "
            f"{KERNEL_SIZE}x{KERNEL_SIZE} kernel"
        )
    kshape = (FEATURE_COUNT, KERNEL_SIZE, KERNEL_SIZE)
    w_stream = RngStream(cfg.rng_seed, STREAM_WEIGHTS)
    d_stream = RngStream(cfg.rng_seed, STREAM_DELAYS)
    weights = np.clip(
        draw_gaussian_array(w_stream, cfg.weight_init_mean, cfg.weight_init_std, kshape),
        cfg.w_min,
        cfg.w_max,
    )
    delay_floor = cfg.freeze_c + cfg.B_minus * cfg.dt
    delays = np.maximum(
        draw_gaussian_array(d_stream, cfg.delay_init_mean, cfg.delay_init_spread, kshape),
        delay_floor,
    )
    return Network(cfg, weights, delays)


def _seed_events(net: Network, input_times: dict) -> tuple[list, int]:
    """Schedule one arrival per (input firing, reachable feature neuron).

    Returns ``(arrival, target, source, weight)`` tuples sorted by arrival,
    ties broken by target id then source id, plus the number of arrivals
    dropped beyond the horizon. A (target, source) pair occurs at most
    once, so the order is total and no two arrivals compare equal.
    """
    cfg = net.cfg
    horizon = net.n_steps * cfg.dt
    delays = net.delays
    weights = net.weights
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
                    arrival = t + delays[f, ky, kx]
                    if arrival > horizon:
                        dropped += 1
                        continue
                    events.append(
                        (arrival, (f, iy - ky, ix - kx), (iy, ix), weights[f, ky, kx])
                    )
    events.sort()
    return events, dropped


def present_stimulus(net: Network, stim) -> ActivityRecord:
    """Run one stimulus through the network and record all firings.

    No plasticity here. Input cells follow first-spike coding (the
    earliest spike per cell is kept). Arrivals beyond the simulated
    horizon are dropped and counted; a negative delay, which would make
    an arrival precede its emission, is rejected. Noise is drawn for every
    neuron and step up front, so the stream's consumption is independent
    of activity.
    """
    cfg = net.cfg
    if net.fired.any() or net.inhibited.any() or net.potentials.any():
        raise ValueError("present_stimulus requires reset neurons")
    if (net.delays < 0).any():
        raise ValueError("delays must be >= 0: an arrival cannot precede its emission")

    input_times: dict = {}
    for sp in stim.spikes:
        key = (sp.y, sp.x)
        t = float(sp.t)
        if key not in input_times or t < input_times[key]:
            input_times[key] = t

    events, dropped = _seed_events(net, input_times)
    record = ActivityRecord(
        grid_height=cfg.grid_height,
        grid_width=cfg.grid_width,
        input_times=input_times,
        dropped_events=dropped,
    )

    shape = net.potentials.shape
    if cfg.noise_std > 0:
        noise = net.noise_stream.generator.normal(
            0.0, cfg.noise_std, size=(net.n_steps,) + shape
        )
    else:
        noise = None
    decay = math.exp(-cfg.dt / cfg.tau_m)

    pot = net.potentials
    fired = net.fired
    inhibited = net.inhibited
    thresholds = net.thresholds
    dt = cfg.dt

    def fire(f: int, y: int, x: int, when: float) -> None:
        fired[f, y, x] = True
        record.feature_firings.append((f, y, x, when))
        others = inhibited[:, y, x]
        others[:] = True
        others[f] = False

    next_event = 0
    n_events = len(events)
    for step in range(1, net.n_steps + 1):
        t_end = step * dt
        # Leak applies to the carried potential; fresh charge and noise
        # land undecayed. Ineligible neurons are updated too but their
        # potential is never observed again this stimulus.
        pot *= decay
        if noise is not None:
            pot += noise[step - 1]
        # Arrivals are applied in schedule order with an immediate
        # threshold check: a firing is stamped with the exact arrival time
        # that tipped the neuron (so the triggering synapse's lag is zero,
        # as the delay rule's analysis assumes) and inhibition takes
        # effect mid-step, in arrival order.
        while next_event < n_events and events[next_event][0] <= t_end:
            arrival, target, _source, weight = events[next_event]
            next_event += 1
            pot[target] += weight
            if (
                not fired[target]
                and not inhibited[target]
                and pot[target] >= thresholds[target]
            ):
                fire(*target, arrival)
        # Crossings driven by noise alone surface at the step boundary.
        crossed = (pot >= thresholds) & ~(fired | inhibited)
        if crossed.any():
            for f, y, x in zip(*np.nonzero(crossed)):
                if not fired[f, y, x] and not inhibited[f, y, x]:
                    fire(int(f), int(y), int(x), t_end)
    return record


def finish_stimulus(net: Network, record: ActivityRecord) -> plasticity.PlasticityReport:
    """Apply the end-of-stimulus batch in fixed order.

    1. pair updates (weights everywhere, delays on unfrozen features),
    2. per-feature homeostasis against the rate estimate,
    3. freeze check,
    4. delay growth for the whole window on still-unfrozen features,
    5. threshold adaptation,
    6. neuron reset.

    The freeze check runs before the batched growth: growth really
    accrues per time step, so a delay that learning pushed under the stop
    constant must be seen by the check before a whole window's growth
    (which exceeds the stop constant at defaults) is credited back.
    """
    cfg = net.cfg
    report = plasticity.apply_pair_updates(
        record, net.weights, net.delays, net.frozen, cfg
    )

    counts = np.zeros(FEATURE_COUNT)
    for (f, _y, _x, _t) in record.feature_firings:
        counts[f] += 1
    for f in range(FEATURE_COUNT):
        net.rate_ema[f] = RATE_EMA_DECAY * net.rate_ema[f] + (1 - RATE_EMA_DECAY) * counts[f]
        k_factor = plasticity.homeostasis_factor(cfg.r_target, net.rate_ema[f])
        plasticity.apply_homeostasis(
            net.weights[f], net.delays[f], k_factor, cfg,
            delays_frozen=f in net.frozen,
        )

    for f in range(FEATURE_COUNT):
        if f not in net.frozen and plasticity.check_freeze(net.delays[f], cfg.freeze_c):
            net.frozen.add(f)
            report.newly_frozen.add(f)

    growth = cfg.growth_factor * cfg.stimulus_window
    for f in range(FEATURE_COUNT):
        if f not in net.frozen:
            plasticity.apply_growth(net.delays[f], growth)

    lowered = np.maximum(net.thresholds - cfg.threshold_adapt_down, cfg.threshold_min)
    net.thresholds = np.where(
        net.fired, net.thresholds + cfg.threshold_adapt_up, lowered
    )

    net.reset_neurons()
    return report


def train(
    net: Network,
    dataset,
    max_epochs: int,
    on_epoch_end: Callable[[int, Network], None] | None = None,
) -> TrainingSummary:
    """Present the dataset repeatedly until every feature froze.

    Stops at the end of the epoch in which the last feature froze, or
    after ``max_epochs``. Stimulus order is the dataset order, identical
    every epoch.
    """
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")
    freeze_epochs: list = [None] * FEATURE_COUNT
    epochs_run = 0
    stimuli_presented = 0
    dropped_events = 0
    for epoch in range(1, max_epochs + 1):
        for stim in dataset.stimuli:
            record = present_stimulus(net, stim)
            report = finish_stimulus(net, record)
            stimuli_presented += 1
            dropped_events += record.dropped_events
            for f in report.newly_frozen:
                freeze_epochs[f] = epoch
        epochs_run = epoch
        if on_epoch_end is not None:
            on_epoch_end(epoch, net)
        if len(net.frozen) == FEATURE_COUNT:
            break
    return TrainingSummary(
        epochs_run=epochs_run,
        freeze_epochs=freeze_epochs,
        weights=net.weights.tolist(),
        delays=net.delays.tolist(),
        stimuli_presented=stimuli_presented,
        dropped_events=dropped_events,
    )
