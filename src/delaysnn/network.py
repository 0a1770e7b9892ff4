"""Two-layer spiking network with shared-kernel features and delayed events.

An input grid of H x W cells feeds four convolutional feature maps through
a shared 5x5 kernel of (weight, delay) pairs per feature, stride 1. Input
spikes are injected at their stimulus times; every synaptic arrival is an
exact real-valued time (emission + current delay). All arrivals of a
stimulus are known before it starts, so they are built from the grid of
first-spike times in one broadcast and sorted once into a time-ordered
schedule, while membrane integration advances on a fixed grid of ``dt``
steps. The first feature neuron to fire at an output location wins it:
no feature fires there again for the rest of the stimulus. Firing does
not feed back into potentials, so a stimulus's potential trajectory is
integrated first and its firings read off it per location. The
trajectory is streamed in blocks of steps, in step order: each block's
noise is drawn, integrated and reduced to per-location first crossings
before the next, so the whole (steps x neurons) trajectory is never held.

All learning happens in :func:`finish_stimulus`, batched at stimulus end;
:func:`present_stimulus` only simulates and records. Every stimulus starts
from rest, so potentials, firings and location winners are scratch of one
presentation: the network keeps only what it learns.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

# Bytes of float64 noise that ``present_stimulus`` draws and integrates
# at a time (at least one step's worth), so it never holds every step.
BLOCK_BYTES = 256 * 1024


@dataclass
class ActivityRecord:
    """Tagged firings of one stimulus presentation.

    First-spike coding holds on both layers: ``input_times`` is the
    (H, W) grid of each input cell's earliest spike time (``inf`` for a
    silent cell), ``feature_firings`` holds one ``(f, y, x, t)`` entry per
    feature neuron, in firing order. ``potentials`` is the (features,
    out_h, out_w) potential at the end of the window (``None`` on a record
    built by hand).
    """

    input_times: np.ndarray
    feature_firings: list = field(default_factory=list)
    dropped_events: int = 0
    potentials: np.ndarray | None = None


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
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")


class Network:
    """Learned state: shared kernels, per-neuron thresholds, the freeze set
    and per-feature rate estimates, plus the noise stream."""

    def __init__(self, cfg: SimConfig, weights: np.ndarray, delays: np.ndarray):
        self.cfg = cfg
        self.weights = weights
        self.delays = delays
        self.out_h = cfg.grid_height - KERNEL_SIZE + 1
        self.out_w = cfg.grid_width - KERNEL_SIZE + 1
        self.thresholds = np.full((FEATURE_COUNT, self.out_h, self.out_w), cfg.threshold)
        self.frozen: set[int] = set()
        self.rate_ema = np.zeros(FEATURE_COUNT)
        self.noise_stream = RngStream(cfg.rng_seed, STREAM_NOISE)
        self.n_steps = int(round(cfg.stimulus_window / cfg.dt))


def build_network(cfg: SimConfig) -> Network:
    """Draw initial shared kernels; every threshold starts at ``cfg.threshold``.

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


def _seed_events(
    net: Network, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Schedule one arrival per (input firing, reachable feature neuron).

    ``times`` is the (H, W) first-spike grid, ``inf`` for silent cells.
    ``arrival[f, y, x, ky, kx]`` is when input (y+ky, x+kx) reaches neuron
    (f, y, x). Returns the arrival times, flat ``(f, y, x)`` target ids and
    weights of the kept arrivals as arrays, sorted by arrival, ties broken
    by target id then source cell, plus the number of arrivals dropped
    beyond the horizon. Within one target the source cell grows with
    (ky, kx), so the flat index of ``arrival`` already runs in (target,
    source) order and a stable sort on arrival alone gives the full order.
    """
    arrival = (
        sliding_window_view(times, (KERNEL_SIZE, KERNEL_SIZE))[None]
        + net.delays[:, None, None]
    ).ravel()
    kept = np.flatnonzero(arrival <= net.n_steps * net.cfg.dt)
    dropped = int(np.count_nonzero(arrival < np.inf)) - kept.size
    kept = kept[np.argsort(arrival[kept], kind="stable")]
    target, cell = np.divmod(kept, KERNEL_SIZE * KERNEL_SIZE)
    weight = net.weights.reshape(FEATURE_COUNT, -1)[target // (net.out_h * net.out_w), cell]
    return arrival[kept], target, weight, dropped


def present_stimulus(net: Network, stim) -> ActivityRecord:
    """Run one stimulus through the network and record all firings.

    No plasticity here, and nothing of ``net`` changes but its noise
    stream: every neuron starts from rest. Input cells follow first-spike
    coding (the earliest spike per cell is kept); a spike outside the grid
    or at a negative or non-finite time is rejected. Arrivals beyond the
    simulated horizon are dropped and counted; a negative delay, which
    would make an arrival precede its emission, is rejected, and so is a
    negative weight (see below). Noise is drawn for every neuron and step,
    block by block in step order, so the stream's consumption is
    independent of activity.

    Per step, the carried potential leaks, noise lands, then the step's
    arrivals charge their targets in schedule order; a neuron fires at the
    exact arrival time that carries it to threshold, or, if noise alone
    got it there, at the step's end. The first firing at an output
    location wins it for the rest of the stimulus.

    Firing never feeds back into potentials within a stimulus, so the
    trajectory is integrated first and the firings are read off it
    afterwards. Weights are >= 0, so within a step a potential only rises
    and the end-of-step value is its maximum: a location is won in the
    first step where any of its neurons ends at or above threshold, and
    only that step is replayed, arrival by arrival, to find the winner.
    The trajectory is integrated in blocks of ``BLOCK_BYTES`` worth of
    steps, each block reduced to its locations' first crossings before the
    next block's noise is drawn, so memory does not grow with the window.
    """
    cfg = net.cfg
    if (net.delays < 0).any():
        raise ValueError("delays must be >= 0: an arrival cannot precede its emission")
    if (net.weights < 0).any():
        raise ValueError("weights must be >= 0: a potential may only rise within a step")

    times = np.full((cfg.grid_height, cfg.grid_width), np.inf)
    for sp in stim.spikes:
        if not (0 <= sp.y < cfg.grid_height and 0 <= sp.x < cfg.grid_width):
            raise ValueError(
                f"spike at x={sp.x}, y={sp.y} lies outside the "
                f"{cfg.grid_height}x{cfg.grid_width} grid"
            )
        if not 0 <= sp.t < math.inf:
            raise ValueError(
                f"spike at x={sp.x}, y={sp.y} has time {sp.t}: must be finite and >= 0"
            )
        times[sp.y, sp.x] = min(times[sp.y, sp.x], sp.t)

    arrivals, targets, weights, dropped = _seed_events(net, times)
    record = ActivityRecord(input_times=times, dropped_events=dropped)

    # Trajectory, block by block in step order, in place over each block's
    # noise: row s of the whole trajectory is the potentials at the end of
    # step s + 1. Leak applies to the carried potential; fresh charge and
    # noise land undecayed. An arrival belongs to the first step whose end
    # time is at or after it. ``np.add.at`` adds in index order, so each
    # neuron's charges sum in schedule order. Consecutive draws equal one
    # draw of all steps, so the block size does not change the bytes.
    n_loc = net.out_h * net.out_w
    thr = net.thresholds.reshape(-1)
    decay = math.exp(-cfg.dt / cfg.tau_m)
    step_ends = np.arange(1, net.n_steps + 1) * cfg.dt
    steps = np.searchsorted(step_ends, arrivals, "left")
    # Arrivals bounds[s]:bounds[s + 1] land in row s.
    bounds = np.searchsorted(steps, np.arange(net.n_steps + 1)).tolist()
    # Each arrival's target potential just before its step's charges land.
    pre_charge = np.empty(arrivals.size)
    prev = np.zeros(net.thresholds.size)
    carried = np.empty_like(prev)
    # Per location: whether it is won, the first step in which one of its
    # neurons ends at or above threshold, and the lowest such feature.
    won = np.zeros(n_loc, dtype=bool)
    win_step = np.zeros(n_loc, dtype=np.intp)
    win_feature = np.zeros(n_loc, dtype=np.intp)
    block_steps = max(1, BLOCK_BYTES // (8 * prev.size))
    for start in range(0, net.n_steps, block_steps):
        block = draw_gaussian_array(
            net.noise_stream, 0.0, cfg.noise_std,
            (min(block_steps, net.n_steps - start), prev.size),
        )
        for row, a, b in zip(block, bounds[start:], bounds[start + 1:]):
            np.multiply(prev, decay, out=carried)
            row += carried
            if a < b:
                pre_charge[a:b] = row[targets[a:b]]
                np.add.at(row, targets[a:b], weights[a:b])
            prev = row
        # Reduce the block's crossings before the next draw.
        new = (block.max(0) >= thr).reshape(FEATURE_COUNT, n_loc).any(0) & ~won
        if new.any():
            locs = np.flatnonzero(new)
            crossed = (block.reshape(-1, FEATURE_COUNT, n_loc)[:, :, locs]
                       >= thr.reshape(FEATURE_COUNT, n_loc)[:, locs])
            first = crossed.any(1).argmax(0)
            won[locs] = True
            win_step[locs] = start + first
            win_feature[locs] = crossed[first, :, np.arange(locs.size)].argmax(1)

    # Replay each won location's winning step from its pre-charge values:
    # an arrival that tips a neuron fires it at the arrival's exact time
    # (so the triggering synapse's lag is zero, as the delay rule's
    # analysis assumes) and blocks every feature at its location.
    target_loc = targets % n_loc
    replay = np.flatnonzero(won[target_loc] & (steps == win_step[target_loc]))
    firings = []
    running = {}
    taken = set()
    for e, i, loc, s, w in zip(replay.tolist(), targets[replay].tolist(),
                               target_loc[replay].tolist(), steps[replay].tolist(),
                               weights[replay].tolist()):
        if loc in taken:
            continue
        running[i] = p = running.get(i, pre_charge[e]) + w
        if p >= thr[i]:
            taken.add(loc)
            firings.append((s, 0, e, i, float(arrivals[e])))
    # Crossings driven by noise alone surface at the step boundary, after
    # the step's arrivals; the lowest feature index wins the location.
    for loc in np.flatnonzero(won).tolist():
        if loc not in taken:
            s = int(win_step[loc])
            i = int(win_feature[loc]) * n_loc + loc
            firings.append((s, 1, i, i, float(step_ends[s])))

    firings.sort()
    for _s, _phase, _order, i, when in firings:
        f, loc = divmod(i, n_loc)
        y, x = divmod(loc, net.out_w)
        record.feature_firings.append((f, y, x, when))
    # A copy: ``prev`` is a row of the last noise block.
    record.potentials = prev.reshape(net.thresholds.shape).copy()
    return record


def finish_stimulus(net: Network, record: ActivityRecord) -> plasticity.PlasticityReport:
    """Apply the end-of-stimulus batch in fixed order.

    1. pair updates (weights everywhere, delays on unfrozen features),
    2. per-feature homeostasis against the rate estimate,
    3. freeze check,
    4. delay growth for the whole window on still-unfrozen features,
    5. threshold adaptation: up where the record holds a firing, down
       elsewhere.

    The freeze check runs before the batched growth: growth really
    accrues per time step, so a delay that learning pushed under the stop
    constant must be seen by the check before a whole window's growth
    (which exceeds the stop constant at defaults) is credited back.
    """
    cfg = net.cfg
    report = plasticity.apply_pair_updates(
        record, net.weights, net.delays, net.frozen, cfg
    )

    # After the pair updates, which reject a firing outside the maps.
    fired = np.zeros(net.thresholds.shape, dtype=bool)
    counts = np.zeros(FEATURE_COUNT)
    for (f, y, x, _t) in record.feature_firings:
        fired[f, y, x] = True
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
        fired, net.thresholds + cfg.threshold_adapt_up, lowered
    )
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
