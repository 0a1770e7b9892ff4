"""Verification harness and read-only measurements.

The delay rule, viewed from a single post-synaptic neuron receiving a
fixed repeating pattern, is a fixed-point iteration on each synapse's lag

    lag' = lag - B_minus + B_minus * exp(-lag / sigma_minus),

which for 0 < B_minus <= sigma_minus keeps every lag in [0, lag] and
drives it to 0: the neuron ends up receiving all contributing spikes
simultaneously. :func:`convergence_trajectories` repeats that
single-neuron setting in arrival space for a batch of scenarios at once,
moving every arrival by the network's own rule
:func:`plasticity.delay_delta_d`; :func:`run_convergence_suite` checks the
predicted properties on one scenario's recorded trajectory.
:func:`lag_fixed_point_step` is the recurrence itself, written
independently of the rule and used as the prediction oracle.

Also here: the premise report every run records in its manifest,
direction-selectivity measurement over a dataset and feature snapshot
export (numeric JSON and an SVG where larger circles mean lower
delay and darker fill means higher weight).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import STREAM_VERIFY, RngStream, SimConfig
from .dataset import DIRECTIONS, Dataset
from .network import FEATURE_COUNT, KERNEL_SIZE, Network, present_stimulus
from . import plasticity

CONVERGENCE_TOL = 1e-3
# Recurrence steps after which :func:`iterations_to_tolerance` gives up.
MAX_RECURRENCE_STEPS = 1_000_000
SHIFT_TOL = 1e-9
# Sampled points per closed-form property in :func:`run_property_checks`.
PROPERTY_SAMPLES = 10_000
# Byte budget of one batch of convergence trajectories (see
# :func:`trajectory_batches`): the 100 random scenarios of a default
# ``delaysnn verify`` run (500 repetitions) fit in one batch.
TRAJECTORY_BYTES = 3 * 1024 * 1024

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


def lag_fixed_point_step(lag: float, b_minus: float, sigma_minus: float) -> float:
    """One step of the lag recurrence; contracts [0, inf) toward 0.

    The result is clamped at 0 to absorb the cancellation error of
    lag - B + B*exp(-lag/sigma) near the fixed point; mathematically it
    never leaves [0, lag].
    """
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    if not 0 < b_minus <= sigma_minus:
        raise ValueError(
            f"requires 0 < b_minus <= sigma_minus, got {b_minus}, {sigma_minus}"
        )
    return max(0.0, lag - b_minus + b_minus * math.exp(-lag / sigma_minus))


def iterations_to_tolerance(lag: float, b_minus: float, sigma_minus: float) -> int:
    """Number of recurrence steps until the lag first drops below
    ``CONVERGENCE_TOL``."""
    count = 0
    while lag >= CONVERGENCE_TOL:
        if count >= MAX_RECURRENCE_STEPS:
            raise RuntimeError(f"no convergence below {CONVERGENCE_TOL} "
                               f"within {MAX_RECURRENCE_STEPS} steps")
        lag = lag_fixed_point_step(lag, b_minus, sigma_minus)
        count += 1
    return count


@dataclass
class ConvergenceScenario:
    """A fixed spike pattern repeatedly shown to one post-synaptic neuron.

    The neuron fires the instant its last contributing arrival lands
    (idealized firing, no membrane integration). ``post_time`` optionally
    caps the first firing so that later arrivals start out non-contributing
    (negative lag); by default every arrival contributes. ``rule`` supplies
    the delay rule's B_minus, B_plus, sigma_minus and sigma_plus.
    """

    pre_times: list
    initial_delays: list
    rule: SimConfig
    repetitions: int = 200
    post_time: float | None = None

    def __post_init__(self):
        if len(self.pre_times) == 0:
            raise ValueError("scenario needs at least one pre-synaptic neuron")
        if len(self.pre_times) != len(self.initial_delays):
            raise ValueError("pre_times and initial_delays must have equal length")
        if any(d <= 0 for d in self.initial_delays):
            raise ValueError("initial delays must be > 0")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def premise_met(self) -> bool:
        return premises(self.rule)["contraction"]["holds"]


@dataclass
class CheckResult:
    status: str
    detail: str = ""


@dataclass
class ConvergenceReport:
    """Per-property outcomes plus the raw trajectories behind them."""

    premise_met: bool
    contributing: list
    noncontributing: list
    initial_lags: dict
    final_lags: dict
    firing_times: list
    convergence_rep: dict
    checks: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks.values())


def _fp_slack(scenario: ConvergenceScenario) -> float:
    """Tolerance for exact-in-real-arithmetic identities, in arrival units."""
    scale = max(
        1.0,
        max(abs(t) for t in scenario.pre_times),
        max(abs(d) for d in scenario.initial_delays),
    )
    return 64.0 * np.finfo(float).eps * scale


def _initial_arrivals(sc: ConvergenceScenario):
    """Arrival times before any repetition, the contributing and the
    non-contributing arrivals' indices, and the initially-last arrival."""
    arrivals = [float(t) + float(d) for t, d in zip(sc.pre_times, sc.initial_delays)]
    first_post = max(arrivals) if sc.post_time is None else float(sc.post_time)
    contributing = [i for i, a in enumerate(arrivals) if a <= first_post]
    noncontributing = [i for i, a in enumerate(arrivals) if a > first_post]
    if not contributing:
        raise ValueError("post_time excludes every arrival; nothing drives the neuron")
    last = max(contributing, key=lambda i: arrivals[i])
    return arrivals, contributing, noncontributing, last


def convergence_trajectories(scenarios) -> list:
    """Repeat every scenario's pattern under :func:`plasticity.delay_delta_d`,
    all scenarios of the batch at once.

    Returns one ``(firing_times, rows)`` pair per scenario: its firing
    time and its arrival times (``rows[k, i]``) after each of ``k = 0 ..
    repetitions`` repetitions. The batch holds every arrival in one array
    with its scenario's rule parameters beside it. Each repetition moves
    every arrival by the rule at its lag to its own scenario's firing
    time, then takes each scenario's new firing time as the latest of its
    contributing arrivals. Scenarios are independent, so a scenario's
    pair is the same in any batch.
    """
    scenarios = list(scenarios)
    # Per scenario: the column of its first arrival, and where its
    # contributing arrivals start in ``gather``.
    first, starts, owner, gather, initial = [], [], [], [], []
    for s, sc in enumerate(scenarios):
        arrivals, contributing, _, _ = _initial_arrivals(sc)
        first.append(len(initial))
        starts.append(len(gather))
        gather += [first[s] + i for i in contributing]
        owner += [s] * len(arrivals)
        initial += arrivals
    owner, gather, starts = np.array(owner), np.array(gather), np.array(starts)
    rule = SimpleNamespace(**{
        name: np.array([getattr(sc.rule, name) for sc in scenarios])[owner]
        for name in ("B_minus", "B_plus", "sigma_minus", "sigma_plus")
    })

    arrivals = np.array(initial)
    rows = np.empty((max(sc.repetitions for sc in scenarios) + 1, arrivals.size))
    posts = np.empty((rows.shape[0], len(scenarios)))
    rows[0] = arrivals
    post = np.maximum.reduceat(arrivals[gather], starts, out=posts[0])
    for k in range(1, rows.shape[0]):
        delta = plasticity.delay_delta_d(post[owner] - arrivals, rule)
        arrivals = np.add(arrivals, delta, out=rows[k])
        post = np.maximum.reduceat(arrivals[gather], starts, out=posts[k])
    return [
        (posts[:sc.repetitions + 1, s],
         rows[:sc.repetitions + 1, first[s]:first[s] + len(sc.pre_times)])
        for s, sc in enumerate(scenarios)
    ]


def trajectory_batches(scenarios):
    """Group ``scenarios`` into lists whose row buffer, the arrival times
    after every repetition, fits in :data:`TRAJECTORY_BYTES`.

    Draws lazily, so memory stays flat however many scenarios there are; a
    scenario larger than the budget gets a batch of its own.
    """
    batch, reps, columns = [], 0, 0
    for sc in scenarios:
        grown = (max(reps, sc.repetitions), columns + len(sc.pre_times))
        if batch and 8 * (grown[0] + 1) * grown[1] > TRAJECTORY_BYTES:
            yield batch
            batch, grown = [], (sc.repetitions, len(sc.pre_times))
        batch.append(sc)
        reps, columns = grown
    if batch:
        yield batch


def run_convergence_suite(scenario: ConvergenceScenario, *,
                          trajectory=None) -> ConvergenceReport:
    """Check the predicted properties on the scenario's trajectory under
    :func:`plasticity.delay_delta_d`.

    ``trajectory`` is the scenario's pair from
    :func:`convergence_trajectories`; without it the suite runs the
    scenario as a batch of one.

    Checked over every repetition:
      a. contributing lags never leave [0, inf)
      b. the initially-last arrival keeps lag exactly 0
      c. the firing time shifts by -B_minus each repetition
      d. contributing lags are non-increasing and converge below tolerance
      e. non-contributing lags fall by exactly
         -B_minus - B_plus * exp(lag / sigma_plus), i.e. strictly decrease

    With the contraction premise unmet (B_minus > sigma_minus) the
    dynamics still run but every check is flagged as skipped.
    """
    sc = scenario
    rule = sc.rule
    premise_met = sc.premise_met
    slack = _fp_slack(sc)
    _, contributing, noncontributing, last = _initial_arrivals(sc)
    if trajectory is None:
        [trajectory] = convergence_trajectories([sc])
    firing, rows = trajectory

    # lags[k, i]: firing time minus arrival i after k repetitions.
    lags = firing[:, None] - rows
    initial_lags = dict(enumerate(lags[0].tolist()))
    final_lags = dict(enumerate(lags[-1].tolist()))
    early = lags[:, contributing]
    below = early < CONVERGENCE_TOL
    reached = below.any(axis=0).tolist()
    first_below = below.argmax(axis=0).tolist()
    convergence_rep = {
        i: first_below[j] if reached[j] else None for j, i in enumerate(contributing)
    }
    dip = max(0.0, float(-early[1:].min()))
    rise = max(0.0, float(np.diff(early, axis=0).max()))
    last_err = float(np.abs(lags[1:, last]).max())
    shift_err = float(np.abs(np.diff(firing) + rule.B_minus).max())
    max_final = float(early[-1].max())
    # Only a failure if the recurrence oracle says the run was long
    # enough for every contributing lag to reach tolerance.
    converged_ok = premise_met and (
        None not in convergence_rep.values()
        or sc.repetitions < max(
            iterations_to_tolerance(initial_lags[i], rule.B_minus, rule.sigma_minus)
            for i in contributing
        )
    )

    def verdict(ok: bool, detail: str) -> CheckResult:
        if not premise_met:
            return CheckResult(SKIP, "premise 0 < B- <= sigma- unmet")
        return CheckResult(PASS if ok else FAIL, detail)

    checks = {
        "contributing_lags_stay_nonnegative": verdict(dip <= slack, f"max dip {dip:.3e}"),
        "last_arrival_stays_last": verdict(last_err <= slack, f"max |lag| {last_err:.3e}"),
        "firing_time_shift": verdict(shift_err <= SHIFT_TOL, f"max err {shift_err:.3e}"),
        "lags_nonincreasing": verdict(rise <= slack, f"max rise {rise:.3e}"),
        "lags_converge": verdict(converged_ok, f"max final lag {max_final:.3e}"),
    }
    if noncontributing:
        late = lags[:, noncontributing]
        steps = np.diff(late, axis=0)
        predicted = -rule.B_minus - rule.B_plus * np.exp(late[:-1] / rule.sigma_plus)
        late_err = float(np.abs(steps - predicted).max())
        checks["late_arrivals_pushed_later"] = verdict(
            late_err <= SHIFT_TOL and float(steps.max()) < 0, f"max err {late_err:.3e}"
        )

    return ConvergenceReport(
        premise_met=premise_met,
        contributing=contributing,
        noncontributing=noncontributing,
        initial_lags=initial_lags,
        final_lags=final_lags,
        firing_times=firing.tolist(),
        convergence_rep=convergence_rep,
        checks=checks,
    )


def random_scenario(rng: np.random.Generator, repetitions: int = 500,
                    with_late: bool = False) -> ConvergenceScenario:
    """Draw a premise-valid scenario with bounded convergence time.

    B_minus is kept at or above a tenth of sigma_minus so the contraction
    reaches tolerance within a few hundred repetitions. ``with_late`` adds
    one arrival past the initial firing time (negative starting lag).
    """
    n = int(rng.integers(1, 9))
    pre_times = rng.uniform(0.0, 5.0, size=n).tolist()
    initial_delays = rng.uniform(5.0, 20.0, size=n).tolist()
    sigma_minus = float(rng.uniform(0.5, 5.0))
    b_minus = sigma_minus * float(rng.uniform(0.1, 1.0))
    post_time = None
    if with_late:
        post_time = max(t + d for t, d in zip(pre_times, initial_delays))
        pre_times.append(float(rng.uniform(0.0, 5.0)))
        initial_delays.append(post_time - pre_times[-1] + float(rng.uniform(0.5, 5.0)))
    rule = SimConfig(
        B_minus=b_minus,
        B_plus=float(rng.uniform(0.05, 2.0)),
        sigma_minus=sigma_minus,
        sigma_plus=float(rng.uniform(0.5, 5.0)),
    )
    return ConvergenceScenario(
        pre_times=pre_times,
        initial_delays=initial_delays,
        rule=rule,
        repetitions=repetitions,
        post_time=post_time,
    )


# Threshold adaptation and homeostasis both steer a feature's spike
# count. Set points further apart than this factor make homeostasis scale
# every delay toward a rate the thresholds never settle at: the delays
# drift to the freeze floor, and the freeze then measures the controllers'
# disagreement, not learning.
RATE_CONSISTENCY_FACTOR = 2.0


def premises(cfg: SimConfig) -> dict:
    """Each premise of the learning rules, as ``{rule, lhs, rhs, holds}``.

    ``rate`` compares the threshold-adaptation equilibrium, a firing
    probability of down / (down + up) per neuron summed over a feature
    map, with r_target; with no threshold adaptation it holds trivially.
    """
    adapt = cfg.threshold_adapt_down + cfg.threshold_adapt_up
    cells = max(0, cfg.grid_height - KERNEL_SIZE + 1) * max(0, cfg.grid_width - KERNEL_SIZE + 1)
    rate = cfg.threshold_adapt_down / adapt * cells if adapt else None
    low, high = cfg.r_target / RATE_CONSISTENCY_FACTOR, cfg.r_target * RATE_CONSISTENCY_FACTOR
    rows = {
        "contraction": ("B_minus <= sigma_minus", cfg.B_minus, cfg.sigma_minus,
                        cfg.B_minus <= cfg.sigma_minus),
        "freeze": ("freeze_c > B_minus", cfg.freeze_c, cfg.B_minus, cfg.freeze_c > cfg.B_minus),
        "rate": (f"threshold equilibrium spikes per map within {RATE_CONSISTENCY_FACTOR:g}x "
                 "of r_target", rate, cfg.r_target, rate is None or low <= rate <= high),
    }
    return {name: dict(zip(("rule", "lhs", "rhs", "holds"), row)) for name, row in rows.items()}


@dataclass
class SelectivityMatrix:
    """Stimulus counts with at least one firing, per (feature, direction)."""

    counts: np.ndarray
    preferred: list = field(default_factory=list)
    bijective: bool = False


def measure_selectivity(net: Network, ds: Dataset) -> SelectivityMatrix:
    """Count, per feature, the stimuli of each direction it responded to.

    Plasticity is off: only the noise stream advances. A feature's
    preferred direction is the column with the most responses; the
    assignment is bijective when all four features respond and their
    preferences cover all four directions.
    """
    counts = np.zeros((FEATURE_COUNT, len(DIRECTIONS)), dtype=np.int64)
    for stim in ds.stimuli:
        record = present_stimulus(net, stim)
        col = DIRECTIONS.index(stim.direction)
        for f in {firing[0] for firing in record.feature_firings}:
            counts[f, col] += 1

    preferred = []
    for f in range(FEATURE_COUNT):
        row = counts[f]
        preferred.append(DIRECTIONS[int(np.argmax(row))] if row.sum() > 0 else None)
    bijective = None not in preferred and len(set(preferred)) == len(DIRECTIONS)
    return SelectivityMatrix(counts=counts, preferred=preferred, bijective=bijective)


def snapshot_dict(net: Network) -> dict:
    return {
        "features": [
            {
                "weights": net.weights[f].tolist(),
                "delays": net.delays[f].tolist(),
            }
            for f in range(FEATURE_COUNT)
        ]
    }


def export_snapshot(net: Network, path: str | Path, fmt: str = "numeric") -> None:
    """Write the shared kernels to ``path``.

    ``numeric`` is a JSON tree with full-precision tensors that reads back
    exactly; ``svg`` renders one circle per kernel cell, radius growing as
    the delay falls and fill darkening as the weight rises.
    """
    if fmt == "numeric":
        Path(path).write_text(
            json.dumps(snapshot_dict(net), indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
    elif fmt == "svg":
        Path(path).write_text(_render_svg(net))
    else:
        raise ValueError(f"unknown snapshot format {fmt!r}")


CELL = 24
PAD = 12
R_MAX = 10.0
R_MIN = 1.0


def _render_svg(net: Network) -> str:
    cfg = net.cfg
    d_min = float(net.delays.min())
    d_max = float(net.delays.max())
    d_span = d_max - d_min
    w_span = cfg.w_max - cfg.w_min

    panel = KERNEL_SIZE * CELL
    width = FEATURE_COUNT * panel + (FEATURE_COUNT + 1) * PAD
    height = panel + 2 * PAD
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for f in range(FEATURE_COUNT):
        x0 = PAD + f * (panel + PAD)
        parts.append(f'<g id="feature-{f}">')
        parts.append(
            f'<rect x="{x0}" y="{PAD}" width="{panel}" height="{panel}" '
            f'fill="none" stroke="black" stroke-width="1"/>'
        )
        for ky in range(KERNEL_SIZE):
            for kx in range(KERNEL_SIZE):
                delay = float(net.delays[f, ky, kx])
                weight = float(net.weights[f, ky, kx])
                size = 0.5 if d_span == 0 else (d_max - delay) / d_span
                radius = R_MIN + (R_MAX - R_MIN) * size
                darkness = min(1.0, max(0.0, (weight - cfg.w_min) / w_span))
                gray = round(255 * (1.0 - darkness))
                cx = x0 + kx * CELL + CELL // 2
                cy = PAD + ky * CELL + CELL // 2
                parts.append(
                    f'<circle cx="{cx}" cy="{cy}" r="{radius:.3f}" '
                    f'fill="rgb({gray},{gray},{gray})" stroke="black" stroke-width="0.5"/>'
                )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_property_checks(seed: int, cfg: SimConfig) -> list:
    """Sampled closed-form properties of the two pair rules.

    Returns (name, status, detail) rows for the verification report:
    the delay-shrink bound, opposite update signs, branch monotonicity
    toward zero from both sides, and bound safety under random batches.
    """
    rng = RngStream(seed, STREAM_VERIFY).generator
    rows = []
    eps = np.finfo(float).eps
    samples = PROPERTY_SAMPLES

    sigma = rng.uniform(1e-3, 10.0, size=samples)
    b = sigma * rng.uniform(0.0, 1.0, size=samples)
    b = np.where(b <= 0, sigma, b)
    lag = rng.uniform(0.0, 100.0, size=samples)
    # The shipped rule with one sampled parameter set per lag; every lag
    # is causal, so only the B_minus, sigma_minus branch runs.
    rule = SimpleNamespace(B_minus=b, sigma_minus=sigma, B_plus=b, sigma_plus=sigma)
    shrink = b + plasticity.delay_delta_d(lag, rule)
    violation = shrink - lag
    allowed = 8 * eps * np.maximum(1.0, lag)
    ok = bool((violation <= allowed).all())
    rows.append((
        "delay_shrink_bounded_by_lag",
        PASS if ok else FAIL,
        f"{samples} samples, max excess {float(np.max(violation - allowed)):.3e}",
    ))

    # Mix wide lags with lags near zero scaled to the configured time
    # constants, where the exponentials are actually alive.
    near = 10.0 * max(cfg.tau_plus, cfg.tau_minus, cfg.sigma_plus, cfg.sigma_minus)
    lags = np.concatenate([
        rng.uniform(-50.0, 50.0, size=samples // 2),
        rng.uniform(-near, near, size=samples - samples // 2),
    ])
    products = plasticity.stdp_delta_w(lags, cfg) * plasticity.delay_delta_d(lags, cfg)
    ok = bool((products <= 0).all())
    rows.append((
        "weight_and_delay_updates_oppose",
        PASS if ok else FAIL,
        f"{samples} samples, max product {float(products.max()):.3e}",
    ))

    grid_pos = np.sort(np.concatenate([
        rng.uniform(0.0, 50.0, size=samples // 2),
        rng.uniform(0.0, near, size=samples - samples // 2),
    ]))
    dw_pos = plasticity.stdp_delta_w(grid_pos, cfg)
    dd_pos = plasticity.delay_delta_d(grid_pos, cfg)
    grid_neg = np.sort(np.concatenate([
        rng.uniform(-50.0, 0.0, size=samples // 2),
        rng.uniform(-near, 0.0, size=samples - samples // 2),
    ]))
    grid_neg = grid_neg[grid_neg < 0]
    dw_neg = plasticity.stdp_delta_w(grid_neg, cfg)
    dd_neg = plasticity.delay_delta_d(grid_neg, cfg)
    # Ascending lag: weight updates fall on both branches; delay-update
    # magnitude falls on the causal branch and rises toward zero lag on
    # the late branch (i.e. decays away from zero on each side).
    ok = (
        bool((np.diff(dw_pos) <= 0).all())
        and bool((np.diff(np.abs(dd_pos)) <= 0).all())
        and bool((np.diff(dw_neg) <= 0).all())
        and bool((np.diff(np.abs(dd_neg)) >= 0).all())
    )
    rows.append((
        "branch_magnitudes_decay_from_zero",
        PASS if ok else FAIL,
        f"{samples} sorted lags per branch",
    ))

    weights = rng.uniform(cfg.w_min, cfg.w_max, size=(FEATURE_COUNT, KERNEL_SIZE, KERNEL_SIZE))
    delays = rng.uniform(0.5, 60.0, size=(FEATURE_COUNT, KERNEL_SIZE, KERNEL_SIZE))
    for _ in range(200):
        k_factor = float(rng.uniform(-2.0, 2.0))
        plasticity.apply_homeostasis(weights, delays, k_factor, cfg)
        plasticity.apply_growth(delays, cfg.growth_factor)
    ok = (
        bool((weights >= cfg.w_min).all())
        and bool((weights <= cfg.w_max).all())
        and bool((delays > 0).all())
    )
    rows.append((
        "bounds_hold_under_random_batches",
        PASS if ok else FAIL,
        f"min delay {float(delays.min()):.3e}",
    ))
    return rows
