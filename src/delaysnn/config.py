"""Simulation configuration and deterministic randomness.

All tunable parameters of the simulator live in a single immutable
:class:`SimConfig`.  Configs are read from and written to a flat
``key = value`` text format (``#`` starts a comment) whose keys match the
field names below, case-sensitively.

Randomness is never global: each consumer (weight init, delay init,
membrane noise, dataset generation) owns an :class:`RngStream` derived
from ``(seed, stream id)``, so identical seeds reproduce identical runs
bit for bit regardless of call order between consumers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Stream ids, one per randomness consumer.
STREAM_WEIGHTS = 0
STREAM_DELAYS = 1
STREAM_NOISE = 2
STREAM_DATASET = 3
STREAM_VERIFY = 4


class ConfigError(ValueError):
    """Base class for configuration problems."""


class ConfigParseError(ConfigError):
    """Malformed config text. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConfigValidationError(ConfigError):
    """A field value violates an invariant. Carries the field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class SimConfig:
    """All model and run parameters.

    Time is real-valued in abstract time units; the dataset's frame gap is
    1 time unit and membrane integration advances in steps of ``dt``.
    Spike arrival times are exact (emission + delay), never quantized.
    """

    # Neuron
    threshold: float = 4.15
    tau_m: float = 20.0

    # Weight plasticity (two-branch exponential on arrival-vs-firing lag)
    A_plus: float = 5.0
    A_minus: float = 5.0
    tau_plus: float = 0.0001
    tau_minus: float = 0.0001
    weight_init_mean: float = 0.95
    weight_init_std: float = 0.05

    # Delay plasticity
    B_plus: float = 5.0
    B_minus: float = 5.0
    sigma_plus: float = 0.001
    sigma_minus: float = 0.001
    delay_init_mean: float = 50.0
    delay_init_spread: float = 0.02

    # Delay regulation
    freeze_c: float = 0.001
    growth_factor: float = 0.0001

    # Homeostasis. r_target counts map-level spikes per stimulus and is
    # kept consistent with the threshold-adaptation equilibrium below.
    lambda_w: float = 0.01
    lambda_d: float = 0.01
    r_target: float = 0.3

    # Integration and stimulus window
    noise_std: float = 0.02
    dt: float = 0.1
    stimulus_window: float = 60.0

    # Topology and bounds
    grid_height: int = 15
    grid_width: int = 15
    w_min: float = 0.0
    w_max: float = 1.0

    # Threshold adaptation. The up/down ratio sets each neuron's
    # equilibrium firing probability at down/(down + up); the defaults put
    # a default-sized feature map (11x11 neurons) near r_target spikes per
    # stimulus so the two rate controllers agree.
    threshold_adapt_up: float = 0.05
    threshold_adapt_down: float = 0.0001
    threshold_min: float = 0.1

    # Run control
    rng_seed: int = 42

    def __post_init__(self):
        validate_config(self)

    def replace(self, **changes) -> "SimConfig":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SimConfig)}
_INT_FIELDS = {"grid_height", "grid_width", "rng_seed"}
_FLOAT_FIELDS = [name for name in _FIELD_TYPES if name not in _INT_FIELDS]


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigValidationError(field, message)


def validate_config(cfg: SimConfig) -> None:
    """Raise :class:`ConfigValidationError` on the first violated invariant."""
    # Imported here: dataset imports this module at load time.
    from .dataset import FRAMES

    for name in _FLOAT_FIELDS:
        _require(math.isfinite(getattr(cfg, name)), name, "must be finite")
    _require(cfg.threshold > 0, "threshold", "must be > 0")
    _require(cfg.tau_m > 0, "tau_m", "must be > 0")
    _require(cfg.A_plus >= 0, "A_plus", "must be >= 0")
    _require(cfg.A_minus >= 0, "A_minus", "must be >= 0")
    _require(cfg.tau_plus > 0, "tau_plus", "must be > 0")
    _require(cfg.tau_minus > 0, "tau_minus", "must be > 0")
    _require(cfg.B_plus > 0, "B_plus", "must be > 0")
    _require(cfg.B_minus > 0, "B_minus", "must be > 0")
    _require(cfg.sigma_plus > 0, "sigma_plus", "must be > 0")
    _require(cfg.sigma_minus > 0, "sigma_minus", "must be > 0")
    _require(cfg.weight_init_std >= 0, "weight_init_std", "must be >= 0")
    _require(cfg.delay_init_spread >= 0, "delay_init_spread", "must be >= 0")
    _require(cfg.delay_init_mean > 0, "delay_init_mean", "must be > 0")
    _require(cfg.freeze_c > 0, "freeze_c", "must be > 0")
    _require(cfg.growth_factor >= 0, "growth_factor", "must be >= 0")
    _require(cfg.lambda_w >= 0, "lambda_w", "must be >= 0")
    _require(cfg.lambda_d >= 0, "lambda_d", "must be >= 0")
    _require(cfg.r_target > 0, "r_target", "must be > 0")
    _require(cfg.noise_std >= 0, "noise_std", "must be >= 0")
    _require(cfg.dt > 0, "dt", "must be > 0")
    _require(cfg.stimulus_window > 0, "stimulus_window", "must be > 0")
    _require(cfg.dt <= cfg.stimulus_window, "dt", "must be <= stimulus_window")
    _require(cfg.grid_height >= 1, "grid_height", "must be >= 1")
    _require(cfg.grid_width >= 1, "grid_width", "must be >= 1")
    # Synapses are excitatory: the engine relies on charge only raising a
    # potential within a step.
    _require(cfg.w_min >= 0, "w_min", "must be >= 0")
    _require(cfg.w_min < cfg.w_max, "w_min", "must be < w_max")
    _require(cfg.threshold_adapt_up >= 0, "threshold_adapt_up", "must be >= 0")
    _require(cfg.threshold_adapt_down >= 0, "threshold_adapt_down", "must be >= 0")
    _require(cfg.threshold_min > 0, "threshold_min", "must be > 0")
    _require(cfg.rng_seed >= 0, "rng_seed", "must be >= 0")
    # The window must hold the slowest plausible arrival: last input spike
    # (frame FRAMES - 1, frames one time unit apart) plus an initial delay,
    # taken at six spreads above the mean.
    last_frame = float(FRAMES - 1)
    slowest = cfg.delay_init_mean + 6.0 * cfg.delay_init_spread + last_frame
    _require(
        cfg.stimulus_window >= slowest,
        "stimulus_window",
        f"must be >= delay_init_mean + 6*delay_init_spread + {last_frame:g} "
        f"({slowest:g})",
    )


def _parse_value(field: str, raw: str, line_no: int):
    try:
        if field in _INT_FIELDS:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigParseError(line_no, f"bad value for {field}: {exc}") from None


def parse_config_text(text: str) -> SimConfig:
    """Parse ``key = value`` lines into a validated :class:`SimConfig`."""
    overrides: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigParseError(line_no, f"expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigParseError(line_no, f"unknown key {key!r}")
        if not raw:
            raise ConfigParseError(line_no, f"missing value for {key!r}")
        if key in overrides:
            raise ConfigParseError(line_no, f"duplicate key {key!r}")
        overrides[key] = _parse_value(key, raw, line_no)
    return SimConfig(**overrides)


def load_config(path: str | Path) -> SimConfig:
    """Load a config file; missing keys fall back to the defaults above."""
    return parse_config_text(Path(path).read_text())


def config_to_text(cfg: SimConfig) -> str:
    """Serialize with full float precision so parsing the text gives back ``cfg``."""
    lines = [f"{f.name} = {getattr(cfg, f.name)!r}" for f in dataclasses.fields(SimConfig)]
    return "\n".join(lines) + "\n"


@dataclass
class RngStream:
    """A named, independent random stream.

    The generator state is derived solely from ``(seed, stream_id)``, so a
    given draw index yields the same value on every run and platform.
    """

    seed: int
    stream_id: int

    def __post_init__(self):
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id,)
        )
        self.generator = np.random.Generator(np.random.PCG64(ss))


def draw_gaussian_array(
    stream: RngStream, mean: float, std: float, shape
) -> np.ndarray:
    """Gaussian draws of ``shape`` from the stream; std = 0 gives exactly the mean."""
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    if std == 0:
        return np.full(shape, float(mean))
    return stream.generator.normal(mean, std, size=shape)
