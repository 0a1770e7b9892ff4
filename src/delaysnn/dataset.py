"""Random moving-dots stimuli and their spike encoding.

Each stimulus animates 10 dots over 5 frames, one time unit apart. Five
"coherent" dots share one of the four diagonal headings and advance
exactly one cell in x and one in y per frame, so their trajectories stay
on-lattice; the other five re-draw a uniformly random heading every frame
and keep a per-dot speed drawn from [0.5, 2.0] cells per frame. Positions
wrap toroidally and are rounded to the nearest cell for spike emission.

Angle convention: +x right, +y up, angles counter-clockwise, so +45 steps
by (+1, +1) and -135 by (-1, -1) per frame.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .config import STREAM_DATASET, RngStream, SimConfig

DIRECTIONS = (45, -45, 135, -135)

_DIAGONAL_STEP = {
    45: (1, 1),
    -45: (1, -1),
    135: (-1, 1),
    -135: (-1, -1),
}

STIMULI_PER_DATASET = 100
COHERENT_DOTS = 5
RANDOM_DOTS = 5
FRAMES = 5

RANDOM_SPEED_RANGE = (0.5, 2.0)


class DatasetFormatError(ValueError):
    """Malformed dataset file. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Spike(NamedTuple):
    x: int
    y: int
    t: int
    coherent: bool


@dataclass
class Stimulus:
    id: int
    direction: int
    spikes: list


@dataclass
class Dataset:
    grid_height: int
    grid_width: int
    stimuli: list = field(default_factory=list)


def dot_paths(rng, direction: int, grid) -> list:
    """Animate one stimulus's dots: the coherent ones, then the random ones.

    Returns one ``(positions, coherent)`` pair per dot, one position per
    frame, wrapped onto the ``grid = (width, height)`` torus. A coherent
    dot starts on a cell and steps one diagonal cell per frame; a random
    dot keeps its drawn speed and re-draws its heading every frame.
    """
    w, h = grid
    dx, dy = _DIAGONAL_STEP[direction]
    paths = []
    for _ in range(COHERENT_DOTS):
        x, y = float(rng.integers(0, w)), float(rng.integers(0, h))
        paths.append(([((x + t * dx) % w, (y + t * dy) % h) for t in range(FRAMES)], True))
    for _ in range(RANDOM_DOTS):
        x, y = rng.uniform(0, w), rng.uniform(0, h)
        speed = float(rng.uniform(*RANDOM_SPEED_RANGE))
        positions = [(x % w, y % h)]
        for theta in rng.uniform(0.0, 2.0 * math.pi, size=FRAMES - 1).tolist():
            x += speed * math.cos(theta)
            y += speed * math.sin(theta)
            positions.append((x % w, y % h))
        paths.append((positions, False))
    return paths


def _emit_spikes(paths, grid) -> list:
    """Round positions to cells and merge coincident (x, y, t) samples.

    A merged sample is coherent if any contributing dot was coherent.
    Spikes come out ordered by (t, y, x).
    """
    w, h = grid
    merged: dict = {}
    for positions, coherent in paths:
        for t, (px, py) in enumerate(positions):
            cell = (t, round(py) % h, round(px) % w)
            merged[cell] = merged.get(cell, False) or coherent
    make = Spike._make
    return [make((x, y, t, merged[t, y, x])) for t, y, x in sorted(merged)]


def generate_dataset(cfg: SimConfig, seed: int) -> Dataset:
    """Generate the balanced 100-stimulus moving-dots set, deterministically.

    Each of the four diagonal directions is assigned to exactly 25 stimuli,
    in a seed-determined order.
    """
    if cfg.grid_height < 5 or cfg.grid_width < 5:
        raise ValueError(
            f"grid {cfg.grid_height}x{cfg.grid_width} too small for moving-dots stimuli"
        )
    rng = RngStream(seed, STREAM_DATASET).generator
    grid = (cfg.grid_width, cfg.grid_height)

    per_direction = STIMULI_PER_DATASET // len(DIRECTIONS)
    directions = [d for d in DIRECTIONS for _ in range(per_direction)]
    order = rng.permutation(len(directions))
    stimuli = [
        Stimulus(stim_id, direction, _emit_spikes(dot_paths(rng, direction, grid), grid))
        for stim_id, direction in enumerate(directions[i] for i in order)
    ]
    return Dataset(grid_height=cfg.grid_height, grid_width=cfg.grid_width, stimuli=stimuli)


_HEADER_RE = re.compile(r"^mdots v1 grid=(\d+)x(\d+) stimuli=(\d+)$")
_STIM_RE = re.compile(r"^S (\d+) dir=(-?\d+)$")


def write_dataset(ds: Dataset, path: str | Path) -> None:
    lines = [f"mdots v1 grid={ds.grid_height}x{ds.grid_width} stimuli={len(ds.stimuli)}"]
    for stim in ds.stimuli:
        lines.append(f"S {stim.id} dir={stim.direction}")
        lines.extend([f"{x} {y} {t} {1 if coh else 0}" for x, y, t, coh in stim.spikes])
    Path(path).write_text("\n".join(lines) + "\n")


def _first_non_decimal_line(text: str) -> int | None:
    """Number of the first line holding a character that ``int()`` reads
    but the file grammar forbids (non-ASCII digits, ``_``, ``+``); None
    when there is none. Scans the whole text once in the common case."""
    if text.isascii() and "_" not in text and "+" not in text:
        return None
    for line_no, line in enumerate(text.splitlines(keepends=True), start=1):
        if not line.isascii() or "_" in line or "+" in line:
            return line_no
    return None


def _non_decimal_error(lines: list, line_no: int) -> DatasetFormatError:
    line = lines[line_no - 1].strip()
    return DatasetFormatError(
        line_no, f"numbers must be ASCII decimal integers (no '+' or '_'), got {line!r}"
    )


def _spike_line_fault(parts: list, stripped: str, grid_h: int, grid_w: int) -> str:
    """Why a line inside a stimulus, which ``read_dataset``'s fast path
    refused, is not a valid spike line."""
    if len(parts) != 4:
        return f"expected 'x y t coherent', got {stripped!r}"
    try:
        x, y, t, coh = map(int, parts)
    except ValueError:
        return f"non-integer spike field in {stripped!r}"
    if coh not in (0, 1):
        return f"coherent flag must be 0 or 1, got {coh}"
    if not (0 <= x < grid_w and 0 <= y < grid_h):
        return f"spike at x={x}, y={y} lies outside the {grid_h}x{grid_w} grid"
    return f"spike time must be in [0, {FRAMES - 1}], got {t}"


def read_dataset(path: str | Path) -> Dataset:
    """Parse a dataset file; an empty file is a valid empty dataset.

    Every number is an ASCII decimal integer; blank lines and whitespace
    around a line are ignored. Spikes must lie on the declared grid and
    within the frame range, and every stimulus direction must be one of
    :data:`DIRECTIONS`.
    """
    text = Path(path).read_text()
    if not text.strip():
        return Dataset(grid_height=0, grid_width=0, stimuli=[])

    lines = text.splitlines()
    bad_line = _first_non_decimal_line(text)
    if bad_line == 1:
        raise _non_decimal_error(lines, bad_line)
    header = _HEADER_RE.match(lines[0].strip())
    if header is None:
        raise DatasetFormatError(1, f"bad header {lines[0]!r}")
    grid_h, grid_w = int(header.group(1)), int(header.group(2))
    declared = int(header.group(3))

    stimuli: list = []
    spikes: list | None = None  # the current stimulus's spike list
    make = Spike._make
    # The lines before a non-decimal one are read first, so an earlier
    # fault is still the one reported.
    body = lines[1:bad_line - 1] if bad_line else lines[1:]
    known: dict = {}  # valid spike line text -> its (immutable) Spike
    for line_no, line in enumerate(body, start=2):
        # Fast path: a valid spike line inside a stimulus. The grid holds
        # few distinct spikes, so most lines are a dictionary hit.
        spike = known.get(line)
        if spike is None:
            try:
                x, y, t, coh = map(int, line.split())
            except ValueError:
                pass
            else:
                if 0 <= x < grid_w and 0 <= y < grid_h and 0 <= t < FRAMES and 0 <= coh <= 1:
                    spike = known[line] = make((x, y, t, coh == 1))
        if spike is not None and spikes is not None:
            spikes.append(spike)
            continue
        parts = line.split()
        if not parts:
            continue
        stripped = line.strip()
        stim_match = _STIM_RE.match(stripped) if parts[0] == "S" else None
        if stim_match is None:
            if spikes is None:
                raise DatasetFormatError(line_no, f"spike line before any stimulus: {stripped!r}")
            raise DatasetFormatError(line_no, _spike_line_fault(parts, stripped, grid_h, grid_w))
        direction = int(stim_match.group(2))
        if direction not in DIRECTIONS:
            raise DatasetFormatError(
                line_no, f"direction must be one of {DIRECTIONS}, got {direction}"
            )
        spikes = []
        stimuli.append(Stimulus(id=int(stim_match.group(1)), direction=direction, spikes=spikes))

    if bad_line:
        raise _non_decimal_error(lines, bad_line)
    if len(stimuli) != declared:
        raise DatasetFormatError(
            len(lines), f"header declares {declared} stimuli, found {len(stimuli)}"
        )
    return Dataset(grid_height=grid_h, grid_width=grid_w, stimuli=stimuli)
