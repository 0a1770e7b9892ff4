"""Moving-dots generation, trajectory math and the file format."""

import hashlib
from collections import Counter

import pytest

from delaysnn.config import SimConfig
from delaysnn.dataset import (
    COHERENT_DOTS,
    DIRECTIONS,
    FRAMES,
    RANDOM_DOTS,
    STIMULI_PER_DATASET,
    DatasetFormatError,
    coherent_trajectory,
    generate_dataset,
    read_dataset,
    write_dataset,
)

CFG = SimConfig()

# sha256 of the file that write_dataset writes for generate_dataset(SimConfig(), 0).
SEED0_SHA256 = "3aa334f6a304a51671ddbef6081756911434cd26dc3c0cdf7d750259d5b03ac5"

_STEP = {45: (1, 1), -45: (1, -1), 135: (-1, 1), -135: (-1, -1)}


class TestCoherentTrajectory:
    def test_five_samples_on_the_diagonal(self):
        got = coherent_trajectory((3, 3), 45, 5)
        assert got == [(3, 3), (4, 4), (5, 5), (6, 6), (7, 7)]

    def test_one_step_down_left(self):
        got = coherent_trajectory((3, 3), -135, 2)
        assert got[1] == (2, 2)

    def test_zero_steps_is_just_the_start(self):
        assert coherent_trajectory((3, 3), 45, 0) == [(3, 3)]

    def test_wraps_toroidally(self):
        got = coherent_trajectory((14, 14), 45, 2, grid=(15, 15))
        assert got == [(14, 14), (0, 0)]

    def test_non_diagonal_rejected(self):
        with pytest.raises(ValueError):
            coherent_trajectory((0, 0), 90, 5)

    def test_all_four_direction_steps(self):
        for angle, (dx, dy) in _STEP.items():
            a, b = coherent_trajectory((5, 5), angle, 2)
            assert (b[0] - a[0], b[1] - a[1]) == (dx, dy)


class TestGenerateDataset:
    def test_counts_and_times(self):
        ds = generate_dataset(CFG, 42)
        assert len(ds.stimuli) == STIMULI_PER_DATASET == 100
        for stim in ds.stimuli:
            assert stim.direction in DIRECTIONS
            # 10 dots x 5 frames merge to at most 50 distinct spikes
            assert 0 < len(stim.spikes) <= COHERENT_DOTS * FRAMES + RANDOM_DOTS * FRAMES
            for sp in stim.spikes:
                assert sp.t in (0, 1, 2, 3, 4)
                assert 0 <= sp.x < CFG.grid_width
                assert 0 <= sp.y < CFG.grid_height

    def test_direction_balance_exactly_uniform(self):
        ds = generate_dataset(CFG, 7)
        hist = Counter(stim.direction for stim in ds.stimuli)
        assert all(hist[d] == 25 for d in DIRECTIONS)

    def test_deterministic_in_seed(self):
        a = generate_dataset(CFG, 9)
        b = generate_dataset(CFG, 9)
        assert a == b
        c = generate_dataset(CFG, 10)
        assert a != c

    def test_coherent_spikes_form_parallel_diagonals(self):
        # Back-projecting each coherent spike by t steps of the declared
        # direction must land on at most 5 shared anchors (the dot starts),
        # and every anchor must be covered at all five frames.
        ds = generate_dataset(CFG, 11)
        w, h = CFG.grid_width, CFG.grid_height
        for stim in ds.stimuli:
            dx, dy = _STEP[stim.direction]
            coherent = [sp for sp in stim.spikes if sp.coherent]
            assert coherent
            anchors = {((sp.x - sp.t * dx) % w, (sp.y - sp.t * dy) % h) for sp in coherent}
            assert 1 <= len(anchors) <= COHERENT_DOTS
            cells = {(sp.x, sp.y, sp.t) for sp in coherent}
            for (ax, ay) in anchors:
                for t in range(FRAMES):
                    assert ((ax + t * dx) % w, (ay + t * dy) % h, t) in cells

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(CFG.replace(grid_height=4, grid_width=15,
                                         delay_init_mean=20.0, stimulus_window=60.0), 1)


class TestFileFormat:
    def test_round_trip_identity(self, tmp_path):
        ds = generate_dataset(CFG, 3)
        path = tmp_path / "dots.mdots"
        write_dataset(ds, path)
        assert read_dataset(path) == ds

    def test_seed0_file_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "dots.mdots"
        write_dataset(generate_dataset(SimConfig(rng_seed=0), 0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SEED0_SHA256

    @pytest.mark.parametrize("cfg, seed", [
        (CFG, 17),
        (SimConfig(grid_height=9, grid_width=13), 5),
    ], ids=["second-seed", "grid-9x13"])
    def test_round_trip_identity_on_other_inputs(self, tmp_path, cfg, seed):
        ds = generate_dataset(cfg, seed)
        assert (ds.grid_height, ds.grid_width) == (cfg.grid_height, cfg.grid_width)
        path = tmp_path / "dots.mdots"
        write_dataset(ds, path)
        assert read_dataset(path) == ds
        first = path.read_bytes()
        write_dataset(read_dataset(path), path)
        assert path.read_bytes() == first

    def test_blank_lines_and_surrounding_whitespace_accepted(self, tmp_path):
        path = tmp_path / "spaced"
        path.write_text("  mdots v1 grid=7x9 stimuli=2 \n\n S 0 dir=45\t\n\t8 6 4 1  \n"
                        "   \n0 0 0 0\nS 1 dir=-135\n\n")
        ds = read_dataset(path)
        assert (ds.grid_height, ds.grid_width) == (7, 9)
        assert [(s.id, s.direction) for s in ds.stimuli] == [(0, 45), (1, -135)]
        assert [tuple(sp) for sp in ds.stimuli[0].spikes] == [(8, 6, 4, True), (0, 0, 0, False)]
        assert ds.stimuli[1].spikes == []

    def test_write_is_deterministic(self, tmp_path):
        ds = generate_dataset(CFG, 3)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_dataset(ds, p1)
        write_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty"
        path.write_text("")
        ds = read_dataset(path)
        assert ds.stimuli == []

    def test_truncated_spike_line_reports_line(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("mdots v1 grid=15x15 stimuli=1\nS 0 dir=45\n3 3 0\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line_no == 3

    def test_bad_header_reports_line_one(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("dots v9\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line_no == 1

    def test_spike_before_stimulus_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("mdots v1 grid=15x15 stimuli=0\n1 2 3 0\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    def test_header_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("mdots v1 grid=15x15 stimuli=2\nS 0 dir=45\n1 2 3 1\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    def test_non_integer_field_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("mdots v1 grid=15x15 stimuli=1\nS 0 dir=45\n1 2 x 1\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("line, reason", [
        ("S 1 dir=7", "direction"),
        ("1 1 1 2", "coherent flag must be 0 or 1, got 2"),
        ("S 0 dir=x", "expected 'x y t coherent'"),
        ("S 0 dir=45 x", "non-integer spike field"),
        # int() reads these as 1, 3 and 3; the grammar takes ASCII decimals only.
        ("0_1 4 0 1", "ASCII decimal"),
        ("+3 4 0 0", "ASCII decimal"),
        ("\u0663 4 0 1", "ASCII decimal"),
        ("S \u0663 dir=45", "ASCII decimal"),
        ("9 0 0 1", "outside"),
        ("0 7 0 1", "outside"),
        ("-1 0 0 1", "outside"),
        ("0 -3 0 1", "outside"),
        ("0 0 5 1", "time"),
        ("0 0 -1 1", "time"),
    ])
    def test_out_of_range_field_reports_line(self, tmp_path, line, reason):
        # On a 7-high, 9-wide grid, line 4 follows a stimulus whose one
        # spike sits at the far corner and the last frame, so only the bad
        # field is out of range.
        path = tmp_path / "bad"
        path.write_text(f"mdots v1 grid=7x9 stimuli=1\nS 0 dir=45\n8 6 4 1\n{line}\n",
                        encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=reason) as err:
            read_dataset(path)
        assert err.value.line_no == 4

    @pytest.mark.parametrize("number", ["1_5", "+15", "\u0661\u0665"],
                             ids=["underscore", "plus", "arabic-indic"])
    def test_non_decimal_header_reports_line_one(self, tmp_path, number):
        path = tmp_path / "bad"
        path.write_text(f"mdots v1 grid={number}x15 stimuli=1\nS 0 dir=45\n1 2 1 1\n",
                        encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="ASCII decimal") as err:
            read_dataset(path)
        assert err.value.line_no == 1

    def test_earlier_fault_beats_a_later_non_decimal_line(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("mdots v1 grid=15x15 stimuli=1\nS 0 dir=45\n1 2 9 1\n+3 4 0 1\n")
        with pytest.raises(DatasetFormatError, match="spike time") as err:
            read_dataset(path)
        assert err.value.line_no == 3
