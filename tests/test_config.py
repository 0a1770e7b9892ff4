"""Config parsing, validation, round-trips and the random stream contract."""

import math

import numpy as np
import pytest

from delaysnn.config import (
    STREAM_DELAYS,
    STREAM_NOISE,
    STREAM_WEIGHTS,
    ConfigParseError,
    ConfigValidationError,
    RngStream,
    SimConfig,
    config_to_text,
    draw_gaussian_array,
    load_config,
    parse_config_text,
)
from delaysnn.dataset import FRAMES


class TestParsing:
    def test_empty_file_gives_all_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(path)
        assert cfg == SimConfig()
        assert cfg.threshold == 4.15
        assert cfg.tau_m == 20.0
        assert cfg.A_plus == 5.0 and cfg.A_minus == 5.0
        assert cfg.tau_plus == 0.0001 and cfg.tau_minus == 0.0001
        assert cfg.B_plus == 5.0 and cfg.B_minus == 5.0
        assert cfg.sigma_plus == 0.001 and cfg.sigma_minus == 0.001
        assert cfg.weight_init_mean == 0.95 and cfg.weight_init_std == 0.05
        assert cfg.delay_init_mean == 50.0 and cfg.delay_init_spread == 0.02
        assert cfg.freeze_c == 0.001
        assert cfg.growth_factor == 0.0001

    def test_override_single_key(self):
        cfg = parse_config_text("grid_height = 17\n")
        assert cfg.grid_height == 17
        assert cfg.grid_width == SimConfig().grid_width
        assert cfg.threshold == 4.15

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\nthreshold = 5.0  # trailing\n")
        assert cfg.threshold == 5.0

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("threshold = 4.15\nbogus = 1\n")
        assert err.value.line_no == 2

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("threshold 4.15\n")
        assert err.value.line_no == 1

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("tau_m = fast\n")
        assert err.value.line_no == 1

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("threshold = 1\n# again\nthreshold = 4\n")
        assert err.value.line_no == 3
        assert "duplicate key 'threshold'" in str(err.value)

    def test_strict_freeze_key_is_unknown(self):
        # The freeze premise is reported in every manifest, not enforced
        # by a config switch.
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("freeze_c = 6.0\nstrict_freeze = true\n")
        assert err.value.line_no == 2
        assert "unknown key 'strict_freeze'" in str(err.value)


class TestValidation:
    def test_b_minus_zero_rejected(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config_text("B_minus = 0\n")
        assert err.value.field == "B_minus"

    def test_freeze_c_nonpositive_rejected(self):
        with pytest.raises(ConfigValidationError) as err:
            SimConfig(freeze_c=0.0)
        assert err.value.field == "freeze_c"

    def test_time_constants_positive(self):
        for field in ("tau_m", "tau_plus", "tau_minus", "sigma_plus", "sigma_minus", "dt"):
            with pytest.raises(ConfigValidationError):
                SimConfig(**{field: 0.0})

    def test_window_must_cover_slowest_arrival(self):
        with pytest.raises(ConfigValidationError) as err:
            SimConfig(stimulus_window=30.0)
        assert err.value.field == "stimulus_window"
        SimConfig(stimulus_window=30.0, delay_init_mean=20.0)
        # Exact bound: delay_init_mean + 6 spreads + the last frame time
        # (FRAMES - 1 frame gaps of one time unit).
        bound = 20.0 + 6.0 * 0.5 + (FRAMES - 1)
        SimConfig(stimulus_window=bound, delay_init_mean=20.0, delay_init_spread=0.5)
        with pytest.raises(ConfigValidationError) as err:
            SimConfig(stimulus_window=np.nextafter(bound, 0.0), delay_init_mean=20.0,
                      delay_init_spread=0.5)
        assert err.value.field == "stimulus_window"

    def test_negative_w_min_rejected(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config_text("w_min = -0.1\n")
        assert err.value.field == "w_min"
        assert "must be >= 0" in str(err.value)
        assert SimConfig(w_min=0.0).w_min == 0.0

    def test_step_longer_than_window_rejected(self):
        # A window shorter than one step would simulate no step at all.
        with pytest.raises(ConfigValidationError) as err:
            SimConfig(dt=1000.0)
        assert err.value.field == "dt"
        assert SimConfig(dt=60.0).dt == 60.0

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigValidationError) as err:
            SimConfig(rng_seed=-1)
        assert err.value.field == "rng_seed"
        assert SimConfig(rng_seed=2**64 - 1).rng_seed == 2**64 - 1

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_floats_rejected(self, value):
        for field in ("tau_m", "stimulus_window", "w_max", "threshold_min"):
            with pytest.raises(ConfigValidationError) as err:
                SimConfig(**{field: value})
            assert err.value.field == field
            assert "finite" in str(err.value)


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = SimConfig(grid_height=9, noise_std=0.0123456789012345, rng_seed=7)
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_save_load_identity(self, tmp_path):
        cfg = SimConfig(tau_m=19.5)
        path = tmp_path / "cfg.txt"
        path.write_text(config_to_text(cfg))
        assert load_config(path) == cfg


class TestRngStreams:
    def test_zero_std_is_exactly_mean(self):
        stream = RngStream(0, STREAM_WEIGHTS)
        assert draw_gaussian_array(stream, 0.95, 0.0, 1)[0] == 0.95

    def test_negative_std_rejected(self):
        stream = RngStream(0, STREAM_WEIGHTS)
        with pytest.raises(ValueError):
            draw_gaussian_array(stream, 0.0, -1.0, 1)

    def test_same_seed_same_sequence(self):
        a = RngStream(42, STREAM_WEIGHTS)
        b = RngStream(42, STREAM_WEIGHTS)
        seq_a = draw_gaussian_array(a, 0.0, 1.0, 100)
        seq_b = draw_gaussian_array(b, 0.0, 1.0, 100)
        assert (seq_a == seq_b).all()

    def test_streams_are_independent(self):
        w = RngStream(42, STREAM_WEIGHTS)
        d = RngStream(42, STREAM_DELAYS)
        seq_w = draw_gaussian_array(w, 0.0, 1.0, 10)
        seq_d = draw_gaussian_array(d, 0.0, 1.0, 10)
        assert (seq_w != seq_d).all()

    def test_seeds_do_not_alias(self):
        def draws(seed):
            return RngStream(seed, STREAM_WEIGHTS).generator.random(8).tolist()

        # Seeds below 2**64 seed the stream with their own value ...
        for seed in (0, 2**64 - 1):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_WEIGHTS,))
            assert draws(seed) == np.random.Generator(np.random.PCG64(ss)).random(8).tolist()
        # ... and wider ones are not folded back onto them.
        assert draws(2**64) != draws(0)
        assert draws(2**64 + 5) != draws(5)

    def test_consecutive_blocks_equal_one_draw(self):
        # The network draws a stimulus's noise block by block; how a draw
        # is split must change neither the values nor the stream's state.
        whole = RngStream(3, STREAM_NOISE)
        split = RngStream(3, STREAM_NOISE)
        expected = draw_gaussian_array(whole, 0.0, 0.05, (600, 7))
        blocks = [draw_gaussian_array(split, 0.0, 0.05, (n, 7)) for n in (67, 1, 250, 282)]
        assert np.concatenate(blocks).tobytes() == expected.tobytes()
        assert split.generator.bit_generator.state == whole.generator.bit_generator.state

    def test_zero_std_consumes_nothing(self):
        stream = RngStream(3, STREAM_NOISE)
        before = stream.generator.bit_generator.state
        draw_gaussian_array(stream, 0.0, 0.0, (600, 7))
        assert stream.generator.bit_generator.state == before

    def test_bulk_matches_contract(self):
        stream = RngStream(7, STREAM_DELAYS)
        arr = draw_gaussian_array(stream, 50.0, 0.0, (3, 3))
        assert (arr == 50.0).all()

    def test_sample_mean_of_million_draws(self):
        # CLT bound: std of the mean is 0.05/1000, the window is 10 sigma.
        stream = RngStream(42, STREAM_WEIGHTS)
        draws = draw_gaussian_array(stream, 0.95, 0.05, 1_000_000)
        assert 0.9495 <= float(draws.mean()) <= 0.9505
        assert abs(float(draws.std()) - 0.05) <= 0.0005
