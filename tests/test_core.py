import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamtrack.core import (AppearanceDescriptor, BBox, Detection,
                           TrackerConfig, box_columns, config_from_mapping, parse_kv_text,
                           validate_config)
from hamtrack.synthgen import parse_scenario


class TestBBox:
    def test_center(self):
        box = BBox(0, 0, 10, 20)
        assert box.center() == (5.0, 10.0)

    @pytest.mark.parametrize("w,h", [(0, 10), (-1, 10), (10, 0), (10, -5)])
    def test_rejects_nonpositive_size(self, w, h):
        with pytest.raises(ValueError):
            BBox(0, 0, w, h)

    @pytest.mark.parametrize("w,h", [(1e-170, 1e-170), (1e-300, 1e-30), (5e-324, 0.1)])
    def test_rejects_area_that_underflows(self, w, h):
        with pytest.raises(ValueError, match="bbox area underflows to 0"):
            BBox(0, 0, w, h)

    def test_tiny_area_above_zero_accepted(self):
        box = BBox(0, 0, 1e-160, 1e-160)
        assert box.w * box.h > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            BBox(bad, 0, 10, 10)


class TestBoxColumns:
    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_shape(self, k):
        assert box_columns([BBox(1, 2, 3, 4)] * k).shape == (4, k)

    @given(st.lists(st.tuples(*[st.floats(-1e6, 1e6)] * 2, *[st.floats(1e-3, 1e6)] * 2),
                    max_size=8))
    def test_centres_are_bit_equal_to_the_properties(self, fields):
        boxes = [BBox(*f) for f in fields]
        x, y, w, h = box_columns(boxes)
        assert (x + w / 2.0).tolist() == [b.cx for b in boxes]
        assert (y + h / 2.0).tolist() == [b.cy for b in boxes]
        assert np.stack([x, y, w, h], axis=1).tolist() == [[b.x, b.y, b.w, b.h] for b in boxes]


class TestDetection:
    def test_frame_must_be_positive(self):
        with pytest.raises(ValueError):
            Detection(frame=0, bbox=BBox(0, 0, 1, 1), confidence=1.0)

    def test_confidence_must_be_finite(self):
        with pytest.raises(ValueError):
            Detection(frame=1, bbox=BBox(0, 0, 1, 1), confidence=math.nan)

    def test_raw_confidence_scale_is_kept(self):
        det = Detection(frame=1, bbox=BBox(0, 0, 1, 1), confidence=-37.25)
        assert det.confidence == -37.25


class TestAppearanceDescriptor:
    def test_histogram_accepts_normalized(self):
        d = AppearanceDescriptor.histogram([0.25, 0.75])
        assert d.kind == "histogram"
        assert d.values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_histogram_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            AppearanceDescriptor.histogram([1.0, 1.0])

    def test_histogram_explicit_normalization(self):
        d = AppearanceDescriptor.histogram([1.0, 3.0], normalize=True)
        np.testing.assert_allclose(d.values, [0.25, 0.75])

    def test_histogram_rejects_negative(self):
        with pytest.raises(ValueError):
            AppearanceDescriptor.histogram([-0.5, 1.5])

    def test_embedding_requires_unit_norm(self):
        with pytest.raises(ValueError):
            AppearanceDescriptor.embedding([3.0, 4.0])
        d = AppearanceDescriptor.embedding([3.0, 4.0], normalize=True)
        np.testing.assert_allclose(d.values, [0.6, 0.8])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AppearanceDescriptor.histogram([])

    def test_zero_mass_cannot_normalize(self):
        with pytest.raises(ValueError):
            AppearanceDescriptor.histogram([0.0, 0.0], normalize=True)
        with pytest.raises(ValueError):
            AppearanceDescriptor.embedding([0.0, 0.0], normalize=True)

    @pytest.mark.parametrize("values", [[1e308, 1.0], [1e200, 1e200]])
    def test_overflowing_norm_named_without_warnings(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="vector norm overflows a double"):
                AppearanceDescriptor.embedding(values, normalize=True)

    def test_values_read_only(self):
        d = AppearanceDescriptor.histogram([0.5, 0.5])
        with pytest.raises(ValueError):
            d.values[0] = 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=64)
           .filter(lambda v: sum(v) > 1e-9))
    def test_normalized_histogram_invariant(self, values):
        d = AppearanceDescriptor.histogram(values, normalize=True)
        assert abs(float(d.values.sum()) - 1.0) <= 1e-9

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=64)
           .filter(lambda v: math.sqrt(sum(x * x for x in v)) > 1e-6))
    def test_normalized_embedding_invariant(self, values):
        d = AppearanceDescriptor.embedding(values, normalize=True)
        assert abs(float(np.linalg.norm(d.values)) - 1.0) <= 1e-9


class TestValidateConfig:
    def test_defaults_pass(self):
        assert validate_config(TrackerConfig()) == []

    def test_beta_out_of_range(self):
        errors = validate_config(TrackerConfig(beta=1.5))
        assert errors == ["beta out of [0,1]"]

    def test_sigma_not_positive_definite(self):
        errors = validate_config(TrackerConfig(sigma_xx=0.0, sigma_xy=0.0, sigma_yy=0.0))
        assert errors == ["sigma not positive-definite"]

    def test_every_violation_reported(self):
        cfg = TrackerConfig(beta=2.0, rho=1.0, p_d=0.0, xi=-1.0,
                            filter_mode="bogus", alpha_mode="maybe")
        errors = validate_config(cfg)
        joined = "\n".join(errors)
        for name in ("beta", "rho", "p_d", "xi", "filter_mode", "alpha_mode"):
            assert name in joined
        assert len(errors) == 6

    @pytest.mark.parametrize("name", ["hist_max", "hist_window", "confirm_hits", "max_age"])
    def test_integer_fields_must_fit_int64(self, name):
        assert validate_config(TrackerConfig(**{name: 2**63 - 1})) == []
        assert validate_config(TrackerConfig(**{name: 2**63})) == [
            f"{name} must fit in a 64-bit integer"]

    @pytest.mark.parametrize("name, value, message", [
        ("eta", -0.5, "eta must be finite and >= 0"),
        ("eta", math.inf, "eta must be finite and >= 0"),
        ("tau_conf", 1.5, "tau_conf out of [0,1]"),
        ("hist_window", 0, "hist_window must be >= 1"),
        ("tau_const", math.nan, "tau_const must be finite"),
        ("max_age", 0, "max_age must be >= 1"),
        ("process_noise", -0.1, "process_noise must be >= 0"),
        ("measurement_noise", math.inf, "measurement_noise must be >= 0"),
        ("conf_decay", -0.1, "conf_decay out of [0,1]"),
    ])
    def test_each_message(self, name, value, message):
        assert validate_config(TrackerConfig(**{name: value})) == [message]

    def test_fixed_alpha_mode_accepted(self):
        assert validate_config(TrackerConfig(alpha_mode="0.3")) == []
        assert validate_config(TrackerConfig(alpha_mode="1.5")) != []


class TestKvText:
    def test_basic_parse(self):
        text = "# comment\nxi = 2.0\n\ntau_asc = 0.1  # inline\n"
        assert parse_kv_text(text) == {"xi": "2.0", "tau_asc": "0.1"}

    def test_missing_equals_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_kv_text("a = 1\nnot a pair\n")

    def test_last_key_wins(self):
        assert parse_kv_text("a = 1\na = 2\n") == {"a": "2"}


@pytest.mark.parametrize("parse, text, message", [
    (parse_kv_text, "a = 1\n = 2\n", "line 2: empty key"),
    (lambda text: config_from_mapping(parse_kv_text(text)), "use_ham = maybe",
     "config key use_ham: expected a boolean, got 'maybe'"),
    (parse_scenario, "object.first.w = 30\n", "object.first.w: index must be an integer"),
])
def test_parser_messages(parse, text, message):
    with pytest.raises(ValueError) as err:
        parse(text)
    assert str(err.value) == message


class TestConfigFromMapping:
    def test_coercion(self):
        cfg = config_from_mapping({"xi": "2.5", "hist_max": "5", "use_ham": "off"})
        assert cfg.xi == 2.5
        assert cfg.hist_max == 5
        assert cfg.use_ham is False

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key: bogus"):
            config_from_mapping({"bogus": "1"})

    def test_bad_value_names_key(self):
        with pytest.raises(ValueError, match="xi"):
            config_from_mapping({"xi": "fast"})

    def test_layered_overrides(self):
        base = config_from_mapping({"xi": "2.0", "eta": "3.0"})
        final = config_from_mapping({"xi": "4.0"}, base)
        assert final.xi == 4.0
        assert final.eta == 3.0
