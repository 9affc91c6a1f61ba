import numpy as np
import pytest

from hamtrack.io_mot import MAX_FRAME, write_embedding_file, write_mot_rows
from hamtrack.synthgen import (MAX_CANVAS_PIXELS, MAX_EMBED_DIM, MAX_FP_RATE,
                               ConfidenceRegime, ObjectSpec, OcclusionEvent,
                               ScenarioSpec, Xoshiro256StarStar, generate,
                               parse_scenario, validate_scenario)
from scenario_utils import crossing_spec, line_spec


class TestRng:
    def test_splitmix_seeding_reference_value(self):
        # splitmix64 from seed 0 famously yields 0xE220A8397B1DCDAF first.
        from hamtrack.synthgen import _splitmix64
        assert next(_splitmix64(0)) == 0xE220A8397B1DCDAF

    def test_deterministic_streams(self):
        a = Xoshiro256StarStar(99)
        b = Xoshiro256StarStar(99)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_uniform_open_interval(self):
        rng = Xoshiro256StarStar(5)
        values = [rng.uniform() for _ in range(10_000)]
        assert all(0.0 < v < 1.0 for v in values)
        assert abs(sum(values) / len(values) - 0.5) < 0.02

    def test_normal_moments(self):
        rng = Xoshiro256StarStar(6)
        values = np.array([rng.normal(10.0, 3.0) for _ in range(20_000)])
        assert values.mean() == pytest.approx(10.0, abs=0.1)
        assert values.std() == pytest.approx(3.0, abs=0.1)

    def test_unit_vector(self):
        rng = Xoshiro256StarStar(7)
        v = rng.unit_vector(16)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestGenerate:
    def test_same_seed_same_bytes(self):
        spec = crossing_spec(4)
        a = generate(spec)
        b = generate(spec)
        assert write_mot_rows(a.det_rows) == write_mot_rows(b.det_rows)
        assert write_mot_rows(a.gt_rows) == write_mot_rows(b.gt_rows)
        assert (write_embedding_file(spec.embed_dim, a.embeddings)
                == write_embedding_file(spec.embed_dim, b.embeddings))

    def test_different_seed_differs(self):
        base = line_spec(jitter=1.0)
        a = generate(base)
        b = generate(ScenarioSpec(**{**base.__dict__, "seed": base.seed + 1}))
        assert write_mot_rows(a.det_rows) != write_mot_rows(b.det_rows)

    def test_noise_free_detections_equal_gt(self):
        spec = line_spec(n_objects=2, conf_mean=33.0, conf_std=0.0)
        out = generate(spec)
        assert len(out.det_rows) == len(out.gt_rows)
        for (fg, _, gbox, _), (fd, _, dbox, conf) in zip(out.gt_rows, out.det_rows):
            assert fg == fd
            assert (gbox.x, gbox.y, gbox.w, gbox.h) == (dbox.x, dbox.y, dbox.w, dbox.h)
            assert conf == pytest.approx(33.0)

    def test_occlusion_removes_frames_exactly(self):
        spec = line_spec(n_frames=30)
        spec = ScenarioSpec(**{**spec.__dict__,
                               "events": (OcclusionEvent(obj=0, start=10, end=12),)})
        out = generate(spec)
        gt_frames = {f for f, gid, _, _ in out.gt_rows if gid == 1}
        det_frames = {f for f, _, _, _ in out.det_rows}
        expected = set(range(1, 31)) - {10, 11, 12}
        assert gt_frames == expected
        assert det_frames == expected

    def test_gt_internally_consistent(self):
        out = generate(crossing_spec(2))
        spec = crossing_spec(2)
        seen = set()
        for frame, gid, box, _ in out.gt_rows:
            key = (frame, gid)
            assert key not in seen
            seen.add(key)
            assert box.w > 0 and box.h > 0
            assert box.x >= 0 and box.y >= 0
            assert box.x + box.w <= spec.canvas_w
            assert box.y + box.h <= spec.canvas_h

    def test_row_count_bookkeeping(self):
        spec = ScenarioSpec(
            seed=11, n_frames=200,
            objects=(ObjectSpec(waypoints=((1, 100.0, 100.0), (200, 500.0, 120.0)),
                                w=40.0, h=60.0),
                     ObjectSpec(waypoints=((1, 120.0, 110.0), (200, 520.0, 130.0)),
                                w=40.0, h=60.0)),
            fp_rate=0.3, merge_prob=0.2, fragment_prob=0.1, jitter_std=1.0,
        )
        out = generate(spec)
        assert len(out.det_rows) == (len(out.gt_rows) - out.n_merges
                                     + out.n_false_positives)
        assert out.n_merges > 0
        assert out.n_false_positives > 0
        assert out.n_fragments > 0

    def test_confidence_regimes(self):
        spec = ScenarioSpec(
            seed=3, n_frames=1000,
            objects=(ObjectSpec(waypoints=((1, 100.0, 100.0), (1000, 500.0, 100.0)),
                                w=30.0, h=60.0),),
            regimes=(ConfidenceRegime(1, 61.7, 5.0), ConfidenceRegime(501, 21.9, 5.0)),
        )
        out = generate(spec)
        first = [conf for frame, _, _, conf in out.det_rows if frame <= 500]
        second = [conf for frame, _, _, conf in out.det_rows if frame > 500]
        assert np.mean(first) == pytest.approx(61.7, abs=0.5)
        assert np.mean(second) == pytest.approx(21.9, abs=0.5)

    def test_frames_rendered_with_object_colors(self):
        spec = line_spec(n_frames=5)
        out = generate(spec, with_frames=True)
        assert set(out.frames) == {1, 2, 3, 4, 5}
        img = out.frames[1]
        assert img.shape == (spec.canvas_h, spec.canvas_w, 3)
        gt_box = out.gt_rows[0][2]
        cx, cy = int(gt_box.cx), int(gt_box.cy)
        assert tuple(img[cy, cx]) != (64, 64, 64)
        assert tuple(img[5, spec.canvas_w - 5]) == (64, 64, 64)

    def test_embeddings_follow_det_rows(self):
        out = generate(crossing_spec(3))
        per_frame = {}
        for frame, _, _, _ in out.det_rows:
            per_frame[frame] = per_frame.get(frame, 0) + 1
        for frame, ordinal, vec in out.embeddings:
            assert 0 <= ordinal < per_frame[frame]
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_spec_rejected(self):
        spec = line_spec()
        bad = ScenarioSpec(**{**spec.__dict__,
                              "events": (OcclusionEvent(obj=0, start=0, end=5),)})
        with pytest.raises(ValueError, match="event.0"):
            generate(bad)


class TestValidateScenario:
    def test_default_line_spec_valid(self):
        assert validate_scenario(line_spec()) == []

    def test_span_outside_frames(self):
        spec = line_spec(n_frames=20)
        bad = ScenarioSpec(**{**spec.__dict__,
                              "events": (OcclusionEvent(obj=0, start=5, end=25),)})
        assert any("event.0" in e for e in validate_scenario(bad))

    def test_rates_in_unit_interval(self):
        spec = ScenarioSpec(**{**line_spec().__dict__, "merge_prob": 1.5})
        assert any("merge_prob" in e for e in validate_scenario(spec))

    def test_frames_within_what_track_accepts(self):
        # Validated only: generating this many frames would take hours.
        assert validate_scenario(line_spec(n_frames=MAX_FRAME)) == []
        too_long = validate_scenario(line_spec(n_frames=MAX_FRAME + 1))
        assert too_long == [f"n_frames must be in [1, {MAX_FRAME}]"]

    def test_requires_objects(self):
        assert any("object" in e for e in validate_scenario(ScenarioSpec()))

    @pytest.mark.parametrize("key, at_cap, over_cap, message", [
        ("fp_rate", MAX_FP_RATE, MAX_FP_RATE * 1.001, f"fp_rate must be in [0, {MAX_FP_RATE:g}]"),
        ("fp_rate", 0.0, float("nan"), f"fp_rate must be in [0, {MAX_FP_RATE:g}]"),
        ("embed_dim", MAX_EMBED_DIM, MAX_EMBED_DIM + 1, f"embed_dim must be in [1, {MAX_EMBED_DIM}]"),
        ("canvas_w", MAX_CANVAS_PIXELS // 480, MAX_CANVAS_PIXELS // 480 + 1,
         f"canvas_w x canvas_h must be at most {MAX_CANVAS_PIXELS} pixels"),
    ])
    def test_generation_sizes_capped(self, key, at_cap, over_cap, message):
        # Validated only: a spec at a cap would take long to generate.
        assert validate_scenario(line_spec(**{key: at_cap})) == []
        assert validate_scenario(line_spec(**{key: over_cap})) == [message]


SCN_TEXT = """
seed = 9
n_frames = 50
jitter_std = 0.5
embed_dim = 8

regime.0.start = 1
regime.0.mean = 40
regime.0.std = 3

object.0.w = 30
object.0.h = 60
object.0.waypoints = 1:50,100; 50:300,120

event.0.object = 0
event.0.start = 20
event.0.end = 24
"""


class TestParseScenario:
    def test_full_parse(self):
        spec = parse_scenario(SCN_TEXT)
        assert spec.seed == 9
        assert spec.n_frames == 50
        assert spec.embed_dim == 8
        assert spec.objects[0].waypoints == ((1, 50.0, 100.0), (50, 300.0, 120.0))
        assert spec.events[0] == OcclusionEvent(obj=0, start=20, end=24, by=None)
        assert spec.regimes[0].mean == 40.0
        assert validate_scenario(spec) == []

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown scenario key"):
            parse_scenario("bogus = 1\n")

    def test_bad_waypoints_named(self):
        with pytest.raises(ValueError, match="object.0.waypoints"):
            parse_scenario("object.0.w = 5\nobject.0.h = 5\nobject.0.waypoints = zzz\n")

    def test_missing_attr_named(self):
        with pytest.raises(ValueError, match="event.0.end"):
            parse_scenario(SCN_TEXT.replace("event.0.end = 24\n", ""))

    def test_occluder_reference(self):
        text = SCN_TEXT + "\nevent.0.by = 0\n"
        spec = parse_scenario(text)
        assert spec.events[0].by == 0
