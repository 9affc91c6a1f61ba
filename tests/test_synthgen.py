import math
import re
import tracemalloc
from collections.abc import Mapping
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamtrack import synthgen
from hamtrack.io_mot import MAX_FRAME, write_embedding_file, write_mot_rows, write_ppm
from hamtrack.synthgen import (MAX_CANVAS_PIXELS, MAX_DRAWS, MAX_EMBED_DIM, MAX_FP_RATE,
                               SPEC_GROUPS, ConfidenceRegime, ObjectSpec, OcclusionEvent,
                               ScenarioSpec, Xoshiro256StarStar, generate,
                               parse_scenario, validate_scenario)
from scenario_utils import crossing_spec, line_spec, peak_bytes


class TestRng:
    def test_splitmix_seeding_reference_value(self):
        # splitmix64 from seed 0 famously yields 0xE220A8397B1DCDAF first.
        from hamtrack.synthgen import _splitmix64
        assert next(_splitmix64(0)) == 0xE220A8397B1DCDAF

    def test_deterministic_streams(self):
        a = Xoshiro256StarStar(99)
        b = Xoshiro256StarStar(99)
        assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]

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


class PerDrawXoshiro:
    """The draw-at-a-time generator the chunked one replaced, kept as the reference stream."""

    def __init__(self, seed: int):
        seeder = synthgen._splitmix64(seed & synthgen._MASK64)
        self._s = [next(seeder) for _ in range(4)]
        if not any(self._s):
            self._s[0] = 1

    def next_u64(self) -> int:
        mask = synthgen._MASK64

        def rotl(x: int, k: int) -> int:
            return ((x << k) | (x >> (64 - k))) & mask

        s0, s1, s2, s3 = self._s
        result = (rotl((s1 * 5) & mask, 7) * 9) & mask
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        return ((self.next_u64() >> 11) + 0.5) * (2.0 ** -53)

    def normal(self, mu: float = 0.0, sd: float = 1.0) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        return mu + sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int, mu: float = 0.0, sd: float = 1.0) -> np.ndarray:
        return np.array([self.normal(mu, sd) for _ in range(n)], dtype=float)

    def unit_vector(self, dim: int) -> np.ndarray:
        v = np.array([self.normal() for _ in range(dim)])
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            v[0] = 1.0
            norm = 1.0
        return v / norm


# One draw call: the method's name and its arguments.
DRAWS = st.one_of(
    st.tuples(st.just("uniform")),
    st.tuples(st.just("normal"), st.floats(-1e3, 1e3), st.floats(0.0, 1e2)),
    st.tuples(st.just("normals"), st.integers(0, 40), st.floats(-1e3, 1e3), st.floats(0.0, 1e2)),
    st.tuples(st.just("unit_vector"), st.integers(1, 40)))


def draw_bits(rng, method: str, *args) -> bytes:
    """What ``rng.method(*args)`` returns, as bytes, so that equal means bit for bit equal."""
    return np.asarray(getattr(rng, method)(*args), dtype=np.float64).tobytes()


class TestChunkedStream:
    """The buffered generator gives the reference's stream, value for value."""

    def check(self, seed: int, chunk: int, calls) -> None:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synthgen, "_CHUNK", chunk)
            rng, ref = Xoshiro256StarStar(seed), PerDrawXoshiro(seed)
            for k, call in enumerate([*calls, ("uniform",), ("normals", 3 * chunk, 0.0, 1.0)]):
                assert draw_bits(rng, *call) == draw_bits(ref, *call), (k, call)

    @given(seed=st.integers(0, 2**64 - 1), chunk=st.integers(1, 9),
           calls=st.lists(DRAWS, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_any_interleaving(self, seed, chunk, calls):
        self.check(seed, chunk, calls)

    # The last call reads no draw: it must neither refill nor skip the chunk's first draw.
    @pytest.mark.parametrize("call", [("uniform",), ("normal", 2.0, 3.0),
                                      ("normals", 2, 2.0, 3.0), ("unit_vector", 3),
                                      ("normals", 0, 2.0, 3.0)])
    @pytest.mark.parametrize("chunks_read", [0, 1, 3])
    def test_first_draw_of_a_chunk(self, call, chunks_read):
        self.check(17, 4, [("uniform",)] * (4 * chunks_read) + [call, call])

    @pytest.mark.parametrize("n", [5, 8, 9, 100])
    def test_normals_over_several_chunks(self, n):
        self.check(3, 4, [("uniform",), ("normals", n, 1.0, 0.5), ("uniform",)])

    def test_a_run_over_many_chunks(self):
        calls = [("uniform",), ("normal", 0.0, 1.0), ("normals", 6, 0.0, 0.02),
                 ("unit_vector", 5)] * 40
        self.check(8, 7, calls)

    def test_default_chunk(self):
        calls = [("normals", 128, 0.0, 0.02), ("normal", 30.0, 5.0), ("uniform",)] * 40
        self.check(2, synthgen._CHUNK, calls)

    def test_buffer_does_not_grow_with_the_run(self):
        rng = Xoshiro256StarStar(4)

        def draws():
            for _ in range(10 * synthgen._CHUNK):
                rng.uniform()
            rng.normals(synthgen._CHUNK)

        # About 130 B a chunk draw at the peak: one chunk's state words, arrays and
        # float list, and normals(n)'s 2n uniforms and n results. Ten chunks kept
        # alive would be several times the bound.
        assert peak_bytes(draws) < 256 * synthgen._CHUNK


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

    def test_a_merge_whose_vectors_blend_to_zero_keeps_a_unit_vector(self):
        # Two opposite 1-d unit vectors average to 0: the merge keeps the first one's, as a
        # detection whose noisy vector is 0 keeps its object's.
        spec = ScenarioSpec(seed=5, n_frames=3, embed_dim=1, merge_prob=1.0, objects=tuple(
            ObjectSpec(waypoints=((1, x, 100.0), (3, x, 100.0)), w=30.0, h=60.0)
            for x in (100.0, 110.0)))
        out = generate(spec)
        assert out.n_merges == 3
        assert [abs(float(v[0])) for _, _, v in out.embeddings] == [1.0] * 3
        assert "nan" not in write_embedding_file(1, out.embeddings)

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

    def test_generating_and_writing_frames_keeps_no_image(self):
        spec = line_spec(n_objects=2, n_frames=200, embed_dim=4)
        canvas = spec.canvas_w * spec.canvas_h * 3
        assert canvas == 640 * 480 * 3
        tracemalloc.start()
        try:
            out = generate(spec, with_frames=True)
            for _, image in out.frames.items():
                write_ppm(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.frames) == 200
        assert peak < 10 * canvas

    def test_frames_are_a_read_only_mapping_drawn_alike_each_read(self):
        out = generate(line_spec(n_objects=2, n_frames=5), with_frames=True)
        assert isinstance(out.frames, Mapping)
        first, again = out.frames[3], out.frames[3]
        assert first is not again
        np.testing.assert_array_equal(first, again)
        assert 5 in out.frames and 6 not in out.frames
        with pytest.raises(KeyError):
            out.frames[6]
        with pytest.raises(TypeError):
            out.frames[1] = first

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

    def test_regime_is_the_last_begun_in_start_order(self):
        regimes = (ConfidenceRegime(12, 60.0, 0.0), ConfidenceRegime(5, 40.0, 0.0),
                   ConfidenceRegime(12, 20.0, 0.0), ConfidenceRegime(8, 50.0, 0.0))
        out = generate(replace(line_spec(n_frames=20), regimes=regimes))
        expected = [40.0] * 7 + [50.0] * 4 + [20.0] * 9  # the first one before any has begun
        assert [conf for _, _, _, conf in out.det_rows] == expected

    def test_lead_in_takes_the_first_listed_event_that_covers_it(self):
        spec = line_spec(n_objects=3, n_frames=30, embed_dim=4, embed_noise_std=0.0,
                         corrupt_frames=6, corrupt_blend=1.0,
                         events=(OcclusionEvent(obj=0, start=20, end=22, by=1),
                                 OcclusionEvent(obj=0, start=16, end=17, by=2),
                                 OcclusionEvent(obj=1, start=3, end=4, by=2)))
        out = generate(spec)
        vectors = {}  # (object, frame) -> descriptor; no jitter, merge or false positive
        for (frame, _, box, _), (_, _, vec) in zip(out.det_rows, out.embeddings):
            vectors[round((box.y + box.h / 2.0 - 60.0) / 90.0), frame] = vec
        looks_like = {frame: next(k for k in range(3) if np.array_equal(vectors[0, frame],
                                                                        vectors[k, 5]))
                      for frame in range(1, 31) if (0, frame) in vectors}
        assert looks_like == {**dict.fromkeys(range(1, 10), 0), **dict.fromkeys(range(10, 14), 2),
                              **dict.fromkeys((14, 15, 18, 19), 1),
                              **dict.fromkeys(range(23, 31), 0)}
        # object 1's lead-in reaches back past frame 1 and is clamped there
        assert np.array_equal(vectors[1, 1], vectors[2, 5])
        assert np.array_equal(vectors[1, 2], vectors[2, 5])

    def test_lead_ins_far_longer_than_the_scene_cost_what_n_frames_costs(self):
        spec = line_spec(n_objects=3, n_frames=40, jitter=1.0, embed_dim=4, corrupt_blend=0.5,
                         events=tuple(OcclusionEvent(obj=k, start=10 + 9 * k, end=12 + 9 * k,
                                                     by=(k + 1) % 3) for k in range(3)))

        def generated(corrupt_frames):
            return write_embedding_file(4, generate(replace(spec, corrupt_frames=corrupt_frames))
                                        .embeddings)

        # unclamped, each event's lead-in would list 10**6 frames: hundreds of MB
        assert peak_bytes(lambda: generate(replace(spec, corrupt_frames=10**6))) < 2**20
        huge = generated(10**6)
        assert huge == generated(spec.n_frames)
        assert huge != generated(0)

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

    @pytest.mark.parametrize("change, message", [
        ({"canvas_w": 7}, "canvas must be at least 8x8"),
        ({"canvas_h": 7}, "canvas must be at least 8x8"),
        ({"jitter_std": -0.5}, "jitter_std must be >= 0"),
        ({"embed_noise_std": -0.01}, "embed_noise_std must be >= 0"),
        ({"corrupt_frames": -1}, "corrupt_frames must be >= 0"),
        ({"objects": (ObjectSpec(waypoints=(), w=30.0, h=60.0),)},
         "object.0.waypoints is empty"),
        ({"objects": (ObjectSpec(waypoints=((9, 60.0, 60.0), (2, 90.0, 60.0)), w=30.0, h=60.0),)},
         "object.0.waypoints frames must be ascending"),
        ({"objects": (ObjectSpec(waypoints=((0, 60.0, 60.0), (9, 90.0, 60.0)), w=30.0, h=60.0),)},
         "object.0.waypoints outside [1, 40]"),
        ({"objects": (ObjectSpec(waypoints=((1, 60.0, 60.0), (41, 90.0, 60.0)), w=30.0, h=60.0),)},
         "object.0.waypoints outside [1, 40]"),
        ({"events": (OcclusionEvent(obj=1, start=5, end=6),)}, "event.0.object out of range"),
        ({"events": (OcclusionEvent(obj=0, start=5, end=6, by=-1),)}, "event.0.by out of range"),
        ({"regimes": ()}, "at least one confidence regime is required"),
        ({"regimes": (ConfidenceRegime(0, 45.0, 0.0),)}, "regime.0.start must be >= 1"),
        ({"regimes": (ConfidenceRegime(1, 45.0, -1.0),)}, "regime.0.std must be >= 0"),
    ])
    def test_each_message(self, change, message):
        assert validate_scenario(replace(line_spec(), **change)) == [message]

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

    def test_draws_of_a_run_capped(self):
        # Validated only: a spec at the budget would take about ten minutes to generate.
        message = f"n_frames x (objects + fp_rate) x embed_dim must be at most {MAX_DRAWS:,}"
        at_budget = line_spec(n_objects=4, n_frames=MAX_DRAWS // (5 * 1000), fp_rate=1.0,
                              embed_dim=1000)
        assert validate_scenario(at_budget) == []
        assert validate_scenario(line_spec(n_objects=4, n_frames=at_budget.n_frames,
                                           fp_rate=1.001, embed_dim=1000)) == [message]
        # Each cap alone admits a spec the budget rejects.
        spec = line_spec(n_frames=MAX_FRAME, fp_rate=MAX_FP_RATE, embed_dim=MAX_EMBED_DIM)
        assert validate_scenario(spec) == [message]


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


# Every group attribute: a value it cannot parse, the message for that value,
# and the message when it is missing (None where it is optional).
FULL_SCN_TEXT = SCN_TEXT + "event.0.by = 0\n"
GROUP_ATTRIBUTES = [
    ("object.0.waypoints", "zzz", "object.0.waypoints: expected 'frame:x,y; ...', got 'zzz'",
     "object.0.waypoints: no waypoints given"),
    ("object.0.w", "q", "object.0.w: cannot parse 'q'", "object.0.w is required"),
    ("object.0.h", "q", "object.0.h: cannot parse 'q'", "object.0.h is required"),
    ("event.0.object", "1.5", "event.0.object: cannot parse '1.5'", "event.0.object is required"),
    ("event.0.start", "q", "event.0.start: cannot parse 'q'", "event.0.start is required"),
    ("event.0.end", "2e1", "event.0.end: cannot parse '2e1'", "event.0.end is required"),
    ("event.0.by", "", "event.0.by: cannot parse ''", None),
    ("regime.0.start", "1.0", "regime.0.start: cannot parse '1.0'", "regime.0.start is required"),
    ("regime.0.mean", "q", "regime.0.mean: cannot parse 'q'", "regime.0.mean is required"),
    ("regime.0.std", "", "regime.0.std: cannot parse ''", "regime.0.std is required"),
]


def scn_with(key, value=None):
    """FULL_SCN_TEXT with ``key`` set to ``value``, or without it when ``value`` is None."""
    line = "" if value is None else f"{key} = {value}\n"
    text, count = re.subn(rf"^{re.escape(key)} = .*\n", line, FULL_SCN_TEXT, flags=re.M)
    assert count == 1
    return text


class TestParseScenarioGroups:
    def test_table_covers_every_declared_attribute(self):
        declared = {f"{kind}.0.{f.metadata.get('key', f.name)}"
                    for kind, (_, cls) in SPEC_GROUPS.items() for f in fields(cls)}
        assert {key for key, *_ in GROUP_ATTRIBUTES} == declared

    @pytest.mark.parametrize("key, bad, bad_message, missing_message", GROUP_ATTRIBUTES)
    def test_missing_attribute(self, key, bad, bad_message, missing_message):
        if missing_message is None:
            assert parse_scenario(scn_with(key)).events[0].by is None
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(missing_message)}$"):
                parse_scenario(scn_with(key))

    @pytest.mark.parametrize("key, bad, bad_message, missing_message", GROUP_ATTRIBUTES)
    def test_unparsable_attribute(self, key, bad, bad_message, missing_message):
        with pytest.raises(ValueError, match=f"^{re.escape(bad_message)}$"):
            parse_scenario(scn_with(key, bad))

    @pytest.mark.parametrize("key", [key for key, *_ in GROUP_ATTRIBUTES] + ["event.0.obj"])
    def test_unknown_attribute(self, key):
        typo = key + "x" if key != "event.0.obj" else key
        with pytest.raises(ValueError, match=f"^unknown scenario key: {re.escape(typo)}$"):
            parse_scenario(FULL_SCN_TEXT + f"{typo} = 0\n")

    def test_typo_is_named_rather_than_the_field_it_leaves_unset(self):
        text = FULL_SCN_TEXT.replace("event.0.by = 0", "event.0.bye = 0")
        with pytest.raises(ValueError, match="^unknown scenario key: event.0.bye$"):
            parse_scenario(text)
        text = FULL_SCN_TEXT.replace("regime.0.std = 3", "regime.0.sdt = 9")
        with pytest.raises(ValueError, match="^unknown scenario key: regime.0.sdt$"):
            parse_scenario(text)

    def test_full_spec_parses_every_attribute(self):
        spec = parse_scenario(FULL_SCN_TEXT)
        assert spec.objects == (ObjectSpec(((1, 50.0, 100.0), (50, 300.0, 120.0)), 30.0, 60.0),)
        assert spec.events == (OcclusionEvent(obj=0, start=20, end=24, by=0),)
        assert spec.regimes == (ConfidenceRegime(1, 40.0, 3.0),)
