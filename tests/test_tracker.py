import dataclasses
import gc
import math
import re
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from hamtrack import affinity, appearance, kalman, sadf
from hamtrack import tracker as tracker_module
from hamtrack.cli import main
from hamtrack.association import associate
from hamtrack.core import (HISTOGRAM, LEAST_NOISE, AppearanceDescriptor, BBox, Detection,
                           TrackerConfig)
from hamtrack.io_mot import histogram_from_patch, write_result_file
from hamtrack.synthgen import OcclusionEvent, ScenarioSpec, generate
from hamtrack.tracker import MOTION, FrameDescriptors, Tracker, run_sequence
from scenario_utils import (crossing_spec, line_spec, scenario_inputs, slot_loop_ham_scores,
                            track_scenario)

E = AppearanceDescriptor.embedding


def det(frame, x, y=100.0, w=30.0, h=60.0, conf=50.0):
    return Detection(frame=frame, bbox=BBox(x, y, w, h), confidence=conf)


def keyed(descriptors):
    """A descriptor source over a ``{(frame, ordinal): descriptor}`` dict."""
    return lambda frame, ordinal: descriptors[frame, ordinal]


def walker(frames, x0=50.0, vx=4.0, **kw):
    return {f: [det(f, x0 + vx * (f - 1), **kw)] for f in frames}


NO_FILTER = TrackerConfig(filter_mode="none")
OCCLUSION_SCENE = Path(appearance.__file__).parent / "scenarios" / "occlusion.scn"


class TestObservedPairs:
    def test_bit_equal_to_the_box_properties(self):
        # Born filters start on what they observe of each box: its centre, then (w, h).
        rng = np.random.default_rng(13)
        boxes = [BBox(*rng.uniform(-500, 2000, size=2), *rng.uniform(0.5, 300, size=2))
                 for _ in range(40)]
        tracker = Tracker(TrackerConfig(filter_mode="none", confirm_hits=1),
                          use_appearance=False)
        result = tracker.step(1, [Detection(1, box, 50.0) for box in boxes])
        expected = np.array([(b.center(), (b.w, b.h)) for b in boxes])
        assert np.array_equal(tracker.table.filters.mean[:, :, :2], expected)
        assert [id(box) for _, box in result.tracks] == list(map(id, boxes))  # the caller's own
        assert tracker.step(2, []).diagnostics.n_raw == 0


class TestStepBasics:
    def test_empty_stream(self):
        results = run_sequence({}, NO_FILTER, use_appearance=False, n_frames=5)
        assert len(results) == 5
        assert all(fr.tracks == () for fr in results)

    def test_single_object_keeps_one_id(self):
        dets = walker(range(1, 41))
        results = run_sequence(dets, NO_FILTER, use_appearance=False)
        ids = {tid for fr in results for tid, _ in fr.tracks}
        assert ids == {1}
        assert all(len(fr.tracks) == 1 for fr in results)

    def test_output_box_is_detection_box(self):
        dets = walker(range(1, 6))
        results = run_sequence(dets, NO_FILTER, use_appearance=False)
        for fr in results:
            tid, box = fr.tracks[0]
            assert box == dets[fr.frame][0].bbox

    @pytest.mark.parametrize("setting,problem", [
        ({"filter_mode": "bogus"}, "filter_mode must be one of"),
        ({"tau_asc": 2.0}, "tau_asc out of [0,1]"),
        ({"confirm_hits": 0}, "confirm_hits must be >= 1"),
        ({"hist_max": -1}, "hist_max must be >= 0"),
        ({"hist_max": 2**63}, "hist_max must fit in a 64-bit integer"),
    ])
    def test_invalid_config_rejected(self, setting, problem):
        with pytest.raises(ValueError, match=r"^invalid tracker config: ") as err:
            Tracker(TrackerConfig(**setting))
        assert problem in str(err.value)

    def test_invalid_config_lists_every_problem(self):
        cfg = TrackerConfig(tau_asc=2.0, confirm_hits=0, hist_max=-1)
        with pytest.raises(ValueError) as err:
            run_sequence({}, cfg, n_frames=1)
        assert str(err.value) == ("invalid tracker config: tau_asc out of [0,1]; "
                                  "hist_max must be >= 0; confirm_hits must be >= 1")

    def test_frames_must_increase(self):
        tracker = Tracker(NO_FILTER, use_appearance=False)
        tracker.step(3, [])
        with pytest.raises(ValueError, match="strictly increase"):
            tracker.step(3, [])

    def test_detection_frame_must_match(self):
        tracker = Tracker(NO_FILTER, use_appearance=False)
        with pytest.raises(ValueError, match="frame"):
            tracker.step(1, [det(2, 50.0)])

    def test_missing_descriptor_source_rejected(self):
        tracker = Tracker(NO_FILTER, use_appearance=True)
        with pytest.raises(ValueError, match="descriptor"):
            tracker.step(1, [det(1, 50.0)])

    @pytest.mark.parametrize("changed", [
        ("histogram", np.array([[0.5, 0.5]])),  # kind
        ("embedding", np.array([[1.0, 0.0, 0.0]])),  # width
        ("embedding", np.array([[1.0, 0.0], [0.0, 1.0]])),  # two rows for one detection
        ("embedding", np.array([1.0, 0.0])),  # not rows
    ])
    def test_frame_descriptors_that_change_shape_are_rejected(self, changed):
        # A by-frame source gets the check a per-detection one gets.
        def rows(frame, ordinals):
            fine = ("embedding", np.tile([1.0, 0.0], (len(ordinals), 1)))
            return changed if frame == 3 else fine

        tracker = Tracker(NO_FILTER, descriptor_source=FrameDescriptors(rows))
        for frame in (1, 2):
            tracker.step(frame, [det(frame, 50.0 + 4 * frame)])
        with pytest.raises(ValueError, match=r"^descriptor kind or length mismatch in frame 3: "
                                             r"expected 1 embedding rows of length 2"):
            tracker.step(3, [det(3, 62.0)])

    def test_first_frame_rows_must_match_the_detections(self):
        tracker = Tracker(NO_FILTER, descriptor_source=FrameDescriptors(
            lambda frame, ordinals: ("embedding", np.zeros((len(ordinals) + 1, 2)))))
        with pytest.raises(ValueError, match="^descriptor kind or length mismatch in frame 1"):
            tracker.step(1, [det(1, 50.0)])

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("rows", [[[1.0, 0.0]], ([1.0, 0.0],), np.float64(1.0)])
    def test_frame_descriptors_that_are_not_an_array_are_rejected(self, rows, first):
        # Rows that are not a numpy array are named, in the first frame or a later one.
        tracker = Tracker(NO_FILTER, descriptor_source=FrameDescriptors(
            lambda frame, ordinals: ("embedding", rows if first or frame == 2
                                     else np.array([[1.0, 0.0]]))))
        if not first:
            tracker.step(1, [det(1, 50.0)])
        frame = 1 if first else 2
        with pytest.raises(ValueError, match=rf"^descriptor kind or length mismatch in frame "
                                             rf"{frame}: expected 1 embedding rows of length "
                                             rf"{'d' if first else 2}, got embedding rows of "):
            tracker.step(frame, [det(frame, 54.0)])

    @pytest.mark.parametrize("first_kept", [1, 3])
    def test_frame_descriptors_of_an_unknown_kind_are_rejected(self, first_kept):
        # Only histograms and embeddings have a scorer: no other kind is scored or stored.
        tracker = Tracker(NO_FILTER, descriptor_source=FrameDescriptors(
            lambda frame, ordinals: ("foo", np.tile([1.0, 0.0], (len(ordinals), 1)))))
        for frame in range(1, first_kept):
            tracker.step(frame, [])
        with pytest.raises(ValueError, match=rf"^unknown descriptor kind 'foo' in frame "
                                             rf"{first_kept}: expected 'histogram' or 'embedding'"):
            tracker.step(first_kept, [det(first_kept, 50.0)])
        assert len(tracker.table.ids) == 0

    @pytest.mark.parametrize("changed", [E([1.0, 0.0, 0.0]),
                                         AppearanceDescriptor.histogram([0.5, 0.5])])
    def test_per_detection_descriptors_that_change_within_a_frame_name_it(self, changed):
        descriptors = {(1, 0): E([1.0, 0.0]), (2, 0): E([0.0, 1.0]), (2, 1): changed}
        tracker = Tracker(NO_FILTER, descriptor_source=keyed(descriptors))
        tracker.step(1, [det(1, 50.0)])
        with pytest.raises(ValueError, match=r"^descriptor kind or length mismatch in frame 2: "
                                             r"expected embedding descriptors of length 2"):
            tracker.step(2, [det(2, 54.0), det(2, 300.0)])

    @pytest.mark.parametrize("changed", [E([1.0, 0.0, 0.0]),
                                         AppearanceDescriptor.histogram([0.5, 0.5])])
    def test_per_detection_descriptors_that_change_are_rejected(self, changed):
        descriptors = {(1, 0): E([1.0, 0.0]), (2, 0): E([0.0, 1.0]), (2, 1): changed,
                       (3, 0): changed}
        tracker = Tracker(NO_FILTER, descriptor_source=keyed(descriptors))
        tracker.step(1, [det(1, 50.0)])
        with pytest.raises(ValueError, match="^descriptor kind or length mismatch"):
            tracker.step(2, [det(2, 54.0), det(2, 300.0)])  # within the frame
        tracker = Tracker(NO_FILTER, descriptor_source=keyed(descriptors))
        tracker.step(1, [det(1, 50.0)])
        with pytest.raises(ValueError, match="^descriptor kind or length mismatch in frame 3"):
            tracker.step(3, [det(3, 58.0)])  # against the first frame


def _state(tracker):
    """Everything a step may change: the table's arrays in field order, then the rest."""
    def leaves(value):
        return [x for v in value for x in leaves(v)] if isinstance(value, tuple) else [value]
    arrays = [x for value in vars(tracker.table).values() for x in leaves(value)]
    return arrays, (tracker.sadf_state, tracker._next_id, tracker._last_frame,
                    tracker._frame_count, tracker._kind, tracker._dim)


def _assert_same_state(a, b):
    (arrays_a, rest_a), (arrays_b, rest_b) = _state(a), _state(b)
    assert rest_a == rest_b
    assert len(arrays_a) == len(arrays_b)
    for x, y in zip(arrays_a, arrays_b):
        np.testing.assert_array_equal(x, y, strict=True)


class TestRejectedFrameLeavesNoTrace:
    # SADF on, and four walkers with spread confidences: it keeps some and drops some.
    CFG = TrackerConfig(filter_mode="sadf")
    BAD = {
        "unknown kind": lambda n: ("foo", np.tile([1.0, 0.0], (n, 1))),
        "row count": lambda n: ("embedding", np.tile([1.0, 0.0], (n + 1, 1))),
        "row length": lambda n: ("embedding", np.tile([1.0, 0.0, 0.0], (n, 1))),
        "not 2-d": lambda n: ("embedding", np.zeros((n, 2, 1))),
    }

    @staticmethod
    def frame(f):
        return [det(f, 50.0 + 100.0 * k + 4.0 * f, conf=30.0 + 10.0 * k) for k in range(4)]

    @staticmethod
    def source(at=None, bad=None):
        """Embeddings by frame; the first call for frame ``at`` answers ``bad(n)`` instead."""
        calls = []

        def rows(frame, ordinals):
            calls.append(frame)
            if frame == at and calls.count(at) == 1:
                return bad(len(ordinals))
            return "embedding", np.array([[np.cos(k), np.sin(k)] for k in ordinals])
        return FrameDescriptors(rows)

    def rejects_then_resumes(self, tracker, clean, at, match):
        """Step both through frame ``at``, which ``tracker`` rejects, then three more; the error."""
        for f in range(1, at):
            assert tracker.step(f, self.frame(f)) == clean.step(f, self.frame(f))
        with pytest.raises(ValueError, match=match) as rejected:
            tracker.step(at, self.frame(at))
        _assert_same_state(tracker, clean)
        for f in range(at, at + 4):
            assert tracker.step(f, self.frame(f)) == clean.step(f, self.frame(f))
        _assert_same_state(tracker, clean)
        assert clean._frame_count == at + 3 and len(clean.table.ids) > 0
        return rejected.value

    # In frame 1, or in frame 3 after two kept frames; the first frame's rows set the length.
    @pytest.mark.parametrize("bad, at", [(bad, at) for bad in sorted(BAD) for at in (1, 3)
                                         if (bad, at) != ("row length", 1)])
    def test_the_frame_then_steps_as_if_never_rejected(self, bad, at):
        tracker = Tracker(self.CFG, descriptor_source=self.source(at, self.BAD[bad]))
        clean = Tracker(self.CFG, descriptor_source=self.source())
        self.rejects_then_resumes(tracker, clean, at, "descriptor kind")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [1, 3])
    def test_non_finite_rows_are_rejected_naming_the_frame(self, value, at):
        def bad(n):
            rows = np.tile([1.0, 0.0], (n, 1))
            rows[-1, 1] = value
            return "embedding", rows
        tracker = Tracker(self.CFG, descriptor_source=self.source(at, bad))
        clean = Tracker(self.CFG, descriptor_source=self.source())
        self.rejects_then_resumes(tracker, clean, at,
                                  f"^descriptor rows in frame {at} hold non-finite values$")

    # A per-detection source answering None for the frame's first kept detection or its second.
    @pytest.mark.parametrize("call", [0, 1])
    @pytest.mark.parametrize("at", [1, 3])
    def test_a_source_that_returns_no_descriptor(self, call, at):
        asked, gave_none = [], []

        def source(frame, ordinal):
            asked.append(frame)
            if frame == at and asked.count(at) == call + 1:  # on the first try only
                gave_none.append(ordinal)
                return None
            return E([np.cos(ordinal), np.sin(ordinal)])

        tracker = Tracker(self.CFG, descriptor_source=source)
        clean = Tracker(self.CFG, descriptor_source=lambda f, k: E([np.cos(k), np.sin(k)]))
        rejected = self.rejects_then_resumes(tracker, clean, at, "has no descriptor")
        assert str(rejected) == (f"detection {gave_none[0]} in frame {at} has no descriptor: "
                                 f"the descriptor source returned NoneType")


class TestTallestBox:
    CFG = TrackerConfig(filter_mode="none", confirm_hits=1)

    def test_the_tallest_box_coasts_a_whole_life(self):
        tracker = Tracker(self.CFG, use_appearance=False)
        tracker.step(1, [det(1, 0.0, h=tracker.tallest)])
        for f in range(2, self.CFG.max_age + 2):  # missed max_age times: still alive
            tracker.step(f, [])
        assert tracker.table.misses.tolist() == [self.CFG.max_age]
        tracker.step(self.CFG.max_age + 2, [])  # the (max_age + 1)th predict, then death
        assert len(tracker.table.ids) == 0
        assert tracker.step(self.CFG.max_age + 3, [det(self.CFG.max_age + 3, 0.0)]).tracks

    def test_a_taller_kept_box_is_rejected_naming_frame_and_detection(self):
        tracker, clean = (Tracker(self.CFG, use_appearance=False) for _ in range(2))
        taller = float(np.nextafter(tracker.tallest, np.inf))
        dets = [det(1, 0.0), det(1, 300.0, h=taller)]
        with pytest.raises(ValueError) as rejected:
            tracker.step(1, dets)
        assert str(rejected.value) == (
            f"frame 1: detection 1 is {taller!r} px tall, above {tracker.tallest!r}: its Kalman "
            f"state overflows before a track has coasted max_age + 1 = 11 frames")
        _assert_same_state(tracker, clean)
        assert tracker.step(1, dets[:1]) == clean.step(1, dets[:1])

    def test_a_box_the_filter_drops_is_not_checked(self):
        cfg = dataclasses.replace(self.CFG, filter_mode="const", tau_const=10.0)
        tracker = Tracker(cfg, use_appearance=False)
        dropped = det(1, 300.0, h=float(np.nextafter(tracker.tallest, np.inf)), conf=5.0)
        assert len(tracker.step(1, [det(1, 0.0), dropped]).tracks) == 1

    def test_the_limit_follows_the_config(self):
        long_lived = dataclasses.replace(self.CFG, max_age=100, measurement_noise=1.0)
        assert Tracker(long_lived).tallest == kalman.tallest(101, 1.0, 0.05) < Tracker(
            self.CFG).tallest

    def test_the_widest_box_coasts_a_whole_life(self):
        tracker = Tracker(self.CFG, use_appearance=False)
        tracker.step(1, [det(1, 0.0, w=tracker.tallest), det(1, 0.0, w=tracker.tallest,
                                                            h=tracker.tallest)])
        for f in range(2, self.CFG.max_age + 2):  # missed max_age times: still alive
            tracker.step(f, [])
        assert tracker.table.misses.tolist() == [self.CFG.max_age] * 2
        tracker.step(self.CFG.max_age + 2, [])  # the (max_age + 1)th predict, then death
        assert len(tracker.table.ids) == 0

    def test_a_wider_kept_box_is_rejected_naming_frame_and_detection(self):
        tracker, clean = (Tracker(self.CFG, use_appearance=False) for _ in range(2))
        wider = float(np.nextafter(tracker.tallest, np.inf))
        dets = [det(1, 0.0), det(1, 300.0, w=wider)]
        with pytest.raises(ValueError) as rejected:
            tracker.step(1, dets)
        assert str(rejected.value) == (
            f"frame 1: detection 1 is {wider!r} px wide, above {tracker.tallest!r}: its Kalman "
            f"state may overflow before a track has coasted max_age + 1 = 11 frames")
        _assert_same_state(tracker, clean)
        assert tracker.step(1, dets[:1]) == clean.step(1, dets[:1])

    @pytest.mark.parametrize("over, k, side", [
        (("h", "w"), 0, "tall"), (("w", "h"), 0, "wide"), (("wh", ""), 0, "tall"),
        (("", "wh"), 1, "tall")], ids=["tall_then_wide", "wide_then_tall", "both", "second"])
    def test_the_first_box_over_on_either_side_is_named(self, over, k, side):
        tracker = Tracker(self.CFG, use_appearance=False)
        big = 2.0 * tracker.tallest
        dets = [det(1, 300.0 * j, **dict.fromkeys(sides, big)) for j, sides in enumerate(over)]
        with pytest.raises(ValueError, match=f"^frame 1: detection {k} is {re.escape(repr(big))} "
                                             f"px {side}, above "):
            tracker.step(1, dets)

    def test_a_too_wide_box_the_filter_drops_is_not_checked(self):
        cfg = dataclasses.replace(self.CFG, filter_mode="const", tau_const=10.0)
        tracker = Tracker(cfg, use_appearance=False)
        dropped = det(1, 300.0, w=sys.float_info.max, conf=5.0)
        assert len(tracker.step(1, [det(1, 0.0), dropped]).tracks) == 1

    NO_PROCESS_NOISE = dataclasses.replace(CFG, process_noise=0.0)

    def test_a_shorter_kept_box_is_rejected_naming_frame_and_detection(self):
        tracker, clean = (Tracker(self.NO_PROCESS_NOISE, use_appearance=False) for _ in range(2))
        shorter = float(np.nextafter(tracker.shortest, 0.0))
        dets = [det(1, 0.0), det(1, 300.0, w=1e-160, h=shorter)]
        with pytest.raises(ValueError) as rejected:
            tracker.step(1, dets)
        assert str(rejected.value) == (
            f"frame 1: detection 1 is {shorter!r} px tall, below {tracker.shortest!r}: too small "
            f"for its Kalman gain to stay finite")
        _assert_same_state(tracker, clean)
        assert tracker.step(1, dets[:1]) == clean.step(1, dets[:1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("process_noise", [LEAST_NOISE, 1e-150, 0.0])
    def test_no_measurement_noise_tracks_at_any_accepted_process_noise(self, process_noise):
        # One 60 px box a frame, then boxes of the least height, tallest and 1 px in turn:
        # below LEAST_NOISE (which validate_config now rejects) the first raised on 38 of
        # 40 frames and the second left non-finite means.
        cfg = dataclasses.replace(self.CFG, process_noise=process_noise, measurement_noise=0.0)
        tracker = Tracker(cfg, use_appearance=False)
        assert all(tracker.step(f, [det(f, 0.0)]).tracks for f in range(1, 41))
        tracker = Tracker(cfg, use_appearance=False)
        least = tracker.shortest or 1e-160
        for f in range(1, 201):
            h = (least, tracker.tallest, 1.0)[f % 3] if f % 7 else least
            assert tracker.step(f, [det(f, 0.0, w=h, h=h)]).tracks
            assert np.isfinite(tracker.table.filters.mean).all()
        with pytest.raises(ValueError, match="^invalid tracker config: measurement_noise = 0 "
                                             "needs process_noise = 0 or >= "):
            Tracker(dataclasses.replace(cfg, process_noise=1e-160))

    def test_process_noise_sets_no_least_height(self):
        tracker = Tracker(self.CFG, use_appearance=False)
        assert tracker.shortest == 0.0
        for f in range(1, 30):
            assert tracker.step(f, [det(f, 0.0, h=1e-160)]).tracks

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("noise", [0.1, 1e-3, 0.0])
    def test_shortest_and_tallest_boxes_in_turn_track_and_coast(self, noise):
        # Without process noise a matched filter's variances shrink with every update; at
        # the least height the gain still stays finite, whatever the track saw before.
        cfg = dataclasses.replace(self.NO_PROCESS_NOISE, measurement_noise=noise, max_age=3)
        tracker, ids = Tracker(cfg, use_appearance=False), set()
        assert tracker.shortest > 0
        for f in range(1, 201):
            h = (tracker.shortest, tracker.tallest, 1.0)[f % 3] if f % 7 else tracker.shortest
            ids |= {i for i, _ in tracker.step(f, [det(f, 0.0, w=h, h=h)]).tracks}
            assert np.isfinite(tracker.table.filters.mean).all()
        for f in range(201, 206):
            tracker.step(f, [])
        assert len(tracker.table.ids) == 0

    # The config whose tallest is the largest any valid config allows: max_age 1, no noise.
    LARGEST = TrackerConfig(filter_mode="none", max_age=1, process_noise=0.0,
                            measurement_noise=0.0, confirm_hits=1)

    def test_no_accepted_box_has_a_centre_past_the_largest_double(self):
        tracker = Tracker(self.LARGEST, use_appearance=False)
        side, top = tracker.tallest, sys.float_info.max
        assert side == math.sqrt(top / 32) / 20  # kalman.tallest's growth is at least 20
        corners = [Detection(1, BBox(-top, -top, side, side), 1.0),
                   Detection(1, BBox(top - side, top - side, side, side), 1.0)]
        assert len(tracker.step(1, corners).tracks) == 2
        assert np.isfinite(tracker.table.filters.mean[:, MOTION]).all()
        for f in range(2, self.LARGEST.max_age + 3):
            tracker.step(f, [])
        assert len(tracker.table.ids) == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("centre", [0.0, -sys.float_info.max, sys.float_info.max])
    @pytest.mark.parametrize("cfg", ["CFG", "LARGEST"])
    def test_widest_and_narrowest_boxes_in_turn_track_and_coast(self, cfg, centre):
        # Each frame's one box matches the last frame's: the shape filter's width jumps by
        # tallest every frame, and then coasts.
        cfg = getattr(self, cfg)
        tracker, ids = Tracker(cfg, use_appearance=False), set()
        for f in range(1, 41):
            w = tracker.tallest if f % 2 else 5e-324
            ids |= {i for i, _ in tracker.step(f, [det(f, centre - w / 2.0, w=w)]).tracks}
        for f in range(41, 43 + cfg.max_age):
            tracker.step(f, [])
        assert ids == {1} and len(tracker.table.ids) == 0


LANES = 4
LANE_SETS = st.lists(st.integers(0, LANES - 1), unique=True, max_size=LANES)


def _poisoned(value):
    """A rows answer: the embedding rows with ``value`` in the last one."""
    def answer(rows):
        rows = rows.copy()
        rows[-1, 0] = value
        return "embedding", rows
    return answer


BAD_ROWS = {  # what a rows call answers instead of its (n, 2) embedding rows, and the error
    "unknown kind": (lambda rows: ("foo", rows), "descriptor kind"),
    "row count": (lambda rows: ("embedding", rows[1:]), "^descriptor kind or length mismatch"),
    "row length": (lambda rows: ("embedding", rows[:, :1]), "^descriptor kind or length mismatch"),
    "not 2-d": (lambda rows: ("embedding", rows[..., None]), "^descriptor kind or length mismatch"),
    "nan": (_poisoned(np.nan), "^descriptor rows in frame [0-9]+ hold non-finite values$"),
    "inf": (_poisoned(-np.inf), "^descriptor rows in frame [0-9]+ hold non-finite values$"),
    "text": (lambda rows: ("embedding", rows.astype(str)),
             "^descriptor rows in frame [0-9]+ are <U32, not real numbers$"),
    "object": (lambda rows: ("embedding", rows.astype(object)),
               "^descriptor rows in frame [0-9]+ are object, not real numbers$"),
    "complex": (lambda rows: ("embedding", rows + 0j),
                "^descriptor rows in frame [0-9]+ are complex128, not real numbers$"),
}


class RejectedInputs(RuleBasedStateMachine):
    """Valid frames interleaved with every input ``step`` rejects and with a failure at each
    Kalman, fusion and association stage. A rejection leaves the tracker's state exactly as
    it was: equal to a shadow tracker's that saw only the valid frames, which must give the
    same results."""

    # A box 1e150 px tall is above this noise's ``tallest``; the lanes' 60 px boxes still
    # track under it.
    CFG = TrackerConfig(filter_mode="sadf", measurement_noise=1e10)

    def __init__(self):
        super().__init__()
        self.frame, self.lanes, self.bad = 0, [], None
        self.tracker = Tracker(self.CFG, descriptor_source=FrameDescriptors(self.rows))
        self.shadow = Tracker(self.CFG, descriptor_source=FrameDescriptors(self.good_rows))

    def good_rows(self, frame, ordinals):
        angles = np.array([self.lanes[k] for k in ordinals]) + 0.1 * np.sin(frame)
        return "embedding", np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def rows(self, frame, ordinals):
        kind, rows = self.good_rows(frame, ordinals)
        return self.bad(rows) if self.bad else (kind, rows)

    def dets(self, frame, lanes, extra=None):
        """The lanes' walkers in ``frame``, then ``extra``; SADF keeps an extra of confidence
        1e3, above every walker's, so the frame always asks for descriptors."""
        self.lanes = [*lanes, LANES] if extra else list(lanes)
        walkers = [det(frame, 50.0 + 100.0 * k + 4.0 * frame, conf=30.0 + 10.0 * k)
                   for k in lanes]
        return walkers + [extra] if extra else walkers

    def rejects(self, frame, dets, match, error=ValueError):
        with pytest.raises(error, match=match):
            self.tracker.step(frame, dets)
        _assert_same_state(self.tracker, self.shadow)

    @rule(lanes=LANE_SETS, skip=st.integers(1, 2))
    def valid_frame(self, lanes, skip):
        self.frame += skip
        dets = self.dets(self.frame, lanes)
        assert self.tracker.step(self.frame, dets) == self.shadow.step(self.frame, dets)
        _assert_same_state(self.tracker, self.shadow)

    @rule(back=st.integers(0, 1))
    def frame_does_not_increase(self, back):
        self.rejects(self.frame - back, [], "^frames must strictly increase")

    @rule(lanes=LANE_SETS)
    def detection_of_another_frame(self, lanes):
        stray = det(self.frame + 2, 900.0)
        self.rejects(self.frame + 1, self.dets(self.frame + 1, lanes, stray),
                     "^detection carries frame")

    @rule(lanes=LANE_SETS.filter(bool), bad=st.sampled_from(sorted(BAD_ROWS)))
    def bad_descriptor_rows(self, lanes, bad):
        answer, match = BAD_ROWS[bad]
        assume(bad != "row length" or self.tracker._dim)  # the first rows set the length
        self.bad = answer
        try:
            self.rejects(self.frame + 1,
                         self.dets(self.frame + 1, lanes, det(self.frame + 1, 900.0, conf=1e3)),
                         match)
        finally:
            self.bad = None

    @rule(lanes=LANE_SETS.filter(bool))
    def kalman_birth_overflows(self, lanes):
        tall = Detection(self.frame + 1, BBox(900.0, 0.0, 30.0, 1e150), 1e3)
        self.rejects(self.frame + 1, self.dets(self.frame + 1, lanes, tall),
                     "Kalman state overflows")

    @rule(lanes=LANE_SETS.filter(bool), x=st.sampled_from([1.7e308, sys.float_info.max]))
    def kept_box_too_wide(self, lanes, x):
        wide = Detection(self.frame + 1, BBox(x, 0.0, x, 60.0), 1e3)
        self.rejects(self.frame + 1, self.dets(self.frame + 1, lanes, wide),
                     f"^frame {self.frame + 1}: detection {len(lanes)} is {re.escape(repr(x))} "
                     f"px wide, above ")

    @rule(lanes=LANE_SETS, conf=st.sampled_from([np.nextafter(sadf.MAX_CONFIDENCE, np.inf),
                                                 -1e155, sys.float_info.max]))
    def confidence_beyond_sadf_bound(self, lanes, conf):
        loud = det(self.frame + 1, 900.0, conf=float(conf))
        self.rejects(self.frame + 1, self.dets(self.frame + 1, lanes, loud),
                     f"^frame {self.frame + 1}: detection {len(lanes)}'s confidence "
                     f"{re.escape(repr(float(conf)))} is beyond")

    @rule(lanes=LANE_SETS, stage=st.sampled_from(["predict", "update", "fuse_appearance",
                                                  "associate"]))
    def stage_fails(self, lanes, stage):
        owner = kalman if stage in ("predict", "update") else tracker_module
        done = getattr(owner, stage)

        def fails(*args, **kwargs):
            done(*args, **kwargs)  # first, so that whatever the stage writes is written
            raise RuntimeError(f"{stage} failed")
        with mock.patch.object(owner, stage, fails):
            self.rejects(self.frame + 1, self.dets(self.frame + 1, lanes), f"^{stage} failed$",
                         RuntimeError)


TestRejectedInputs = RejectedInputs.TestCase
TestRejectedInputs.settings = settings(max_examples=60, stateful_step_count=25, deadline=None)


class CopyingTable:
    """The track table as it was before it kept spare rows: a list of its twelve columns in
    field order, where a birth appends by concatenating every column and a death selects by
    gathering every column."""

    def __init__(self, d):
        self.columns = [np.arange(0), np.ones(0, dtype=int), np.zeros(0, dtype=int),
                        np.full(0, False), np.zeros((0, 2, 4)), np.zeros((0, 2, 3)),
                        *appearance.new_bank(np.zeros((0, d)))]

    def append(self, first_id, born, descriptors, confirmed):
        k, width = len(descriptors), self.columns[8].shape[1]
        rows = [np.arange(first_id, first_id + k), np.ones(k, dtype=int), np.zeros(k, dtype=int),
                np.full(k, confirmed), *born, *appearance.new_bank(descriptors, width)]
        self.columns = [np.concatenate([x, y]) for x, y in zip(self.columns, rows)]

    def select(self, keep):
        rows = np.flatnonzero(keep)
        self.columns = [col[rows] for col in self.columns]


class TableFrames(RuleBasedStateMachine):
    """Frames of births, deaths at the head, middle and tail, history stores and growth past
    the spare rows, applied as ``step`` applies them to a ``TrackTable`` and to a
    ``CopyingTable``: after every frame the live columns are equal, and ids ascend."""

    D = 3
    CFG = TrackerConfig(hist_max=3, hist_window=4, tau_conf=0.5, confirm_hits=1)

    def __init__(self):
        super().__init__()
        self.table, self.copying = tracker_module.TrackTable.empty(self.D), CopyingTable(self.D)
        self.frame, self.next_id = 0, 1

    @rule(seed=st.integers(0, 2**32 - 1), where=st.sampled_from(["none", "head", "middle",
                                                                  "tail", "scattered", "all"]),
          births=st.one_of(st.integers(0, 4), st.integers(5, 40)))
    def frame_of(self, seed, where, births):
        rng = np.random.default_rng(seed)
        n, cfg = len(self.table.ids), self.CFG
        self.frame += 1
        # (8)'s stores and decays, on stored rows and missed rows drawn apart
        order = rng.permutation(n)
        stored, missed = np.sort(order[:n // 2]), order[n // 2:]
        z, affinity = rng.normal(size=(len(stored), self.D)), rng.uniform(0, 1, len(stored))
        # counters as a frame leaves them, random per row so that a row moved wrongly shows
        hits, misses = rng.integers(0, 99, n), rng.integers(0, 99, n)
        dead = np.zeros(n, dtype=bool)
        if n and where in ("head", "middle", "tail"):
            span = max(1, int(rng.integers(1, n + 1)) // 3)
            start = {"head": 0, "middle": n // 3, "tail": n - span}[where]
            dead[start:start + span] = True
        elif where == "scattered":
            dead = rng.uniform(size=n) < 0.4
        elif where == "all":
            dead[:] = True
        born = kalman.KalmanState(rng.normal(size=(births, 2, 4)),
                                  rng.normal(size=(births, 2, 3)))
        descriptors = rng.normal(size=(births, self.D))

        # The copy-per-frame order: append the born, store, age, then select the live.
        old = self.copying
        if births:
            old.append(self.next_id, born, descriptors, cfg.confirm_hits <= 1)
        bank = appearance.maybe_store_history(appearance.MemoryBank(*old.columns[6:]), stored, z,
                                              "embedding", affinity, self.frame, cfg)
        old.columns[6:] = appearance.decay_confidence(bank, missed, cfg.conf_decay)
        old.columns[1][:n], old.columns[2][:n] = hits, misses
        old.select(np.concatenate([~dead, np.ones(births, dtype=bool)]))

        # The spare-row order: store and age on the whole arrays, then retire and add.
        table = self.table
        memory = appearance.maybe_store_history(table._bank, stored, z, "embedding", affinity,
                                                self.frame, cfg)
        memory = appearance.decay_confidence(memory, missed, cfg.conf_decay)
        table.hits[:], table.misses[:] = hits, misses
        self.table = table.renewed(memory, dead, self.next_id, born if births else None,
                                   descriptors, cfg)
        self.next_id += births

        new = self.table
        live = [new.ids, new.hits, new.misses, new.confirmed, *new.filters, *new.memory]
        for name, got, expected in zip(("ids", "hits", "misses", "confirmed", "mean", "cov",
                                        *appearance.MemoryBank._fields), live, old.columns):
            np.testing.assert_array_equal(got, expected, strict=True, err_msg=name)
        assert np.all(np.diff(new.ids) > 0)
        for col, whole in zip(live, new._arrays):
            assert col.base is whole or col.base is whole.base  # a view of the whole array


TestTableFrames = TableFrames.TestCase
TestTableFrames.settings = settings(max_examples=60, stateful_step_count=20, deadline=None)


class TestLifecycle:
    def test_startup_tracks_emit_immediately(self):
        results = run_sequence(walker(range(1, 4)), NO_FILTER, use_appearance=False)
        assert all(len(fr.tracks) == 1 for fr in results)

    def test_late_birth_confirms_after_three_hits(self):
        dets = walker(range(10, 30), x0=200.0)
        results = run_sequence(dets, NO_FILTER, use_appearance=False, n_frames=29)
        emitted = {fr.frame: len(fr.tracks) for fr in results}
        assert emitted[10] == 0 and emitted[11] == 0
        assert all(emitted[f] == 1 for f in range(12, 30))

    def test_tentative_track_dies_after_one_miss(self):
        dets = {5: [det(5, 100.0)]}
        tracker = Tracker(NO_FILTER, use_appearance=False)
        for f in range(1, 8):
            tracker.step(f, dets.get(f, []))
        assert len(tracker.table.ids) == 0

    def test_confirmed_track_survives_max_age_misses(self):
        cfg = dataclasses.replace(NO_FILTER, max_age=5)
        dets = walker(range(1, 11))
        tracker = Tracker(cfg, use_appearance=False)
        for f in range(1, 11):
            tracker.step(f, dets[f])
        for f in range(11, 16):  # 5 misses: still alive
            tracker.step(f, [])
            assert len(tracker.table.ids) == 1
        tracker.step(16, [])  # 6th miss exceeds max_age
        assert len(tracker.table.ids) == 0

    def test_track_rematches_within_max_age_keeping_id(self):
        frames = [f for f in range(1, 30) if f not in (12, 13, 14)]
        dets = walker(frames)
        results = run_sequence(dets, NO_FILTER, use_appearance=False, n_frames=29)
        ids = {tid for fr in results for tid, _ in fr.tracks}
        assert ids == {1}

    def test_ids_never_reused(self):
        rng = np.random.default_rng(0)
        tracker = Tracker(dataclasses.replace(NO_FILTER, max_age=1),
                          use_appearance=False)
        seen = []
        for f in range(1, 80):
            dets = [det(f, float(rng.uniform(0, 600)), float(rng.uniform(0, 400)))
                    for _ in range(rng.integers(0, 4))]
            tracker.step(f, dets)
            seen.extend(tracker.table.ids.tolist())
            table = tracker.table  # every public column keeps one row per track
            leaves = [table.ids, table.hits, table.misses, table.confirmed,
                      *table.filters, *table.memory]
            assert {len(col) for col in leaves} == {len(table.ids)}
        # every id maps to exactly one birth
        assert len(set(seen)) == max(seen)

    def test_coasting_track_moves_by_velocity(self):
        cfg = dataclasses.replace(NO_FILTER, emit_predicted=True)
        dets = walker(range(1, 11), vx=5.0)
        tracker = Tracker(cfg, use_appearance=False)
        for f in range(1, 11):
            tracker.step(f, dets[f])
        out = tracker.step(11, [])
        assert len(out.tracks) == 1
        _, box = out.tracks[0]
        # one more constant-velocity step past frame 10's center
        expected_cx = (50.0 + 5.0 * 10) + 15.0
        assert box.cx == pytest.approx(expected_cx, abs=1.0)

    def test_missed_frames_emit_nothing_by_default(self):
        dets = walker(range(1, 11))
        tracker = Tracker(NO_FILTER, use_appearance=False)
        for f in range(1, 11):
            tracker.step(f, dets[f])
        out = tracker.step(11, [])
        assert out.tracks == ()


class TestAppearanceIntegration:
    def descriptors(self):
        a = E([1.0, 0.0], normalize=True)
        b = E([0.0, 1.0], normalize=True)
        return a, b

    def test_miss_decays_confidence_but_not_memory(self):
        a, _ = self.descriptors()
        dets = {f: [det(f, 50.0 + 4.0 * f)] for f in range(1, 6)}
        tracker = Tracker(NO_FILTER, descriptor_source=keyed({(f, 0): a for f in dets}))
        for f in range(1, 6):
            tracker.step(f, dets[f])
        before = [a.copy() for a in tracker.table.memory]
        before = tracker.table.memory._make(before)
        assert before.hist_len[0] > 0
        tracker.step(6, [])
        after = tracker.table.memory
        for name in ("recent", "hist", "hist_conf", "hist_frame", "hist_len"):
            assert np.array_equal(getattr(after, name), getattr(before, name)), name
        assert after.recent_conf[0] == pytest.approx(before.recent_conf[0] * 0.9)

    def test_history_block_is_shared_until_capacity_doubles(self):
        # Births write into spare rows and deaths move the live rows down in place, so the
        # (N, W, d) history stays one block across births, deaths and frames with neither;
        # only a birth past the spare rows copies it, into a block twice as long.
        a, b = self.descriptors()
        tracker = Tracker(NO_FILTER, descriptor_source=lambda f, o: a if o == 0 else b)
        for f in range(1, 12):
            tracker.step(f, [det(f, 50.0 + 4.0 * f)])
        assert tracker.table.memory.hist_len[0] == NO_FILTER.hist_max  # W no longer widens
        capacity, before, grown = 1, 0, []  # the walker's birth made room for one row
        for f, extra in zip(range(12, 21), (1, 1, 0, 3, 1, 0, 2, 5, 0)):
            # Tentative false positives 500 px from the last frame's die after one frame.
            dets = [det(f, 50.0 + 4.0 * f)] + [det(f, 600.0 + 300.0 * k, y=400.0 + 500.0 * (f % 2))
                                               for k in range(extra)]
            hist = tracker.table.memory.hist
            diag = tracker.step(f, dets).diagnostics
            assert (diag.births, diag.deaths, diag.n_tracks) == (extra, before, 1 + extra)
            if diag.n_tracks > capacity:
                capacity = max(2 * capacity, diag.n_tracks)
                grown.append(f)
            assert np.shares_memory(tracker.table.memory.hist, hist) == (grown[-1:] != [f])
            before = extra
        assert grown == [12, 15, 19] and capacity == 8
        assert tracker.table.ids[0] == 1 and tracker.table.misses[0] == 0  # the walker held on

    def test_match_affinity_becomes_recent_conf(self):
        a, _ = self.descriptors()
        tracker = Tracker(NO_FILTER, descriptor_source=lambda f, o: a)
        tracker.step(1, [det(1, 50.0)])
        assert tracker.table.memory.recent_conf[0] == 1.0
        tracker.step(2, [det(2, 54.0)])
        conf = tracker.table.memory.recent_conf[0]
        assert 0.9 < conf <= 1.0  # perfect appearance, near-perfect shape/motion

    def test_history_grows_only_above_tau_conf(self):
        a, b = self.descriptors()
        tracker = Tracker(NO_FILTER, descriptor_source=keyed({(1, 0): a, (2, 0): b, (3, 0): b}))
        tracker.step(1, [det(1, 50.0)])
        tracker.step(2, [det(2, 54.0)])  # orthogonal: affinity ~0.5
        assert tracker.table.memory.hist_len[0] == 0
        tracker.step(3, [det(3, 58.0)])  # matches recent now
        assert tracker.table.memory.hist_len[0] == 1

    @pytest.mark.parametrize("mode", ["embed", "hist"])
    def test_step_builds_no_memory_objects(self, mode, tmp_path, monkeypatch):
        # The tracker keeps appearance in table columns; the value types are
        # only for the list-based adaptors.
        assert main(["generate", "--spec", str(OCCLUSION_SCENE), "--out", str(tmp_path),
                     "--frames"]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("a per-track memory object was built")

        monkeypatch.setattr(appearance.AppearanceMemory, "__init__", refuse)
        monkeypatch.setattr(appearance.HistoryEntry, "__init__", refuse)
        source = (["--embeddings", str(tmp_path / "embeddings.csv")] if mode == "embed"
                  else ["--frames-dir", str(tmp_path / "frames")])
        assert main(["track", "--det", str(tmp_path / "det.txt"), "--appearance", mode,
                     *source, "--out", str(tmp_path / "res.txt")]) == 0
        assert (tmp_path / "res.txt").read_text()

    def test_unbounded_history_config_keeps_width_to_longest_history(self):
        cfg = dataclasses.replace(NO_FILTER, hist_max=10**9, hist_window=10**9)
        spec = crossing_spec(3)
        dets, emb, _ = scenario_inputs(generate(spec))
        tracker = Tracker(cfg, descriptor_source=lambda f, o: emb[(f, o)])
        longest = 0
        for f in range(1, spec.n_frames + 1):
            tracker.step(f, dets.get(f, []))
            memory = tracker.table.memory
            longest = max(longest, memory.hist_len.max(initial=0))
            assert memory.hist.shape[1] == longest  # the longest held so far
            assert longest <= min(cfg.hist_max, cfg.hist_window + 1)
            assert memory.hist_conf.shape == memory.hist_frame.shape == memory.hist.shape[:2]
        assert longest > 15  # more than the default cap and window allow


class TestDeterminismAndEquivalence:
    def test_run_twice_bitwise_identical(self):
        spec = crossing_spec(5)
        results_a, _ = track_scenario(spec, TrackerConfig(filter_mode="none"))
        results_b, _ = track_scenario(spec, TrackerConfig(filter_mode="none"))
        assert write_result_file(results_a) == write_result_file(results_b)

    def test_run_sequence_equals_stepping(self):
        spec = line_spec(n_objects=2, jitter=1.0, seed=8)
        scenario = generate(spec)
        dets, emb, _ = scenario_inputs(scenario)
        cfg = TrackerConfig()
        source = lambda f, o: emb[(f, o)]
        results = run_sequence(dets, cfg, descriptor_source=source,
                               n_frames=spec.n_frames)
        tracker = Tracker(cfg, descriptor_source=source)
        stepped = [tracker.step(f, dets.get(f, [])) for f in range(1, spec.n_frames + 1)]
        assert write_result_file(results) == write_result_file(stepped)
        assert [fr.diagnostics for fr in results] == [fr.diagnostics for fr in stepped]

    @pytest.mark.parametrize("filter_mode", ["none", "const", "sadf"])
    def test_descriptor_sources_get_python_int_ordinals(self, filter_mode):
        # The kept ordinals reach a source as Python ints, in a list for ``rows``.
        def rows(frame, ordinals):
            assert type(ordinals) is list
            asked.extend(ordinals)
            return "embedding", np.tile([1.0, 0.0], (len(ordinals), 1))

        def by_ordinal(frame, ordinal):
            asked.append(ordinal)
            return E([1.0, 0.0])

        for source in (FrameDescriptors(rows), by_ordinal):
            asked = []
            tracker = Tracker(TrackerConfig(filter_mode=filter_mode, tau_const=40.0),
                              descriptor_source=source)
            for frame in range(1, 6):
                tracker.step(frame, [det(frame, 50.0 + 60 * k + 4 * frame, conf=c)
                                     for k, c in enumerate((30.0, 60.0, 55.0, 20.0))])
            assert asked and all(type(k) is int for k in asked)
            if filter_mode == "const":  # tau_const keeps the two confident detections
                assert set(asked) == {1, 2}

    def test_frame_descriptors_equal_the_per_detection_source(self):
        spec = line_spec(n_objects=3, jitter=1.0, seed=8, fp_rate=0.5, conf_std=8.0)
        dets, emb, _ = scenario_inputs(generate(spec))
        calls = []

        def rows(frame, ordinals):
            calls.append((frame, list(ordinals)))
            return "embedding", np.array([emb[frame, k].values for k in ordinals])

        def by_ordinal(frame, ordinal):
            asked.append((frame, ordinal))
            return emb[frame, ordinal]

        asked = []
        results = [run_sequence(dets, TrackerConfig(), descriptor_source=source,
                                n_frames=spec.n_frames)
                   for source in (FrameDescriptors(rows), by_ordinal)]
        assert write_result_file(results[0]) == write_result_file(results[1])
        assert [fr.diagnostics for fr in results[0]] == [fr.diagnostics for fr in results[1]]
        # One call per frame that kept a detection, with the kept ordinals.
        kept = [fr.frame for fr in results[0] if fr.diagnostics.n_kept]
        assert [frame for frame, _ in calls] == kept
        assert all(ordinals == sorted(ordinals) and ordinals for _, ordinals in calls)
        assert sum(len(o) for _, o in calls) < sum(map(len, dets.values()))  # SADF dropped some
        assert asked == [(frame, k) for frame, ordinals in calls for k in ordinals]

    @pytest.mark.parametrize("by_frame", [False, True])
    def test_a_tracker_is_freed_without_the_cycle_collector(self, by_frame):
        # A reference cycle would hold every dropped tracker's table until a collection.
        def rows(frame, ordinals):
            return "embedding", np.tile([1.0, 0.0], (len(ordinals), 1))

        descriptor = E([1.0, 0.0])
        source = FrameDescriptors(rows) if by_frame else lambda frame, ordinal: descriptor
        gc.disable()
        try:
            tracker = Tracker(NO_FILTER, descriptor_source=source)
            for frame in range(1, 4):
                tracker.step(frame, [det(frame, 50.0 + 4 * frame)])
            alive = weakref.ref(tracker)
            del tracker
            assert alive() is None
        finally:
            gc.enable()

    def test_result_bytes_equal_the_slot_loop(self, monkeypatch):
        # One inner product per pair moves some scores by an ulp against one
        # scorer call per memory slot, and no result byte: checked on patch
        # histograms of a PPM scene and on a crossing with embeddings.
        spec = line_spec(n_objects=6, n_frames=80, seed=4, jitter=1.5, fp_rate=0.5,
                         merge_prob=0.3, fragment_prob=0.05, conf_std=5.0)
        scenario = generate(spec, with_frames=True)
        dets, _, _ = scenario_inputs(scenario)

        def histogram(frame, ordinal):
            (hist,) = histogram_from_patch(scenario.frames[frame], [dets[frame][ordinal].bbox])
            return AppearanceDescriptor(HISTOGRAM, hist)

        crossing = crossing_spec(2)
        crossing_dets, emb, _ = scenario_inputs(generate(crossing))
        runs = [(dets, TrackerConfig(), histogram, spec.n_frames),
                (crossing_dets, NO_FILTER, keyed(emb), crossing.n_frames)]

        def track():
            return [write_result_file(run_sequence(d, cfg, descriptor_source=source, n_frames=n))
                    for d, cfg, source, n in runs]

        shipped = track()
        looped = []
        monkeypatch.setattr(affinity, "ham_scores",
                            lambda *args: looped.append(1) or slot_loop_ham_scores(*args))
        assert track() == shipped
        assert len(looped) > 100  # the scoring fuse_appearance looks up is the slot loop

    def test_ham_off_equals_empty_history_run(self):
        # With history disabled entirely, scoring history-aware or not must
        # produce identical output: the ablation switch is observable only
        # through the history.
        spec = crossing_spec(6)
        cfg_no_history = TrackerConfig(filter_mode="none", hist_max=0, use_ham=True)
        cfg_baseline = TrackerConfig(filter_mode="none", hist_max=0, use_ham=False)
        results_a, _ = track_scenario(spec, cfg_no_history)
        results_b, _ = track_scenario(spec, cfg_baseline)
        assert write_result_file(results_a) == write_result_file(results_b)

    def test_ham_switch_changes_behavior_under_occlusion(self):
        spec = crossing_spec(4)
        _, report_ham = track_scenario(spec, TrackerConfig(filter_mode="none"))
        _, report_base = track_scenario(spec, TrackerConfig(filter_mode="none",
                                                            use_ham=False))
        assert report_ham.idsw < report_base.idsw


class TestEndToEndScenarios:
    def test_noise_free_object_tracked_perfectly(self):
        _, report = track_scenario(line_spec(), TrackerConfig())
        assert report.mota == pytest.approx(1.0)
        assert report.idsw == 0

    def test_five_objects_covered_by_five_ids(self):
        spec = line_spec(n_objects=5, n_frames=60)
        results, report = track_scenario(spec, TrackerConfig())
        assert report.mota == pytest.approx(1.0)
        assert report.idsw == 0
        ids = {tid for fr in results for tid, _ in fr.tracks}
        assert len(ids) == 5

    def test_occlusion_rematch_keeps_id(self):
        spec = line_spec(n_frames=40)
        spec = ScenarioSpec(**{**spec.__dict__, "corrupt_frames": 0,
                               "events": (OcclusionEvent(obj=0, start=15, end=17),)})
        results, report = track_scenario(spec, TrackerConfig())
        assert report.idsw == 0
        ids = {tid for fr in results for tid, _ in fr.tracks}
        assert len(ids) == 1

    def test_sadf_filters_low_confidence_noise(self):
        # real detections at conf ~60, false positives included; after the
        # adaptive threshold settles, the kept fraction approaches 1 - p_d
        spec = line_spec(n_frames=300, conf_mean=60.0, conf_std=8.0, jitter=0.5)
        scenario = generate(spec)
        dets, emb, _ = scenario_inputs(scenario)
        cfg = TrackerConfig(tau_const=40.0)
        results = run_sequence(dets, cfg, descriptor_source=lambda f, o: emb[(f, o)],
                               n_frames=spec.n_frames)
        tail = results[-100:]
        kept = sum(fr.diagnostics.n_kept for fr in tail)
        raw = sum(fr.diagnostics.n_raw for fr in tail)
        assert kept / raw == pytest.approx(1.0 - cfg.p_d, abs=0.1)


class TestDiagnostics:
    def test_counts_populated(self):
        spec = crossing_spec(9)
        results, _ = track_scenario(spec, TrackerConfig(filter_mode="none"))
        first = results[0].diagnostics
        assert first.births == 3
        assert first.n_raw == 3 and first.n_kept == 3
        assert results[0].diagnostics.tau_t is None  # filter disabled
        total_evals = sum(fr.diagnostics.appearance_evals for fr in results)
        assert total_evals > 0

    def test_tau_t_reported_in_sadf_mode(self):
        spec = line_spec(n_frames=10, conf_mean=50.0, conf_std=2.0)
        scenario = generate(spec)
        dets, emb, _ = scenario_inputs(scenario)
        results = run_sequence(dets, TrackerConfig(tau_const=30.0),
                               descriptor_source=lambda f, o: emb[(f, o)],
                               n_frames=10)
        assert all(fr.diagnostics.tau_t is not None for fr in results)
        assert results[0].diagnostics.tau_t == pytest.approx(
            0.95 * 30.0 + 0.05 * 50.0, abs=1.0)


class TestGating:
    def test_zero_tau_asc_never_links_ungated_boxes(self):
        cfg = TrackerConfig(filter_mode="none", tau_asc=0.0, confirm_hits=1)
        tracker = Tracker(cfg, use_appearance=False)
        tracker.step(1, [det(1, 0.0, y=0.0)])
        far = det(2, 100000.0, y=50000.0)
        result = tracker.step(2, [far])
        assert result.diagnostics.gated_pairs == 0
        assert result.diagnostics.births == 1
        assert result.tracks == ((2, far.bbox),)


EMBEDDINGS = (E([1.0, 0.0]), E([0.6, 0.8]))
# x, sub-pixel offset, y, (w, h), embedding: few values, so that duplicate
# boxes, sub-pixel moves and far jumps all come up often.
BOX = st.tuples(st.sampled_from([0.0, 40.0, 1e5]), st.sampled_from([0.0, 1e-3, 0.4]),
                st.sampled_from([0.0, 5e4]), st.sampled_from([(30.0, 60.0), (30.5, 61.0)]),
                st.sampled_from([0, 1]))
STREAM = st.lists(st.lists(BOX, max_size=4), min_size=1, max_size=8)


def run_stream(stream, cfg, use_appearance):
    """Step ``stream`` through a new tracker.

    Returns the results, each frame's detections, each frame's (final matrix,
    assignment) and each frame's live ids, covariances and appearance memory
    after the step.
    """
    solved = []

    def recording(matrix, tau_asc):
        out = associate(matrix, tau_asc)
        solved.append((matrix, out))
        return out

    chosen = {}
    tracker = Tracker(cfg, descriptor_source=keyed(chosen), use_appearance=use_appearance)
    results, inputs, tables = [], [], []
    with mock.patch.object(tracker_module, "associate", recording):
        for frame, boxes in enumerate(stream, start=1):
            dets = [det(frame, x + dx, y, w, h) for x, dx, y, (w, h), _ in boxes]
            chosen.update({(frame, k): EMBEDDINGS[box[-1]] for k, box in enumerate(boxes)})
            results.append(tracker.step(frame, dets))
            inputs.append(dets)
            memory = tracker.table.memory._make(a.copy() for a in tracker.table.memory)
            tables.append((tracker.table.ids.tolist(), tracker.table.filters.cov.copy(), memory))
    return results, inputs, solved, tables


class TestPipelineProperties:
    @settings(max_examples=150, deadline=None)
    @given(stream=STREAM, tau_asc=st.sampled_from([0.0, 0.05]),
           confirm_hits=st.sampled_from([1, 3]), emit_predicted=st.booleans(),
           use_appearance=st.booleans())
    def test_step_invariants(self, stream, tau_asc, confirm_hits, emit_predicted,
                             use_appearance):
        cfg = TrackerConfig(filter_mode="none", tau_asc=tau_asc, confirm_hits=confirm_hits,
                            emit_predicted=emit_predicted)
        results, inputs, solved, tables = run_stream(stream, cfg, use_appearance)

        for matrix, assignment in solved:
            for i, j, _ in assignment.matches:
                assert matrix.gate_mask[i, j], f"ungated pair ({i}, {j}) matched"

        live, highest, longest = set(), 0, 0
        for ids, cov, memory in tables:
            assert len(set(ids)) == len(ids)
            longest = max(longest, memory.hist_len.max(initial=0))
            assert memory.hist.shape[1] == longest  # the longest held so far
            assert longest <= min(cfg.hist_max, cfg.hist_window + 1)
            assert np.all((0.0 <= memory.recent_conf) & (memory.recent_conf <= 1.0))
            born = [i for i in ids if i not in live]
            assert all(i > highest for i in born), "an id was reused"
            highest = max([highest, *ids])
            live = set(ids)
            assert np.all(np.isfinite(cov))
            p, c, v = np.moveaxis(cov, -1, 0)  # each filter's [[p, c], [c, v]] on both axes
            eig = np.linalg.eigvalsh(np.stack([p, c, c, v], axis=-1).reshape(*p.shape, 2, 2))
            assert np.all(eig >= -1e-9 * np.maximum(1.0, np.abs(eig).max(initial=0.0)))

        for fr in results:
            emitted = [tid for tid, _ in fr.tracks]
            assert len(set(emitted)) == len(emitted)
            assert all(np.isfinite([b.x, b.y, b.w, b.h]).all() for _, b in fr.tracks)

        # A track matched or born this frame emits its own detection's box, the
        # same object, and no detection is emitted twice; only others are predicted.
        previous = []
        for fr, dets, (_, assignment), (ids, _, _) in zip(results, inputs, solved, tables):
            own = {previous[i]: dets[j].bbox for i, j, _ in assignment.matches}
            born = [i for i in ids if i not in previous]
            own.update(zip(born, (dets[j].bbox for j in assignment.unmatched_detections)))
            for tid, box in fr.tracks:
                if tid in own:
                    assert box is own[tid]
                else:
                    assert cfg.emit_predicted and all(box is not d.bbox for d in dets)
            emitted = [id(box) for _, box in fr.tracks if any(box is d.bbox for d in dets)]
            assert len(set(emitted)) == len(emitted)
            previous = ids

        again, _, _, _ = run_stream(stream, cfg, use_appearance)
        assert write_result_file(results) == write_result_file(again)
