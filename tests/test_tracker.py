import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamtrack import appearance
from hamtrack import tracker as tracker_module
from hamtrack.cli import main
from hamtrack.association import associate
from hamtrack.core import (AppearanceDescriptor, BBox, Detection,
                           TrackerConfig)
from hamtrack.io_mot import histogram_from_patch, write_result_file
from hamtrack.synthgen import OcclusionEvent, ScenarioSpec, generate
from hamtrack.tracker import Tracker, run_sequence
from scenario_utils import crossing_spec, line_spec, scenario_inputs, track_scenario

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
        rng = np.random.default_rng(13)
        boxes = [BBox(*rng.uniform(-500, 2000, size=2), *rng.uniform(0.5, 300, size=2))
                 for _ in range(40)]
        expected = np.array([(b.center(), (b.w, b.h)) for b in boxes])
        assert np.array_equal(tracker_module._observed_pairs(boxes), expected)
        assert tracker_module._observed_pairs([]).shape == (0, 2, 2)


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
            table = tracker.table  # every array keeps one row per track
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

    def test_frame_without_birth_or_death_keeps_the_table_arrays(self):
        # Only a birth or a death copies the table's columns, the (N, W, d)
        # history among them; a match that stores into a full history, a miss
        # or a match that stores nothing reuses them.
        a, b = self.descriptors()
        tracker = Tracker(NO_FILTER, descriptor_source=keyed(
            {**{(f, 0): a for f in range(1, 13)}, (14, 0): b}))
        for f in range(1, 12):
            tracker.step(f, [det(f, 50.0 + 4.0 * f)])
        assert tracker.table.memory.hist_len[0] == NO_FILTER.hist_max
        for f, dets in ((12, [det(12, 98.0)]), (13, []), (14, [det(14, 106.0)])):
            ids, hist = tracker.table.ids, tracker.table.memory.hist
            diag = tracker.step(f, dets).diagnostics
            assert (diag.births, diag.deaths, diag.n_tracks) == (0, 0, 1)
            assert tracker.table.ids is ids
            assert np.shares_memory(tracker.table.memory.hist, hist)
        assert tracker.table.memory.hist_frame[0].tolist() == list(range(3, 13))  # 12 stored
        assert tracker.table.misses[0] == 0  # the orthogonal detection matched

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

    def test_scorer_calls_per_frame_at_most_width_plus_one(self, monkeypatch):
        # The scorer is looked up in the appearance module on every step, and
        # a frame scores the recent slot plus one call per history slot.
        calls = []
        original = appearance.score_embedding
        monkeypatch.setattr(appearance, "score_embedding",
                            lambda x, y: calls.append(len(x)) or original(x, y))
        spec = crossing_spec(2)
        dets, emb, _ = scenario_inputs(generate(spec))
        tracker = Tracker(NO_FILTER, descriptor_source=lambda f, o: emb[(f, o)])
        for f in range(1, spec.n_frames + 1):
            width = tracker.table.memory.hist.shape[1]
            calls.clear()
            result = tracker.step(f, dets.get(f, []))
            assert len(calls) <= width + 1
            assert sum(calls[:1]) == result.diagnostics.appearance_evals
        assert width > 1


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

    def test_histogram_support_path_keeps_result_bytes(self, monkeypatch):
        # Patch histograms of a PPM scene fill a few colour bins each, so HAM
        # scores most pairs on the frame's bins; a cutoff of 0 forces the slot loop.
        spec = line_spec(n_objects=6, n_frames=80, seed=4, jitter=1.5, fp_rate=0.5,
                         merge_prob=0.3, fragment_prob=0.05, conf_std=5.0)
        scenario = generate(spec, with_frames=True)
        dets, _, _ = scenario_inputs(scenario)

        def source(frame, ordinal):
            return histogram_from_patch(scenario.frames[frame], dets[frame][ordinal].bbox)

        calls, original = [], appearance.score_histogram
        monkeypatch.setattr(appearance, "score_histogram",
                            lambda x, y: calls.append(len(x)) or original(x, y))

        def track():
            calls.clear()
            results = run_sequence(dets, TrackerConfig(), descriptor_source=source,
                                   n_frames=spec.n_frames)
            return write_result_file(results), len(calls)

        text, support_calls = track()
        monkeypatch.setattr(appearance, "SUPPORT_MAX_BINS", 0)
        loop_text, loop_calls = track()
        assert loop_text == text
        assert 0 < support_calls < loop_calls  # some pairs were looped, in fewer calls

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
            eig = np.linalg.eigvalsh(cov)
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
