import dataclasses

import numpy as np
import pytest

from hamtrack.core import (AppearanceDescriptor, BBox, Detection,
                           TrackerConfig)
from hamtrack.io_mot import write_result_file
from hamtrack.synthgen import OcclusionEvent, ScenarioSpec, generate
from hamtrack.tracker import Tracker, run_sequence
from scenario_utils import crossing_spec, line_spec, scenario_inputs, track_scenario

E = AppearanceDescriptor.embedding


def det(frame, x, y=100.0, w=30.0, h=60.0, conf=50.0, descriptor=None):
    return Detection(frame=frame, bbox=BBox(x, y, w, h), confidence=conf,
                     descriptor=descriptor)


def walker(frames, x0=50.0, vx=4.0, descriptor=None, **kw):
    return {f: [det(f, x0 + vx * (f - 1), descriptor=descriptor, **kw)]
            for f in frames}


NO_FILTER = TrackerConfig(filter_mode="none")


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
            table = tracker.table  # every column keeps one row per track
            assert {len(col) for col in vars(table).values()} == {len(table.ids)}
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
        dets = {f: [det(f, 50.0 + 4.0 * f, descriptor=a)] for f in range(1, 6)}
        tracker = Tracker(NO_FILTER)
        for f in range(1, 6):
            tracker.step(f, dets[f])
        memory = tracker.table.memories[0]
        before_recent = memory.recent
        before_hist = memory.history
        before_conf = memory.recent_conf
        tracker.step(6, [])
        after = tracker.table.memories[0]
        assert after.recent is before_recent
        assert after.history == before_hist
        assert after.recent_conf == pytest.approx(before_conf * 0.9)

    def test_match_affinity_becomes_recent_conf(self):
        a, _ = self.descriptors()
        tracker = Tracker(NO_FILTER)
        tracker.step(1, [det(1, 50.0, descriptor=a)])
        assert tracker.table.memories[0].recent_conf == 1.0
        tracker.step(2, [det(2, 54.0, descriptor=a)])
        conf = tracker.table.memories[0].recent_conf
        assert 0.9 < conf <= 1.0  # perfect appearance, near-perfect shape/motion

    def test_history_grows_only_above_tau_conf(self):
        a, b = self.descriptors()
        tracker = Tracker(NO_FILTER)
        tracker.step(1, [det(1, 50.0, descriptor=a)])
        tracker.step(2, [det(2, 54.0, descriptor=b)])  # orthogonal: affinity ~0.5
        assert tracker.table.memories[0].history == ()
        tracker.step(3, [det(3, 58.0, descriptor=b)])  # matches recent now
        assert len(tracker.table.memories[0].history) == 1


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
