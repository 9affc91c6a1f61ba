import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamtrack import appearance
from hamtrack.appearance import (AppearanceMemory, HistoryEntry,
                                 baseline_appearance, decay_confidence, ham,
                                 history_weights, maybe_store_history,
                                 score_descriptors, score_embedding,
                                 score_histogram, update_histogram)
from hamtrack.core import AppearanceDescriptor, TrackerConfig

H = AppearanceDescriptor.histogram
E = AppearanceDescriptor.embedding


def unit(vec):
    return E(vec, normalize=True)


class TestScorers:
    def test_identical_histograms(self):
        assert score_histogram(H([0.5, 0.5]), H([0.5, 0.5])) == pytest.approx(1.0)

    def test_disjoint_histograms(self):
        assert score_histogram(H([1.0, 0.0]), H([0.0, 1.0])) == 0.0

    def test_bhattacharyya_value(self):
        # sqrt(0.2*0.6) + sqrt(0.8*0.4) computed independently
        expected = math.sqrt(0.12) + math.sqrt(0.32)
        got = score_histogram(H([0.2, 0.8]), H([0.6, 0.4]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.9121, abs=5e-5)

    def test_embedding_identical_and_opposite(self):
        a = unit([1.0, 2.0, -1.0])
        b = unit([-1.0, -2.0, 1.0])
        assert score_embedding(a, a) == pytest.approx(1.0)
        assert score_embedding(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_embedding_orthogonal(self):
        assert score_embedding(E([1.0, 0.0]), E([0.0, 1.0])) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            score_histogram(H([0.5, 0.5]), H([0.2, 0.3, 0.5]))

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="kind"):
            score_descriptors(H([0.5, 0.5]), E([1.0, 0.0]))

    def test_dispatch(self):
        assert score_descriptors(H([1.0, 0.0]), H([1.0, 0.0])) == pytest.approx(1.0)
        assert score_descriptors(E([1.0, 0.0]), E([1.0, 0.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("a,b", [(H([0.2, 0.8]), H([0.6, 0.4])),
                                     (E([0.6, 0.8]), E([1.0, 0.0]))])
    def test_dispatch_checks_the_pair_once(self, a, b, monkeypatch):
        checks = []
        original = appearance._check_pair
        monkeypatch.setattr(appearance, "_check_pair",
                            lambda *args: checks.append(args) or original(*args))
        expected = score_histogram(a, b) if a.kind == "histogram" else score_embedding(a, b)
        checks.clear()
        assert score_descriptors(a, b) == expected
        assert len(checks) == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_scorer_contract(self, seed):
        rng = np.random.default_rng(seed)
        a = unit(rng.normal(size=8))
        b = unit(rng.normal(size=8))
        s_ab, s_ba = score_embedding(a, b), score_embedding(b, a)
        assert 0.0 <= s_ab <= 1.0
        assert s_ab == pytest.approx(s_ba, abs=1e-9)
        assert score_embedding(a, a) == pytest.approx(1.0, abs=1e-9)


class TestUpdateHistogram:
    def test_alpha_one_replaces(self):
        out = update_histogram(H([0.2, 0.8]), H([0.6, 0.4]), 1.0)
        np.testing.assert_allclose(out.values, [0.6, 0.4])

    def test_alpha_zero_keeps(self):
        out = update_histogram(H([0.2, 0.8]), H([0.6, 0.4]), 0.0)
        np.testing.assert_allclose(out.values, [0.2, 0.8])

    def test_halfway_blend(self):
        out = update_histogram(H([0.2, 0.8]), H([0.6, 0.4]), 0.5)
        np.testing.assert_allclose(out.values, [0.4, 0.6], atol=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            update_histogram(H([0.5, 0.5]), H([0.5, 0.5]), 1.2)

    def test_output_normalized(self):
        out = update_histogram(H([0.1, 0.9]), H([0.7, 0.3]), 0.37)
        assert abs(float(out.values.sum()) - 1.0) <= 1e-9


class TestHistoryWeights:
    def mem(self, confs):
        entries = tuple(HistoryEntry(unit([1.0, float(k)]), c, k + 1)
                        for k, c in enumerate(confs))
        return AppearanceMemory(recent=unit([1.0, 0.0]), recent_conf=0.5,
                                history=entries)

    def test_single_entry(self):
        np.testing.assert_allclose(history_weights(self.mem([0.7])), [1.0])

    def test_proportional(self):
        np.testing.assert_allclose(history_weights(self.mem([0.5, 1.0])),
                                   [1 / 3, 2 / 3])

    def test_uniform_for_equal_confidences(self):
        np.testing.assert_allclose(history_weights(self.mem([0.6] * 5)), [0.2] * 5)

    def test_empty_history_errors(self):
        with pytest.raises(ValueError, match="empty"):
            history_weights(AppearanceMemory(recent=unit([1.0, 0.0])))

    def test_all_zero_confidences_error(self):
        with pytest.raises(ValueError, match="zero"):
            history_weights(self.mem([0.0, 0.0]))

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=10))
    def test_weights_sum_to_one(self, confs):
        w = history_weights(self.mem(confs))
        assert abs(float(w.sum()) - 1.0) <= 1e-9
        assert np.all(w >= 0) and np.all(w <= 1)


class StubScorer:
    """Scores by identity of the stored vectors, for arithmetic-oracle tests."""

    def __init__(self, table):
        self.table = table

    def __call__(self, a, b):
        return self.table[id(a)]


class TestHam:
    def test_saturated_recent_confidence_ignores_history(self):
        recent, z = unit([1.0, 0.0]), unit([0.0, 1.0])
        hist = HistoryEntry(unit([1.0, 1.0]), 0.9, 1)
        mem = AppearanceMemory(recent=recent, recent_conf=1.0, history=(hist,))
        assert ham(mem, z, score_embedding) == baseline_appearance(mem, z, score_embedding)

    def test_zero_recent_confidence_uses_history_only(self):
        recent = unit([1.0, 0.0])
        entry = unit([0.0, 1.0])
        mem = AppearanceMemory(recent=recent, recent_conf=0.0,
                               history=(HistoryEntry(entry, 0.8, 1),))
        z = unit([0.0, 1.0])
        assert ham(mem, z, score_embedding) == pytest.approx(
            score_embedding(entry, z))

    def test_worked_example(self):
        # c_r=0.5, score(recent)=0.8, history confs (0.5, 1.0) scoring (0.2, 0.6)
        # -> 0.5*0.8 + 0.5*(1/3*0.2 + 2/3*0.6) = 0.63333...
        recent, h1, h2, z = (unit([1.0, 0.0]), unit([0.0, 1.0]),
                             unit([1.0, 1.0]), unit([1.0, 2.0]))
        scorer = StubScorer({id(recent): 0.8, id(h1): 0.2, id(h2): 0.6})
        mem = AppearanceMemory(recent=recent, recent_conf=0.5,
                               history=(HistoryEntry(h1, 0.5, 1),
                                        HistoryEntry(h2, 1.0, 2)))
        assert ham(mem, z, scorer) == pytest.approx(0.5 * 0.8 + 0.5 * (0.2 / 3 + 0.4),
                                                    abs=1e-12)
        assert ham(mem, z, scorer) == pytest.approx(0.6333, abs=5e-5)

    def test_empty_history_degrades_to_baseline(self):
        mem = AppearanceMemory(recent=unit([1.0, 0.0]), recent_conf=0.3)
        z = unit([1.0, 1.0])
        assert ham(mem, z, score_embedding) == baseline_appearance(mem, z, score_embedding)

    def test_monotone_in_recent_score(self):
        recent, h1, z = unit([1.0, 0.0]), unit([0.0, 1.0]), unit([1.0, 1.0])
        mem = AppearanceMemory(recent=recent, recent_conf=0.4,
                               history=(HistoryEntry(h1, 0.7, 1),))
        values = []
        for s in np.linspace(0.0, 1.0, 11):
            scorer = StubScorer({id(recent): float(s), id(h1): 0.5})
            values.append(ham(mem, z, scorer))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_output_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        entries = tuple(
            HistoryEntry(unit(rng.normal(size=6)), float(rng.uniform(0.01, 1.0)), k + 1)
            for k in range(rng.integers(0, 5)))
        mem = AppearanceMemory(recent=unit(rng.normal(size=6)),
                               recent_conf=float(rng.uniform(0, 1)),
                               history=entries)
        out = ham(mem, unit(rng.normal(size=6)), score_embedding)
        assert 0.0 <= out <= 1.0


class TestMaybeStoreHistory:
    def cfg(self, **kw):
        return TrackerConfig(**kw)

    def mem(self):
        return AppearanceMemory(recent=unit([1.0, 0.0]), recent_conf=1.0)

    def test_below_threshold_refreshes_recent_only(self):
        new = unit([0.0, 1.0])
        out = maybe_store_history(self.mem(), new, 0.59, 5, self.cfg())
        assert out.history == ()
        assert out.recent is new
        assert out.recent_conf == pytest.approx(0.59)

    def test_at_threshold_not_stored(self):
        out = maybe_store_history(self.mem(), unit([0.0, 1.0]), 0.6, 5, self.cfg())
        assert out.history == ()

    def test_above_threshold_stored(self):
        out = maybe_store_history(self.mem(), unit([0.0, 1.0]), 0.61, 5, self.cfg())
        assert len(out.history) == 1
        assert out.history[0].frame == 5
        assert out.history[0].conf == pytest.approx(0.61)

    def test_size_cap_evicts_oldest(self):
        mem = self.mem()
        for frame in range(1, 12):
            mem = maybe_store_history(mem, unit([1.0, float(frame)]), 0.9, frame,
                                      self.cfg(hist_window=100))
        assert len(mem.history) == 10
        assert mem.history[0].frame == 2  # frame-1 entry evicted

    def test_age_window_evicts(self):
        mem = maybe_store_history(self.mem(), unit([0.0, 1.0]), 0.9, 1, self.cfg())
        mem = maybe_store_history(mem, unit([1.0, 1.0]), 0.9, 17, self.cfg())
        frames = [e.frame for e in mem.history]
        assert frames == [17]  # the frame-1 entry is 16 frames old, window is 15

    def test_histogram_recent_blended_by_affinity(self):
        mem = AppearanceMemory(recent=H([0.2, 0.8]), recent_conf=1.0)
        out = maybe_store_history(mem, H([0.6, 0.4]), 0.5, 3, self.cfg())
        np.testing.assert_allclose(out.recent.values, [0.4, 0.6], atol=1e-12)

    def test_fixed_alpha_mode(self):
        mem = AppearanceMemory(recent=H([0.2, 0.8]), recent_conf=1.0)
        out = maybe_store_history(mem, H([0.6, 0.4]), 0.9, 3,
                                  self.cfg(alpha_mode="1.0"))
        np.testing.assert_allclose(out.recent.values, [0.6, 0.4], atol=1e-12)

    def test_random_stimulus_preserves_invariants(self):
        rng = np.random.default_rng(23)
        cfg = self.cfg()
        mem = self.mem()
        frame = 0
        for _ in range(10_000):
            frame += int(rng.integers(1, 4))
            mem = maybe_store_history(mem, unit(rng.normal(size=4)),
                                      float(rng.uniform(0, 1)), frame, cfg)
            assert len(mem.history) <= cfg.hist_max
            assert all(frame - e.frame <= cfg.hist_window for e in mem.history)
            assert all(0.0 <= e.conf <= 1.0 for e in mem.history)
            assert 0.0 <= mem.recent_conf <= 1.0
            assert [e.frame for e in mem.history] == sorted(e.frame for e in mem.history)


class TestDecayConfidence:
    def test_decay(self):
        mem = AppearanceMemory(recent=unit([1.0, 0.0]), recent_conf=0.8)
        out = decay_confidence(mem, 0.9)
        assert out.recent_conf == pytest.approx(0.72)
        assert out.recent is mem.recent
        assert out.history == mem.history

    def test_floor_at_zero(self):
        mem = AppearanceMemory(recent=unit([1.0, 0.0]), recent_conf=1e-300)
        assert decay_confidence(mem, 0.0).recent_conf == 0.0
