import math

import numpy as np
import pytest

from hamtrack.affinity import (AffinityMatrix, build_sm_matrix, fuse_appearance, gate_values,
                               motion_affinity, shape_affinity)
from hamtrack.appearance import (AppearanceMemory, HistoryEntry, ham,
                                 history_weights, score_descriptors, score_embedding)
from hamtrack.core import AppearanceDescriptor, BBox, TrackerConfig
from scenario_utils import embedding_reference, histogram_reference, sparse_histogram

E = AppearanceDescriptor.embedding


def unit(vec):
    return E(vec, normalize=True)


class TestShapeAffinity:
    def test_identical_shapes(self):
        assert shape_affinity((40.0, 80.0), BBox(0, 0, 40, 80), 1.0) == pytest.approx(1.0)

    def test_height_difference(self):
        # |100-50|/150 with equal widths -> exp(-1/3)
        got = shape_affinity((70.0, 100.0), BBox(0, 0, 70, 50), 1.0)
        assert got == pytest.approx(math.exp(-50 / 150), abs=1e-12)
        assert got == pytest.approx(0.7165, abs=5e-5)

    def test_width_difference(self):
        # |40-60|/100 with equal heights -> exp(-0.2)
        got = shape_affinity((40.0, 100.0), BBox(0, 0, 60, 100), 1.0)
        assert got == pytest.approx(math.exp(-0.2), abs=1e-12)
        assert got == pytest.approx(0.8187, abs=5e-5)

    def test_rejects_nonpositive_prediction(self):
        with pytest.raises(ValueError):
            shape_affinity((0.0, 80.0), BBox(0, 0, 40, 80), 1.0)

    def test_xi_zero_disables_cue(self):
        assert shape_affinity((10.0, 10.0), BBox(0, 0, 99, 99), 0.0) == 1.0


class TestMotionAffinity:
    def test_zero_displacement(self):
        assert motion_affinity((5.0, 5.0), (5.0, 5.0), np.diag([100.0, 100.0]),
                               0.5) == pytest.approx(1.0)

    def test_mahalanobis_value(self):
        got = motion_affinity((0.0, 0.0), (10.0, 0.0), np.diag([100.0, 100.0]), 0.5)
        assert got == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert got == pytest.approx(0.6065, abs=5e-5)

    def test_symmetric_offsets_score_equally(self):
        sigma = np.array([[120.0, 30.0], [30.0, 90.0]])
        plus = motion_affinity((0.0, 0.0), (7.0, 0.0), sigma, 1.0)
        minus = motion_affinity((0.0, 0.0), (-7.0, 0.0), sigma, 1.0)
        assert plus == pytest.approx(minus, abs=1e-12)

    def test_singular_sigma(self):
        with pytest.raises(ValueError, match="singular"):
            motion_affinity((0.0, 0.0), (1.0, 1.0), np.zeros((2, 2)), 1.0)


def make_sm(pred, boxes, **cfg_kw):
    cfg = TrackerConfig(**cfg_kw)
    pos = [p[:2] for p in pred]
    wh = [p[2:] for p in pred]
    return build_sm_matrix(pos, wh, boxes, cfg), cfg


class TestBuildSmMatrix:
    def test_empty_dims(self):
        sm, _ = make_sm([], [])
        assert sm.values.shape == (0, 0)
        sm2, _ = make_sm([(0.0, 0.0, 10.0, 10.0)], [])
        assert sm2.values.shape == (1, 0)

    def test_perfect_pair_gates_in(self):
        box = BBox(10, 10, 30, 60)
        sm, _ = make_sm([(box.cx, box.cy, 30.0, 60.0)], [box], tau_asc=0.5)
        assert sm.values[0, 0] == pytest.approx(1.0)
        assert sm.gate_mask[0, 0]

    def test_gate_is_strict(self):
        # A pair scoring exactly the threshold must fail the strict > gate.
        box = BBox(0, 0, 30, 60)
        sm, cfg = make_sm([(box.cx, box.cy, 30.0, 60.0)], [box], tau_asc=1.0)
        assert sm.values[0, 0] == pytest.approx(1.0)
        assert not sm.gate_mask[0, 0]

    def test_values_match_scalar_ops(self):
        # np.exp and math.exp may differ in the last bit, hence a tolerance.
        rng = np.random.default_rng(5)
        cfg = TrackerConfig(sigma_xy=4000.0)
        for n, m in ((3, 4), (6, 2), (1, 5), (5, 1), (1, 1)):
            boxes = [BBox(*rng.uniform(10, 200, size=2), *rng.uniform(10, 60, size=2))
                     for _ in range(m)]
            pos = [rng.uniform(0, 250, size=2) for _ in range(n)]
            wh = [rng.uniform(10, 70, size=2) for _ in range(n)]
            sm = build_sm_matrix(pos, wh, boxes, cfg)
            assert sm.values.shape == (n, m)
            for i in range(n):
                for j, box in enumerate(boxes):
                    expected = (shape_affinity(wh[i], box, cfg.xi)
                                * motion_affinity(pos[i], box.center(), cfg.sigma(), cfg.eta))
                    assert sm.values[i, j] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        cfg = TrackerConfig()
        boxes = [BBox(*rng.uniform(10, 300, size=2), *rng.uniform(10, 60, size=2))
                 for _ in range(5)]
        pos = [rng.uniform(0, 300, size=2) for _ in range(4)]
        wh = [rng.uniform(10, 70, size=2) for _ in range(4)]
        sm = build_sm_matrix(pos, wh, boxes, cfg)
        rp = [2, 0, 3, 1]
        cp = [4, 2, 0, 1, 3]
        sm_perm = build_sm_matrix([pos[i] for i in rp], [wh[i] for i in rp],
                                  [boxes[j] for j in cp], cfg)
        np.testing.assert_allclose(sm_perm.values, sm.values[np.ix_(rp, cp)])


def constant_scorer(value, calls=None):
    """A scorer giving ``value`` to every pair; records each call's (a, b) in ``calls``."""
    def scorer(a, b):
        if calls is not None:
            calls.append((a, b))
        return np.full((len(a), len(b)), value)
    return scorer


def scalar_ham(memory, z, reference, use_ham):
    """Per-pair HAM: c_r * s(recent) + (1 - c_r) * sum_n w_n * s(history_n), clamped."""
    def score(stored):
        return reference(stored.values, z.values)

    c_r = memory.recent_conf
    if not use_ham or not memory.history or c_r >= 1.0:
        return score(memory.recent)
    s_hist = 0.0
    for w, entry in zip(history_weights(memory), memory.history):
        s_hist += float(w) * score(entry.descriptor)
    return min(1.0, max(0.0, c_r * score(memory.recent) + (1.0 - c_r) * s_hist))


class TestFuseAppearance:
    def setup_method(self):
        self.boxes = [BBox(0, 0, 30, 60), BBox(300, 300, 30, 60)]
        self.pred = [(15.0, 30.0, 30.0, 60.0), (315.0, 330.0, 30.0, 60.0)]
        self.descriptors = [unit([1.0, 0.0]), unit([0.0, 1.0])]
        self.memories = [AppearanceMemory(recent=unit([1.0, 0.0])),
                         AppearanceMemory(recent=unit([0.0, 1.0]))]

    def fuse(self, scorer=None, use_ham=True, **cfg_kw):
        cfg = TrackerConfig(**cfg_kw)
        pos = [p[:2] for p in self.pred]
        wh = [p[2:] for p in self.pred]
        sm = build_sm_matrix(pos, wh, self.boxes, cfg)
        return sm, fuse_appearance(sm, self.memories, self.descriptors,
                                   scorer or score_embedding, use_ham)

    def test_all_gated_out_means_zero_matrix_and_no_scoring(self):
        calls = []
        sm, fused = self.fuse(scorer=constant_scorer(1.0, calls), tau_asc=1.0)
        assert not sm.gate_mask.any()
        assert np.all(fused.values == 0.0)
        assert calls == []

    def test_unit_scorer_reproduces_sm(self):
        sm, fused = self.fuse(scorer=constant_scorer(1.0), tau_asc=0.0)
        mask = sm.gate_mask
        np.testing.assert_array_equal(fused.values[mask], sm.values[mask])
        np.testing.assert_array_equal(fused.values[~mask], 0.0)

    def test_single_pair_product(self):
        box = BBox(0, 0, 30, 60)
        cfg = TrackerConfig(tau_asc=0.0)
        sm = build_sm_matrix([(box.cx, box.cy)], [(30.0, 60.0)], [box], cfg)
        sm.values[0, 0] = 0.5
        fused = fuse_appearance(sm, [self.memories[0]], [self.descriptors[0]],
                                constant_scorer(0.6))
        assert fused.values[0, 0] == pytest.approx(0.30)

    def test_eval_count_equals_gated_pairs(self):
        # One scorer call per track row with a gated-in cell, against exactly
        # that row's gated-in detections.
        calls = []
        sm, _ = self.fuse(scorer=constant_scorer(1.0, calls))
        rows = np.flatnonzero(sm.gate_mask.any(axis=1))
        assert len(calls) == len(rows)
        for (stored, zs), i in zip(calls, rows):
            assert stored == [self.memories[i].recent]
            assert zs == [self.descriptors[j] for j in np.flatnonzero(sm.gate_mask[i])]
        evals = sum(len(zs) for _, zs in calls)
        assert evals == int(sm.gate_mask.sum())
        assert 0 < evals < sm.values.size

    def test_gating_changes_cost_not_values(self):
        sm, fused = self.fuse()
        # Reference: score every pair with gating disabled.
        reference = np.zeros_like(sm.values)
        for i in range(2):
            for j in range(2):
                reference[i, j] = sm.values[i, j] * ham(
                    self.memories[i], self.descriptors[j], score_embedding)
        mask = sm.gate_mask
        np.testing.assert_array_equal(fused.values[mask], reference[mask])

    def test_scorer_failure_aborts_with_context(self):
        def broken(a, b):
            raise KeyError("missing feature")

        with pytest.raises(RuntimeError, match=r"track row 0, detections \[0\]"):
            self.fuse(scorer=broken)

    def test_missing_descriptor_reported(self):
        cfg = TrackerConfig()
        sm = build_sm_matrix([(15.0, 30.0)], [(30.0, 60.0)], [self.boxes[0]], cfg)
        with pytest.raises(ValueError, match="detection 0 has no appearance descriptor"):
            fuse_appearance(sm, [self.memories[0]], [None], constant_scorer(1.0))

    def test_gate_values_route(self):
        sm, _ = self.fuse()
        gated = gate_values(sm)
        np.testing.assert_array_equal(gated.values[sm.gate_mask],
                                      sm.values[sm.gate_mask])
        np.testing.assert_array_equal(gated.values[~sm.gate_mask], 0.0)

    def test_baseline_mode_uses_recent_only(self):
        hist = (HistoryEntry(unit([0.0, 1.0]), 0.9, 1),)
        self.memories[0] = AppearanceMemory(recent=unit([1.0, 0.0]),
                                            recent_conf=0.2, history=hist)
        _, fused_base = self.fuse(use_ham=False)
        _, fused_ham = self.fuse(use_ham=True)
        assert fused_base.values[0, 0] != pytest.approx(fused_ham.values[0, 0])
        expected = score_embedding([self.memories[0].recent], [self.descriptors[0]])[0, 0]
        sm, _ = self.fuse(scorer=constant_scorer(1.0))
        assert fused_base.values[0, 0] == pytest.approx(sm.values[0, 0] * expected)


class TestFuseMatchesPerPairHam:
    """fuse_appearance equals a per-pair scalar HAM bit for bit on every gated cell."""

    # (history length, recent confidence) of each track row: empty histories,
    # saturated confidence, and histories at the default 10-entry cap.
    ROWS = [(0, 0.4), (0, 1.0), (1, 0.0), (3, 0.55), (10, 0.3), (10, 1.0), (7, 0.9)]

    def memories(self, rng, make):
        return [AppearanceMemory(
            recent=make(), recent_conf=conf,
            history=tuple(HistoryEntry(make(), float(rng.uniform(0.6, 1.0)), k + 1)
                          for k in range(n_hist)))
            for n_hist, conf in self.ROWS]

    @pytest.mark.parametrize("use_ham", [True, False])
    @pytest.mark.parametrize("kind, d", [("embedding", 128), ("embedding", 3),
                                         ("histogram", 512), ("histogram", 5)])
    def test_matches(self, kind, d, use_ham):
        rng = np.random.default_rng(d + use_ham)
        if kind == "embedding":
            make, reference = (lambda: unit(rng.normal(size=d))), embedding_reference
        else:
            make, reference = (lambda: sparse_histogram(rng, d)), histogram_reference
        memories = self.memories(rng, make)
        descriptors = [make() for _ in range(9)]
        descriptors[2] = memories[4].history[-1].descriptor  # a perfect match
        values = rng.uniform(0.05, 1.0, size=(len(memories), len(descriptors)))
        mask = rng.random(values.shape) < 0.7
        mask[-1] = False  # a row with nothing gated in
        sm = AffinityMatrix(values=values, gate_mask=mask)
        fused = fuse_appearance(sm, memories, descriptors, score_descriptors, use_ham)
        expected = np.zeros_like(values)
        for i, j in np.argwhere(mask):
            expected[i, j] = values[i, j] * scalar_ham(memories[i], descriptors[j],
                                                      reference, use_ham)
        assert np.array_equal(fused.values, expected)
