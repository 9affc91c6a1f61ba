import math

import numpy as np
import pytest

from hamtrack import affinity
from hamtrack.affinity import (AffinityMatrix, build_sm_matrix, fuse_appearance, gate_values,
                               inverse_sigma)
from hamtrack.appearance import (AppearanceMemory, HistoryEntry, ham, score_embedding,
                                 scorer_for)
from hamtrack.core import AppearanceDescriptor, BBox, TrackerConfig
from scenario_utils import (embedding_reference, histogram_reference, peak_bytes,
                            sparse_histogram)

E = AppearanceDescriptor.embedding


def unit(vec):
    return E(vec, normalize=True)


def shape_affinity(pred_wh, box: BBox, xi: float) -> float:
    """Scalar oracle: exp(-xi * (|dh| / (h1 + h2) + |dw| / (w1 + w2))) on predicted vs seen size."""
    w_p, h_p = float(pred_wh[0]), float(pred_wh[1])
    if w_p <= 0 or h_p <= 0:
        raise ValueError(f"predicted size must be positive, got ({w_p}, {h_p})")
    rel = abs(h_p - box.h) / (h_p + box.h) + abs(w_p - box.w) / (w_p + box.w)
    return math.exp(-xi * rel)


def motion_affinity(pred_pos, z_pos, sigma: np.ndarray, eta: float) -> float:
    """Scalar oracle: exp(-eta * d' inv(sigma) d) for the displacement d from prediction to box."""
    d = np.asarray(z_pos, dtype=float) - np.asarray(pred_pos, dtype=float)
    try:
        solved = np.linalg.solve(np.asarray(sigma, dtype=float), d)
    except np.linalg.LinAlgError:
        raise ValueError("sigma is singular") from None
    return math.exp(-eta * float(d @ solved))


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
        sigma = np.array([[cfg.sigma_xx, cfg.sigma_xy], [cfg.sigma_xy, cfg.sigma_yy]])
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
                                * motion_affinity(pos[i], box.center(), sigma, cfg.eta))
                    assert sm.values[i, j] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [0, 1, 7])
    def test_array_boxes_give_the_bbox_list_bits(self, m):
        # The (m, 4) x, y, w, h rows ``Tracker.step`` passes, against the same BBox objects.
        rng = np.random.default_rng(21)
        boxes = [BBox(*rng.uniform(10, 300, size=2), *rng.uniform(10, 60, size=2))
                 for _ in range(m)]
        rows = np.array([(b.x, b.y, b.w, b.h) for b in boxes]).reshape(-1, 4)
        before = rows.copy()
        pos, wh = rng.uniform(0, 300, size=(4, 2)), rng.uniform(10, 70, size=(4, 2))
        listed = build_sm_matrix(pos, wh, boxes, TrackerConfig())
        columnar = build_sm_matrix(pos, wh, rows, TrackerConfig())
        assert columnar.values.tobytes() == listed.values.tobytes()
        assert columnar.gate_mask.tobytes() == listed.gate_mask.tobytes()
        assert columnar.values.shape == (4, m)
        assert np.array_equal(rows, before)  # only read

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


def sm_oracle(pred_pos, pred_wh, boxes, cfg):
    """The shape-motion matrix as one einsum over (n * m, 2) displacements.

    This is the layout ``build_sm_matrix`` computed before it worked on
    (2, n, m) planes; its values and gate must stay the same to the bit.
    """
    n, m = len(pred_pos), len(boxes)
    if not (n and m):
        return np.zeros((n, m)), np.zeros((n, m), dtype=bool)
    pos = np.asarray(pred_pos, dtype=float).reshape(n, 1, 2)
    wh = np.asarray(pred_wh, dtype=float).reshape(n, 1, 2)
    obs = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes])
    centers, sizes = obs[:, :2], obs[:, 2:]
    d = (centers - pos).reshape(n * m, 2)
    sigma = np.array([[cfg.sigma_xx, cfg.sigma_xy], [cfg.sigma_xy, cfg.sigma_yy]])
    maha = np.einsum("kj,jl,kl->k", d, np.linalg.inv(sigma), d).reshape(n, m)
    rel = np.abs(wh - sizes) / (wh + sizes)
    values = np.exp(-cfg.xi * (rel[..., 1] + rel[..., 0])) * np.exp(-cfg.eta * maha)
    return values, values > cfg.tau_asc


class TestBuildSmMatrixMatchesOracle:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("correlated", [False, True])
    def test_bit_identical(self, seed, correlated):
        rng = np.random.default_rng(700 + seed)
        nonzero = 0
        for _ in range(25):
            n, m = (int(k) for k in rng.integers(0, 171, size=2))
            sxx, syy = rng.uniform(1e2, 1e6, size=2)
            sxy = rng.uniform(-0.9, 0.9) * math.sqrt(sxx * syy) if correlated else 0.0
            cfg = TrackerConfig(sigma_xx=sxx, sigma_xy=sxy, sigma_yy=syy,
                                xi=rng.uniform(0.0, 3.0), eta=rng.uniform(0.0, 2.0))
            boxes = [BBox(*rng.uniform(-500, 3000, size=2), *rng.uniform(1, 2000, size=2))
                     for _ in range(m)]
            pos = rng.uniform(-500, 4000, size=(n, 4))[:, :2]  # a view, as the tracker passes
            wh = rng.uniform(1, 2000, size=(n, 2))
            sm = build_sm_matrix(pos, wh, boxes, cfg)
            values, gate = sm_oracle(pos, wh, boxes, cfg)
            assert np.array_equal(sm.values, values), (n, m)
            assert np.array_equal(sm.gate_mask, gate), (n, m)
            nonzero += np.count_nonzero(values)
        assert nonzero > 0


class TestBuildSmMatrixMemory:
    def test_peak_stays_within_five_planes(self):
        # Large temporaries freed together go back to the OS, and the next
        # frame faults them in again; the bound keeps them few.
        rng = np.random.default_rng(11)
        n, m = 150, 170
        boxes = [BBox(*rng.uniform(0, 1900, size=2), *rng.uniform(20, 80, size=2))
                 for _ in range(m)]
        pos, wh = rng.uniform(0, 1900, size=(n, 2)), rng.uniform(20, 80, size=(n, 2))
        peak = peak_bytes(lambda: build_sm_matrix(pos, wh, boxes, TrackerConfig()))
        assert peak <= 5 * n * m * 8, peak / (n * m * 8)


class TestInverseSigma:
    def test_cached_read_only_inverse(self):
        cfg = TrackerConfig(sigma_xx=900.0, sigma_xy=-120.0, sigma_yy=400.0)
        inv = inverse_sigma(cfg.sigma_xx, cfg.sigma_xy, cfg.sigma_yy)
        assert np.array_equal(inv, np.linalg.inv([[900.0, -120.0], [-120.0, 400.0]]))
        assert inverse_sigma(900.0, -120.0, 400.0) is inv
        with pytest.raises(ValueError, match="read-only"):
            inv[0, 0] = 1.0

    def test_frames_of_one_config_invert_once(self, monkeypatch):
        inverted, original = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or original(a))
        affinity.inverse_sigma.cache_clear()
        cfg = TrackerConfig(sigma_xx=2500.0, sigma_xy=100.0, sigma_yy=1600.0)
        for frame in range(3):
            build_sm_matrix([[10.0 * frame, 20.0]], [[30.0, 60.0]], [BBox(5, 5, 30, 60)], cfg)
        assert len(inverted) == 1


def scalar_ham(memory, z, reference, use_ham):
    """Per-pair HAM: c_r * s(recent) + (1 - c_r) * sum_n w_n * s(history_n), clamped.

    The weights are each entry's confidence over a 1-d numpy sum of the
    entry confidences, as a per-track memory totals them.
    """
    def score(stored):
        return reference(stored.values, z.values)

    c_r = memory.recent_conf
    if not use_ham or not memory.history or c_r >= 1.0:
        return score(memory.recent)
    confs = np.array([e.conf for e in memory.history])
    s_hist = 0.0
    for w, entry in zip(confs / float(confs.sum()), memory.history):
        s_hist += float(w) * score(entry.descriptor)
    return min(1.0, max(0.0, c_r * score(memory.recent) + (1.0 - c_r) * s_hist))


class TestFuseAppearance:
    def setup_method(self):
        self.boxes = [BBox(0, 0, 30, 60), BBox(300, 300, 30, 60)]
        self.pred = [(15.0, 30.0, 30.0, 60.0), (315.0, 330.0, 30.0, 60.0)]
        self.descriptors = [unit([1.0, 0.0]), unit([0.0, 1.0])]
        self.memories = [AppearanceMemory(recent=unit([1.0, 0.0])),
                         AppearanceMemory(recent=unit([0.0, 1.0]))]

    def fuse(self, scorer=score_embedding, use_ham=True, **cfg_kw):
        cfg = TrackerConfig(**cfg_kw)
        pos = [p[:2] for p in self.pred]
        wh = [p[2:] for p in self.pred]
        sm = build_sm_matrix(pos, wh, self.boxes, cfg)
        return sm, fuse_appearance(sm, self.memories, self.descriptors, scorer, use_ham)

    @staticmethod
    def scored_pairs(monkeypatch):
        """The (rows, cols) of each ``ham_scores`` call ``fuse_appearance`` makes."""
        calls, original = [], affinity.ham_scores

        def counted(bank, rows, cols, *args):
            calls.append((rows, cols))
            return original(bank, rows, cols, *args)

        monkeypatch.setattr(affinity, "ham_scores", counted)
        return calls

    def test_all_gated_out_means_zero_matrix_and_no_scoring(self, monkeypatch):
        calls = self.scored_pairs(monkeypatch)
        sm, fused = self.fuse(tau_asc=1.0)
        assert not sm.gate_mask.any()
        assert np.all(fused.values == 0.0)
        assert calls == []

    def test_unit_scorer_reproduces_sm(self):
        # Every detection is the stored appearance of every track: each score is 1.
        self.memories = [AppearanceMemory(recent=unit([1.0, 0.0]))] * 2
        self.descriptors = [unit([1.0, 0.0])] * 2
        sm, fused = self.fuse(tau_asc=0.0)
        mask = sm.gate_mask
        assert mask.any()
        np.testing.assert_array_equal(fused.values[mask], sm.values[mask])
        np.testing.assert_array_equal(fused.values[~mask], 0.0)

    def test_single_pair_product(self):
        box = BBox(0, 0, 30, 60)
        cfg = TrackerConfig(tau_asc=0.0)
        sm = build_sm_matrix([(box.cx, box.cy)], [(30.0, 60.0)], [box], cfg)
        sm.values[0, 0] = 0.5
        # A cosine of 0.2 scores (1 + 0.2) / 2 = 0.6.
        fused = fuse_appearance(sm, [self.memories[0]], [unit([0.2, math.sqrt(0.96)])],
                                score_embedding)
        assert fused.values[0, 0] == pytest.approx(0.30)

    def test_eval_count_equals_gated_pairs(self, monkeypatch):
        # One scoring call holding exactly the gated-in pairs.
        calls = self.scored_pairs(monkeypatch)
        sm, _ = self.fuse()
        assert len(calls) == 1
        rows, cols = calls[0]
        assert np.array_equal(np.column_stack([rows, cols]), np.argwhere(sm.gate_mask))
        assert 0 < len(rows) < sm.values.size

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
        # A scorer that is not built in, and a history whose confidences are all zero.
        with pytest.raises(RuntimeError, match=r"track rows \[0, 1\], detections \[0, 1\]: "
                                               r"HAM scores with score_histogram or "
                                               r"score_embedding only"):
            self.fuse(scorer=lambda x, y: np.ones(len(x)))
        hist = (HistoryEntry(unit([0.0, 1.0]), 0.0, 1), HistoryEntry(unit([1.0, 1.0]), 0.0, 2))
        self.memories[1] = AppearanceMemory(recent=unit([0.0, 1.0]), recent_conf=0.5,
                                            history=hist)
        with pytest.raises(RuntimeError, match=r"track rows \[0, 1\], detections \[0, 1\]: "
                                               r"all history confidences are zero"):
            self.fuse()

    def test_missing_descriptor_reported(self):
        cfg = TrackerConfig()
        sm = build_sm_matrix([(15.0, 30.0)], [(30.0, 60.0)], [self.boxes[0]], cfg)
        with pytest.raises(ValueError, match="detection 0 has no appearance descriptor"):
            fuse_appearance(sm, [self.memories[0]], [None], score_embedding)

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
        expected = score_embedding(self.memories[0].recent.values[None],
                                   self.descriptors[0].values[None])[0]
        sm, _ = self.fuse()
        assert fused_base.values[0, 0] == pytest.approx(sm.values[0, 0] * expected)


class TestFuseMatchesPerPairHam:
    """fuse_appearance equals a per-pair scalar HAM on every gated cell, to a few ulp.

    ``ham_scores`` blends each track's feature rows before one inner product,
    where the scalar HAM blends one score per memory slot.
    """

    # (history length, recent confidence) of each track row: every length up to
    # the default 10-entry cap, each twice (4..7 entries are where a
    # zero-padded confidence total changes bits), empty histories and
    # saturated confidence.
    ROWS = ([(n, 0.55) for n in range(11)] + [(n, 0.3) for n in range(11)]
            + [(0, 0.4), (0, 1.0), (1, 0.0), (10, 1.0), (7, 0.9)])

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
        descriptors[2] = memories[10].history[-1].descriptor  # a perfect match
        values = rng.uniform(0.05, 1.0, size=(len(memories), len(descriptors)))
        mask = rng.random(values.shape) < 0.7
        mask[-1] = False  # a row with nothing gated in
        sm = AffinityMatrix(values=values, gate_mask=mask)
        fused = fuse_appearance(sm, memories, descriptors, scorer_for(kind), use_ham)
        expected = np.zeros_like(values)
        for i, j in np.argwhere(mask):
            expected[i, j] = values[i, j] * scalar_ham(memories[i], descriptors[j],
                                                      reference, use_ham)
        np.testing.assert_allclose(fused.values, expected, rtol=0.0, atol=1e-15)
        assert np.all(fused.values[~mask] == 0.0)
