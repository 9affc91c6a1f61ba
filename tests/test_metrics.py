import math
import warnings

import numpy as np
import pytest

from hamtrack.core import BBox
from hamtrack.metrics import clear_mot, evaluate, idf1, iou_matrix


def box(x=0.0, y=0.0, w=10.0, h=10.0):
    return BBox(x, y, w, h)


def track_frames(obj_id, frames, x=0.0, step=0.0):
    """One object with a box per frame, optionally drifting in x."""
    return {f: [(obj_id, box(x + step * k))] for k, f in enumerate(frames)}


def merge(*frame_dicts):
    out = {}
    for d in frame_dicts:
        for f, items in d.items():
            out.setdefault(f, []).extend(items)
    return out


def scalar_iou(a: BBox, b: BBox) -> float:
    """Reference IoU of one pair, in the operation order iou_matrix must match."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.w * a.h + b.w * b.h - inter)


def iou(a: BBox, b: BBox) -> float:
    return float(iou_matrix([a], [b])[0, 0])


class TestIou:
    def test_identical(self):
        assert iou(box(), box()) == pytest.approx(1.0)

    def test_disjoint(self):
        assert iou(box(0, 0), box(100, 100)) == 0.0

    def test_half_overlap(self):
        # 5x10 intersection over 150 union
        assert iou(box(0, 0, 10, 10), box(5, 0, 10, 10)) == pytest.approx(50 / 150)

    def test_touching_edges(self):
        assert iou(box(0, 0, 10, 10), box(10, 0, 10, 10)) == 0.0

    @pytest.mark.parametrize("n_a, n_b", [(0, 3), (3, 0), (0, 0)])
    def test_empty_side(self, n_a, n_b):
        out = iou_matrix([box()] * n_a, [box()] * n_b)
        assert out.shape == (n_a, n_b)

    def test_matches_scalar_reference_exactly(self):
        # Coordinates on a coarse grid make touching edges, shared edges and
        # containment common; the fractional part makes general overlaps.
        rng = np.random.default_rng(17)

        def boxes(n):
            out = []
            for _ in range(n):
                x, y = rng.integers(0, 6, 2) + rng.choice([0.0, 0.5, rng.random()])
                w, h = rng.integers(1, 5, 2) + rng.choice([0.0, 0.25, rng.random()])
                out.append(box(x, y, w, h))
            return out

        kinds = {"touch": 0, "contain": 0, "disjoint": 0, "empty": 0}
        for _ in range(600):
            a, b = boxes(rng.integers(0, 6)), boxes(rng.integers(0, 6))
            out = iou_matrix(a, b)
            assert out.shape == (len(a), len(b))
            kinds["empty"] += not (a and b)
            for i, p in enumerate(a):
                for j, q in enumerate(b):
                    ref = scalar_iou(p, q)
                    assert out[i, j] == ref, (p, q)
                    touch = p.x + p.w == q.x or q.x + q.w == p.x
                    kinds["touch"] += touch
                    kinds["disjoint"] += ref == 0.0 and not touch
                    kinds["contain"] += (p.x <= q.x and p.y <= q.y and q.x + q.w <= p.x + p.w
                                         and q.y + q.h <= p.y + p.h and p != q)
        assert min(kinds.values()) > 20, kinds

    def test_overflowing_areas_score_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = iou_matrix([box(0, 0, 1e200, 1e200)], [box(1e199, 0, 1e200, 1e200)])
        assert np.isnan(out[0, 0])


class TestClearMot:
    def test_perfect_tracking(self):
        gt = track_frames(1, range(1, 11))
        out = clear_mot(gt, gt, 0.5)
        assert (out.fp, out.fn, out.idsw) == (0, 0, 0)
        assert out.mota == pytest.approx(1.0)

    def test_hand_built_ten_box_scenario(self):
        # 10 gt boxes; hyp id A covers frames 1-5, nothing at 6-7 (2 FN),
        # id B covers 8-10 (1 switch), plus one far-away box at frame 3 (1 FP).
        gt = track_frames(1, range(1, 11))
        hyp = merge(track_frames(100, range(1, 6)),
                    track_frames(200, range(8, 11)),
                    {3: [(300, box(500, 500))]})
        out = clear_mot(gt, hyp, 0.5)
        assert out.gt_total == 10
        assert (out.fp, out.fn, out.idsw) == (1, 2, 1)
        assert out.mota == pytest.approx(0.6)

    def test_switch_counted_once_per_change(self):
        gt = track_frames(1, range(1, 11))
        hyp = merge(track_frames(7, range(1, 6)), track_frames(8, range(6, 11)))
        out = clear_mot(gt, hyp, 0.5)
        assert out.idsw == 1
        assert out.mota == pytest.approx(1.0 - 1 / 10)

    def test_switch_across_gap(self):
        # no hypothesis at all for frames 4-5, new id afterwards: still a switch
        gt = track_frames(1, range(1, 9))
        hyp = merge(track_frames(7, range(1, 4)), track_frames(8, range(6, 9)))
        out = clear_mot(gt, hyp, 0.5)
        assert out.idsw == 1
        assert out.fn == 2

    def test_persistence_beats_greedy_swap(self):
        # Two overlapping gt objects: pairing must stick with last frame's ids.
        gt = {f: [(1, box(0, 0)), (2, box(6, 0))] for f in (1, 2)}
        hyp = {1: [(10, box(0, 0)), (20, box(6, 0))],
               2: [(20, box(6.5, 0)), (10, box(0.5, 0))]}
        out = clear_mot(gt, hyp, 0.3)
        assert out.idsw == 0

    def test_low_iou_not_matched(self):
        gt = track_frames(1, [1])
        hyp = {1: [(5, box(8, 0))]}  # IoU = 2/18 < 0.5
        out = clear_mot(gt, hyp, 0.5)
        assert (out.fp, out.fn) == (1, 1)

    def test_masking_prevents_blocking_suboptimal_pairs(self):
        # A sub-threshold pair must not consume a hypothesis that another gt
        # could legitimately use.
        gt = {1: [(1, box(0, 0)), (2, box(20, 0))]}
        hyp = {1: [(7, box(1, 0))]}  # good for gt 1 only
        out = clear_mot(gt, hyp, 0.5)
        assert (out.fp, out.fn) == (0, 1)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        gt = {}
        hyp = {}
        for f in range(1, 30):
            gt[f] = [(k, box(40.0 * k + rng.uniform(-2, 2), 0)) for k in range(4)]
            hyp[f] = [(k + 50, box(40.0 * k + rng.uniform(-2, 2), 0)) for k in range(4)]
        base = clear_mot(gt, hyp, 0.5)
        relabeled = {f: [(hid * 13 + 7, b) for hid, b in items]
                     for f, items in hyp.items()}
        out = clear_mot(gt, relabeled, 0.5)
        assert (out.fp, out.fn, out.idsw) == (base.fp, base.fn, base.idsw)

    def test_repeated_id_in_a_frame_counts_every_row(self):
        # gt id 1 twice in frame 1: both rows are ground truth and match in
        # row order, so id 1 goes 5 -> 6 (a switch). In frame 2 hyp id 5 is
        # there twice: gt 1 takes its first row back (a switch), the other
        # row is an FP.
        gt = {1: [(1, box(0, 0)), (1, box(50, 0))], 2: [(1, box(0, 0))]}
        hyp = {1: [(5, box(0, 0)), (6, box(50, 0))], 2: [(5, box(0, 0)), (5, box(1, 0))]}
        out = clear_mot(gt, hyp, 0.5)
        assert (out.gt_total, out.fp, out.fn, out.idsw) == (3, 1, 0, 2)

    def test_repeated_hypothesis_id_continues_on_its_first_row(self):
        # In frame 2, gt 1 keeps hyp 5 through 5's first row (IoU 2/3),
        # which leaves gt 2 only the second row, below the threshold.
        gt = {1: [(1, box(0))], 2: [(1, box(0)), (2, box(6))]}
        hyp = {1: [(5, box(0))], 2: [(5, box(2)), (5, box(0))]}
        out = clear_mot(gt, hyp, 0.3)
        assert (out.gt_total, out.fp, out.fn, out.idsw) == (3, 1, 1, 0)

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            clear_mot({}, {1: [(1, box())]}, 0.5)


class TestIdf1:
    def test_perfect(self):
        gt = track_frames(1, range(1, 11))
        out = idf1(gt, gt, 0.5)
        assert out.idf1 == pytest.approx(1.0)
        assert (out.idfp, out.idfn) == (0, 0)

    def test_split_trajectory_halves_score(self):
        # 10-frame object tracked as two 5-frame ids: 2*5/(2*5+5+5) = 0.5
        gt = track_frames(1, range(1, 11))
        hyp = merge(track_frames(7, range(1, 6)), track_frames(8, range(6, 11)))
        out = idf1(gt, hyp, 0.5)
        assert out.idtp == 5
        assert (out.idfp, out.idfn) == (5, 5)
        assert out.idf1 == pytest.approx(0.5)

    def test_empty_hypothesis(self):
        gt = track_frames(1, range(1, 11))
        out = idf1(gt, {}, 0.5)
        assert out.idf1 == 0.0
        assert out.idfn == 10

    def test_trajectory_matching_is_optimal(self):
        # Two gt objects, two hyp ids with crossed overlaps; the one-to-one
        # choice must maximize total overlap: pairing (1,B),(2,A) gives 8+8.
        gt = merge(track_frames(1, range(1, 11), x=0.0),
                   track_frames(2, range(1, 11), x=100.0))
        hyp = merge(
            {f: [(7, box(0.0 if f <= 2 else 100.0))] for f in range(1, 11)},
            {f: [(8, box(100.0 if f <= 2 else 0.0))] for f in range(1, 11)},
        )
        out = idf1(gt, hyp, 0.5)
        assert out.idtp == 16

    def test_bounded_by_box_frames(self):
        gt = track_frames(1, range(1, 6))
        hyp = track_frames(9, range(1, 9))
        out = idf1(gt, hyp, 0.5)
        assert out.idtp <= 5
        assert out.idtp == 5
        assert out.idfp == 3


    def test_repeated_id_keeps_its_last_box(self):
        # gt 1 is at x=0 and x=50 in frame 1, hyp 7 at x=0 and x=90 in
        # frame 3; only the last box of each counts, so they overlap in
        # frame 2 alone.
        gt = {1: [(1, box(0)), (1, box(50))], 2: [(1, box(0))], 3: [(1, box(0))]}
        hyp = {1: [(7, box(0))], 2: [(7, box(0))], 3: [(7, box(0)), (7, box(90))]}
        out = idf1(gt, hyp, 0.5)
        assert (out.idtp, out.idfp, out.idfn) == (1, 2, 2)


class TestEvaluate:
    def test_report_identities(self):
        rng = np.random.default_rng(5)
        gt = {}
        hyp = {}
        hyp_id = 31
        for f in range(1, 60):
            gt[f] = [(1, box(3.0 * f, 0.0))]
            if f % 7 == 0:
                hyp_id += 1  # periodic relabeling to force switches
            if f % 5 != 0:  # periodic dropouts to force misses
                hyp[f] = [(hyp_id, box(3.0 * f + rng.uniform(-1, 1), 0.0))]
            else:
                hyp[f] = [(hyp_id, box(3.0 * f + 200.0, 0.0))]
        report = evaluate(gt, hyp, 0.5)
        assert report.mota == pytest.approx(
            1.0 - (report.fp + report.fn + report.idsw) / report.gt_total)
        assert report.idf1 == pytest.approx(
            2 * report.idtp / (2 * report.idtp + report.idfp + report.idfn))
        assert report.mota <= 1.0
        assert 0.0 <= report.idf1 <= 1.0

    def test_summary_csv_format(self):
        gt = track_frames(1, range(1, 11))
        report = evaluate(gt, gt, 0.5)
        assert report.summary_csv() == "1.000,1.000,0,0,0,10"

    @pytest.mark.parametrize("threshold", [math.nan, -0.2, 1.5, math.inf, -math.inf])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        gt = track_frames(1, range(1, 4))
        with pytest.raises(ValueError, match=r"IoU threshold must be in \[0, 1\]"):
            evaluate(gt, gt, threshold)

    def test_threshold_bounds_accepted(self):
        gt = track_frames(1, range(1, 4))
        for threshold in (0.0, 1.0):
            assert evaluate(gt, gt, threshold).summary_csv() == "1.000,1.000,0,0,0,3"

    @pytest.mark.parametrize("threshold, fp_fn", [(0.5, (1, 1)), (0.0, (0, 0))])
    def test_overlapping_overflowing_boxes(self, threshold, fp_fn):
        # Areas of 1e400 overflow and the pair's IoU is NaN. It never counts
        # for IDF1; CLEAR-MOT still pairs it at threshold 0, where every
        # remaining pair is eligible.
        gt = {1: [(1, box(0, 0, 1e200, 1e200))]}
        hyp = {1: [(2, box(1e199, 0, 1e200, 1e200))]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate(gt, hyp, threshold)
        assert (report.fp, report.fn) == fp_fn
        assert (report.idsw, report.idtp, report.idfp, report.idfn) == (0, 0, 1, 1)
