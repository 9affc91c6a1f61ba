import math
import warnings

import numpy as np
import pytest

from hamtrack import metrics
from hamtrack.association import hungarian_max
from hamtrack.core import BBox
from hamtrack.metrics import (ClearMotCounts, EvalReport, IdentityScores, clear_mot, evaluate,
                              idf1, iou_matrix)
from hamtrack.io_mot import parse_gt_file
from scenario_utils import peak_bytes


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


class TestIouMemory:
    def test_peak_stays_within_four_and_a_half_planes(self):
        # Large temporaries freed together go back to the OS, and a crowd's
        # evaluation faults them in again on every frame.
        rng = np.random.default_rng(12)
        a = [box(*rng.uniform(0, 1900, size=2), *rng.uniform(20, 80, size=2))
             for _ in range(150)]
        b = [box(p.x + rng.normal(0, 3), p.y + rng.normal(0, 3), p.w, p.h) for p in a]
        b += [box(*rng.uniform(0, 1900, size=2), *rng.uniform(20, 80, size=2))
              for _ in range(10)]
        peak = peak_bytes(lambda: iou_matrix(a, b))
        assert peak <= 4.5 * 150 * 160 * 8, peak / (150 * 160 * 8)



class TestEvaluateMemory:
    def test_peak_stays_within_six_planes(self):
        # One frame's IoU matrix is alive at a time: iou_matrix's own temporaries (within
        # 4.5 planes, as above) plus the reached pairs kept so far. Holding the previous
        # frame's matrix as well passes 6 planes; holding every frame's would take 60.
        rng = np.random.default_rng(13)
        gt, hyp = {}, {}
        for frame in range(1, 61):
            a = [box(*rng.uniform(0, 1900, size=2), *rng.uniform(20, 80, size=2))
                 for _ in range(150)]
            b = [box(p.x + rng.normal(0, 3), p.y + rng.normal(0, 3), p.w, p.h) for p in a]
            b += [box(*rng.uniform(0, 1900, size=2), *rng.uniform(20, 80, size=2))
                  for _ in range(10)]
            gt[frame] = list(enumerate(a))
            hyp[frame] = [(100 + k, p) for k, p in enumerate(b)]
        peak = peak_bytes(lambda: evaluate(gt, hyp, 0.5))
        assert peak <= 6 * 150 * 160 * 8, peak / (150 * 160 * 8)

    def test_threshold_0_peaks_within_twice_the_threshold_half_peak(self):
        # At threshold 0 every pair of a frame counts, yet none is listed unless its IoU
        # is not 0: the 24,000 pairs a frame of this scene has would take 69 MB.
        gt, hyp = crowd_frames(np.random.default_rng(13))
        at_zero, at_half = (peak_bytes(lambda: evaluate(gt, hyp, t)) for t in (0.0, 0.5))
        assert at_zero <= 2 * at_half, (at_zero, at_half)


def crowd_frames(rng):
    """60 frames of 150 boxes in 1900 x 1900, tracked by 150 near copies and 10 others."""
    gt, hyp = {}, {}
    for frame in range(1, 61):
        a = [box(*rng.uniform(0, 1900, size=2), *rng.uniform(20, 80, size=2)) for _ in range(150)]
        b = [box(p.x + rng.normal(0, 3), p.y + rng.normal(0, 3), p.w, p.h) for p in a]
        b += [box(*rng.uniform(0, 1900, size=2), *rng.uniform(20, 80, size=2))
              for _ in range(10)]
        gt[frame] = list(enumerate(a))
        hyp[frame] = [(100 + k, p) for k, p in enumerate(b)]
    return gt, hyp


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


def two_matrix_clear_mot(gt_by_frame, hyp_by_frame, iou_threshold):
    """CLEAR-MOT as it was computed on a dense IoU matrix of its own for every frame."""
    frames = sorted(set(gt_by_frame) | set(hyp_by_frame))
    last_match = {}
    gt_total = fp = fn = idsw = 0
    for frame in frames:
        gts = list(gt_by_frame.get(frame, ()))
        hyps = list(hyp_by_frame.get(frame, ()))
        gt_total += len(gts)
        ious = iou_matrix([b for _, b in gts], [b for _, b in hyps])
        hyp_index = {hid: k for k, (hid, _) in reversed(list(enumerate(hyps)))}
        pairs, used_h = [], set()
        for g, (gid, _) in enumerate(gts):
            k = hyp_index.get(last_match.get(gid))
            if k is not None and k not in used_h and ious[g, k] >= iou_threshold:
                pairs.append((g, k))
                used_h.add(k)
        rest_g = sorted(set(range(len(gts))) - {g for g, _ in pairs})
        rest_h = sorted(set(range(len(hyps))) - used_h)
        if rest_g and rest_h:
            sub = ious[np.ix_(rest_g, rest_h)]
            grid = np.where(sub >= iou_threshold, sub, 0.0)
            for a, b in hungarian_max(grid):
                if grid[a, b] >= iou_threshold:
                    pairs.append((rest_g[a], rest_h[b]))
        for g, k in pairs:
            gid, hid = gts[g][0], hyps[k][0]
            prev = last_match.get(gid)
            if prev is not None and prev != hid:
                idsw += 1
            last_match[gid] = hid
        fn += len(gts) - len(pairs)
        fp += len(hyps) - len(pairs)
    mota = 1.0 - (fp + fn + idsw) / gt_total
    return ClearMotCounts(gt_total=gt_total, fp=fp, fn=fn, idsw=idsw, mota=mota)


def two_matrix_idf1(gt_by_frame, hyp_by_frame, iou_threshold):
    """IDF1 as it was computed on a second dense IoU matrix for every frame."""
    gt_frames = {frame: dict(items) for frame, items in gt_by_frame.items()}
    hyp_frames = {frame: dict(items) for frame, items in hyp_by_frame.items()}
    gt_row = {gid: a for a, gid in enumerate(sorted(set().union(*gt_frames.values())))}
    hyp_col = {hid: b for b, hid in enumerate(sorted(set().union(*hyp_frames.values())))}
    idtp = 0
    if gt_row and hyp_col:
        overlap = np.zeros((len(gt_row), len(hyp_col)))
        for frame in gt_frames.keys() & hyp_frames.keys():
            gts, hyps = gt_frames[frame], hyp_frames[frame]
            overlap[np.ix_([gt_row[i] for i in gts], [hyp_col[i] for i in hyps])] += (
                iou_matrix(list(gts.values()), list(hyps.values())) >= iou_threshold)
        idtp = int(sum(overlap[a, b] for a, b in hungarian_max(overlap)))
    idfp = sum(map(len, hyp_frames.values())) - idtp
    idfn = sum(map(len, gt_frames.values())) - idtp
    denom = 2 * idtp + idfp + idfn
    return IdentityScores(idtp=idtp, idfp=idfp, idfn=idfn,
                          idf1=(2 * idtp / denom) if denom else 1.0)


def random_scene(rng):
    """Ground truth and hypotheses over 12 frames with repeated ids within a frame, empty
    frames, frames on one side only, exact copies, near copies and overflowing boxes."""
    def boxes(n):
        if rng.random() < 0.1:  # overlapping boxes whose areas overflow: NaN IoU
            return [box(rng.uniform(0, 1e199), 0, 1e200, 1e200) for _ in range(n)]
        return [box(*rng.integers(0, 8, 2) * 5.0, *rng.integers(2, 6, 2) * 5.0) for _ in range(n)]

    gt, hyp = {}, {}
    for frame in range(1, 13):
        side = rng.integers(0, 5)  # 0: absent from gt, 1: absent from hyp, 2: empty lists
        gt_boxes = boxes(rng.integers(1, 7))
        hyp_boxes = [b if rng.random() < 0.3 else
                     box(b.x + rng.normal(0, 3), b.y + rng.normal(0, 3), b.w, b.h)
                     for b in gt_boxes[:rng.integers(0, len(gt_boxes) + 1)]]
        hyp_boxes += boxes(rng.integers(0, 3))
        if side != 0:
            gt[frame] = [] if side == 2 else [(int(rng.integers(1, 6)), b) for b in gt_boxes]
        if side != 1:
            hyp[frame] = [] if side == 2 else [(int(rng.integers(10, 16)), b)
                                               for b in rng.permutation(hyp_boxes)]
    return gt, hyp


class TestEvaluateMatchesTwoMatrixReference:
    THRESHOLDS = (0.0, 0.3, 0.5, 0.7, 1.0)

    def test_reports_equal_exactly(self):
        kinds = dict.fromkeys(("repeated gt id", "repeated hyp id", "one side", "empty", "nan",
                               "exact", "idsw", "idtp"), 0)
        for seed in range(40):
            gt, hyp = random_scene(np.random.default_rng(seed))
            if not any(gt.values()):
                continue
            for threshold in self.THRESHOLDS:
                cm = two_matrix_clear_mot(gt, hyp, threshold)
                ids = two_matrix_idf1(gt, hyp, threshold)
                assert clear_mot(gt, hyp, threshold) == cm, (seed, threshold)
                assert idf1(gt, hyp, threshold) == ids, (seed, threshold)
                assert evaluate(gt, hyp, threshold) == EvalReport(**vars(cm), **vars(ids))
                kinds["idsw"] += cm.idsw > 0
                kinds["idtp"] += 0 < ids.idtp < ids.idtp + ids.idfp
            for frame in gt.keys() | hyp.keys():
                g, h = gt.get(frame), hyp.get(frame)
                kinds["repeated gt id"] += bool(g) and len({i for i, _ in g}) < len(g)
                kinds["repeated hyp id"] += bool(h) and len({i for i, _ in h}) < len(h)
                kinds["one side"] += (g is None) != (h is None)
                kinds["empty"] += g == [] or h == []
                if g and h:
                    with np.errstate(all="ignore"):
                        ious = iou_matrix([b for _, b in g], [b for _, b in h])
                    kinds["nan"] += bool(np.isnan(ious).any())
                    kinds["exact"] += bool((ious == 1.0).any())
        assert min(kinds.values()) >= 10, kinds


def sweep_scene(rng):
    """Up to 9 frames whose boxes sit on a grid of 5 px, so edges often touch, or at
    1e17 + 16k, where x + w == x below w = 8 and rounding makes IoUs above 1 and below 0, or
    overflow their areas (NaN IoU) or x + w; with repeated ids and frames on one side only."""
    def boxes(kind, n):
        if kind == "nan":
            return [box(rng.uniform(0, 1e199), 0, 1e200, 1e200) for _ in range(n)]
        if kind == "inf":
            return [box(rng.uniform(0.5, 1.7) * 1e308, rng.integers(0, 4) * 5.0,
                        rng.uniform(0.1, 1.7) * 1e308, 10.0) for _ in range(n)]
        if kind == "far":
            return [box(1e17 + 16.0 * rng.integers(0, 4), 1e17 + 16.0 * rng.integers(0, 4),
                        *rng.integers(1, 40, 2).astype(float)) for _ in range(n)]
        return [box(*rng.integers(0, 12, 2) * 5.0, *rng.integers(1, 6, 2) * 5.0)
                for _ in range(n)]

    gt, hyp = {}, {}
    for frame in sorted(rng.choice(20, rng.integers(1, 10), replace=False) + 1):
        kind = rng.choice(["grid", "grid", "far", "far", "nan", "inf"])
        gt_boxes = boxes(kind, rng.integers(0, 8))
        hyp_boxes = [b if rng.random() < 0.4 else box(b.x + 5.0 * rng.integers(-1, 2), b.y,
                                                      b.w, b.h)
                     for b in gt_boxes if rng.random() < 0.8] + boxes(kind, rng.integers(0, 3))
        side = rng.integers(0, 6)  # 0: absent from gt, 1: absent from hyp
        if side != 0:
            gt[int(frame)] = [(int(rng.integers(1, 5)), b) for b in gt_boxes]
        if side != 1:
            hyp[int(frame)] = [(int(rng.integers(10, 15)), b) for b in rng.permutation(hyp_boxes)]
    return gt, hyp


class TestSweepMatchesTwoMatrixReference:
    THRESHOLDS = (0.0, 0.3, 0.5, 0.7, 1.0)

    # Blocks of 1, 3 and 8 boxes a side and candidate pairs, and the default.
    @pytest.mark.parametrize("block", [1, 3, 8, None])
    def test_reports_equal_exactly(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(metrics, "BLOCK", block)
        kinds = dict.fromkeys(("split", "chunked", "x + w == x", "x + w overflows", "touch",
                               "nan", "above 1", "below 0", "one side", "repeated gt id",
                               "repeated hyp id", "idsw", "idtp"), 0)
        for seed in range(60):
            gt, hyp = sweep_scene(np.random.default_rng(seed))
            if not any(gt.values()):
                continue
            for threshold in self.THRESHOLDS:
                cm = two_matrix_clear_mot(gt, hyp, threshold)
                ids = two_matrix_idf1(gt, hyp, threshold)
                assert evaluate(gt, hyp, threshold) == EvalReport(**vars(cm), **vars(ids)), (
                    seed, threshold)
                kinds["idsw"] += cm.idsw > 0
                kinds["idtp"] += 0 < ids.idtp < ids.idtp + ids.idfp
            frames = sorted(gt.keys() | hyp.keys())
            counts = ([len(side.get(frame, ())) for frame in frames] for side in (gt, hyp))
            kinds["split"] += len(list(metrics._blocks(*counts, metrics.BLOCK))) > 1
            for frame in frames:
                g, h = gt.get(frame), hyp.get(frame)
                kinds["one side"] += (g is None) != (h is None)
                kinds["repeated gt id"] += bool(g) and len({i for i, _ in g}) < len(g)
                kinds["repeated hyp id"] += bool(h) and len({i for i, _ in h}) < len(h)
                kinds["x + w == x"] += any(b.x + b.w == b.x for _, b in (g or []) + (h or []))
                kinds["x + w overflows"] += any(math.isinf(b.x + b.w)
                                                for _, b in (g or []) + (h or []))
                if g and h:
                    kinds["chunked"] += len(g) * len(h) > metrics.BLOCK
                    kinds["touch"] += any(p.x + p.w == q.x or q.x + q.w == p.x
                                          for _, p in g for _, q in h)
                    with np.errstate(all="ignore"):
                        ious = iou_matrix([b for _, b in g], [b for _, b in h])
                    kinds["nan"] += bool(np.isnan(ious).any())
                    kinds["above 1"] += bool((ious > 1).any())
                    kinds["below 0"] += bool((ious < 0).any())
        if block is None:  # every scene is one block
            del kinds["split"], kinds["chunked"]
        assert min(kinds.values()) >= 5, kinds


def scene_text(by_frame, rng):
    """A result file of ``by_frame``: the frames' rows interleaved at random, each frame's in
    its order, so frames come unsorted; a flag-0 row after some rows, extra columns on some."""
    queues = [[(frame, i, b) for i, b in pairs] for frame, pairs in by_frame.items() if pairs]
    lines = []
    while queues:
        queue = queues[rng.integers(len(queues))]
        frame, i, b = queue.pop(0)
        if not queue:
            queues.remove(queue)
        extra = ",7,0.25" if rng.random() < 0.3 else ""
        lines.append(f"{frame},{i},{b.x!r},{b.y!r},{b.w!r},{b.h!r},1{extra}\n")
        if rng.random() < 0.2:  # not a box: flagged 0
            lines.append(f"{frame},{i + 1},-3,0,-1,0,0\n")
    return "".join(lines)


class TestEvaluateOnParsedFiles:
    THRESHOLDS = (0.0, 0.3, 0.5, 0.7, 1.0)

    @pytest.mark.parametrize("scene", [random_scene, sweep_scene])
    def test_view_dict_and_reference_agree(self, scene):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            gt, hyp = scene(rng)
            gt_view, hyp_view = (parse_gt_file(scene_text(side, rng)) for side in (gt, hyp))
            if not any(gt.values()):
                continue
            gt_dict, hyp_dict = dict(gt_view), dict(hyp_view)
            assert gt_dict == {f: p for f, p in gt.items() if p}
            for threshold in self.THRESHOLDS:
                expected = EvalReport(**vars(two_matrix_clear_mot(gt_dict, hyp_dict, threshold)),
                                      **vars(two_matrix_idf1(gt_dict, hyp_dict, threshold)))
                assert evaluate(gt_view, hyp_view, threshold) == expected, (seed, threshold)
                assert evaluate(gt_dict, hyp_dict, threshold) == expected, (seed, threshold)
                assert evaluate(gt_view, hyp_dict, threshold) == expected, (seed, threshold)

    def test_distinct_ids_above_2_53_stay_distinct(self):
        # 2**53 and 2**53 + 1 are one double: placed through a float column, they would merge.
        big, ids = 2 ** 53, (2 ** 60, 2 ** 60 + 1)
        gt, hyp = {}, {}
        for frame in range(1, 9):
            gt[frame] = [(big, box(0.0)), (big + 1, box(100.0))]
            swap = frame % 3 == 0
            hyp[frame] = [(ids[swap], box(1.0)), (ids[not swap], box(101.0))]
        for threshold in (0.0, 0.5):
            cm = two_matrix_clear_mot(gt, hyp, threshold)
            scores = two_matrix_idf1(gt, hyp, threshold)
            assert evaluate(gt, hyp, threshold) == EvalReport(**vars(cm), **vars(scores))
        assert (cm.idsw, scores.idtp) == (8, 12)  # at 0.5, as two ids a side


def tiny_iou_scene(rng):
    """Frames of unit boxes, each with a box inside it whose IoU is 1e-300 to 1, so that a
    frame's reached pairs often form a matching of IoUs far apart."""
    gt, hyp = {}, {}
    for frame in range(1, 13):
        n = int(rng.integers(1, 6))
        outer = [box(3.0 * k, 0.0, 1.0, 1.0) for k in range(n)]
        side = 10.0 ** rng.uniform(-150, 0, n)
        inner = [box(b.x, 0.0, s, s) for b, s in zip(outer, side)]
        gt[frame] = [(int(rng.integers(1, 4)), b) for b in outer]
        kept = rng.permutation(inner)[:n - 1 + int(rng.integers(0, 2))]
        hyp[frame] = [(int(rng.integers(10, 14)), b) for b in kept]
    return gt, hyp


class TestSolverSkip:
    """``clear_mot`` takes a frame's reached pairs as they are where they already form a
    matching, under a gate; everywhere else it calls the solver."""

    @pytest.mark.parametrize("threshold", [0.0, 1e-300, 0.5])
    def test_skip_equals_the_solver_on_random_grids(self, threshold):
        rng = np.random.default_rng(41)
        taken = solved = differs = 0
        for _ in range(3000):
            n, m = (int(v) for v in rng.integers(1, 7, 2))
            grid = np.zeros((n, m))
            k = int(rng.integers(1, min(n, m) + 1))
            values = np.where(rng.random(k) < 0.5, 10.0 ** rng.uniform(-300, 0, k),
                              rng.uniform(0.4, 1.0, k))
            grid[rng.permutation(n)[:k], rng.permutation(m)[:k]] = values
            if rng.random() < 0.2:  # a second pair in a row or column
                grid[rng.integers(n), rng.integers(m)] = rng.uniform(0.4, 1.0)
            reached = np.where(grid >= threshold, grid, 0.0) if threshold > 0 else grid
            rest = [(g, h, grid[g, h]) for g, h in zip(*np.nonzero(reached))]
            solver = [(a, b) for a, b in hungarian_max(reached) if reached[a, b] >= threshold]
            skip = metrics._matching([(int(g), int(h), float(v)) for g, h, v in rest],
                                     threshold, max(n, m))
            if skip is None:
                solved += 1
                differs += solver != [(int(g), int(h)) for g, h, _ in rest]
            else:
                taken += 1
                assert skip == solver
        if threshold == 0.0:
            assert taken == 0
        else:  # both branches, and grids on which the solver drops a tiny pair the gate keeps
            assert min(taken, solved) >= 300, (taken, solved)
            assert differs >= (100 if threshold < 1e-200 else 0), differs

    @pytest.mark.parametrize("threshold", [0.0, 1e-300, 1e-100, 0.5])
    def test_reports_equal_the_solver_alone(self, monkeypatch, threshold):
        scenes = [tiny_iou_scene(np.random.default_rng(seed)) for seed in range(40)]
        skipped = [evaluate(gt, hyp, threshold) for gt, hyp in scenes]
        monkeypatch.setattr(metrics, "_matching", lambda *args: None)
        assert skipped == [evaluate(gt, hyp, threshold) for gt, hyp in scenes]
