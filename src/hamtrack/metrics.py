"""Tracking quality metrics: MOTA with its error counts, and IDF1.

Both metrics compare per-frame (id, box) sets. MOTA follows the usual
event-counting scheme: last frame's pairings persist while they still
overlap, the remainder is matched optimally on IoU, and the errors are
unmatched hypotheses (FP), unmatched ground truth (FN), and identity changes
between a ground-truth object's consecutive matches (IDSw). IDF1 instead
matches whole trajectories, scoring identity consistency.
"""

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .association import hungarian_max
from .core import BBox

FrameBoxes = Mapping[int, Sequence[tuple[int, BBox]]]


@dataclass(frozen=True)
class EvalReport:
    gt_total: int
    fp: int
    fn: int
    idsw: int
    mota: float
    idtp: int
    idfp: int
    idfn: int
    idf1: float

    def summary_csv(self) -> str:
        """One line: MOTA,IDF1,IDSw,FP,FN,GT."""
        return (f"{self.mota:.3f},{self.idf1:.3f},{self.idsw},"
                f"{self.fp},{self.fn},{self.gt_total}")


def _columns(boxes: Sequence[BBox]) -> np.ndarray:
    """x, y, w and h of the boxes as four rows."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes]).reshape(-1, 4).T


def iou_matrix(a_boxes: Sequence[BBox], b_boxes: Sequence[BBox]) -> np.ndarray:
    """Intersection area over union area of every pair: (len(a_boxes), len(b_boxes)).

    Pairs that do not overlap, edges touching included, score 0. Overlapping
    boxes whose areas overflow a double score NaN, which passes no threshold.
    """
    ax, ay, aw, ah = _columns(a_boxes)[:, :, None]
    bx, by, bw, bh = _columns(b_boxes)[:, None, :]
    with np.errstate(all="ignore"):
        ix = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
        iy = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
        inter = ix * iy
        ious = inter / (aw * ah + bw * bh - inter)
    return np.where((ix <= 0) | (iy <= 0), 0.0, ious)


@dataclass(frozen=True)
class ClearMotCounts:
    gt_total: int
    fp: int
    fn: int
    idsw: int
    mota: float


def clear_mot(gt_by_frame: FrameBoxes, hyp_by_frame: FrameBoxes,
              iou_threshold: float = 0.5) -> ClearMotCounts:
    """Count FP/FN/IDSw against ground truth and derive MOTA."""
    frames = sorted(set(gt_by_frame) | set(hyp_by_frame))
    last_match: dict[int, int] = {}
    gt_total = fp = fn = idsw = 0
    for frame in frames:
        gts = list(gt_by_frame.get(frame, ()))
        hyps = list(hyp_by_frame.get(frame, ()))
        gt_total += len(gts)
        ious = iou_matrix([box for _, box in gts], [box for _, box in hyps])
        # The first row of each hypothesis id.
        hyp_index = {hid: k for k, (hid, _) in reversed(list(enumerate(hyps)))}
        pairs: list[tuple[int, int]] = []
        used_h: set[int] = set()
        # Keep last frame's pairing wherever it still overlaps enough.
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
            gid = gts[g][0]
            hid = hyps[k][0]
            prev = last_match.get(gid)
            if prev is not None and prev != hid:
                idsw += 1
            last_match[gid] = hid
        fn += len(gts) - len(pairs)
        fp += len(hyps) - len(pairs)
    if gt_total == 0:
        raise ValueError("ground truth is empty; MOTA is undefined")
    mota = 1.0 - (fp + fn + idsw) / gt_total
    return ClearMotCounts(gt_total=gt_total, fp=fp, fn=fn, idsw=idsw, mota=mota)


@dataclass(frozen=True)
class IdentityScores:
    idtp: int
    idfp: int
    idfn: int
    idf1: float


def idf1(gt_by_frame: FrameBoxes, hyp_by_frame: FrameBoxes,
         iou_threshold: float = 0.5) -> IdentityScores:
    """Trajectory-level identity F1.

    Ground-truth and hypothesis trajectories are matched one-to-one so that
    the total number of overlapping frames (IoU at or above the threshold) is
    maximal; those frames are the identity true positives.
    """
    # id -> box per frame; a repeated id keeps its last box.
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
    score = (2 * idtp / denom) if denom else 1.0
    return IdentityScores(idtp=idtp, idfp=idfp, idfn=idfn, idf1=score)


def evaluate(gt_by_frame: FrameBoxes, hyp_by_frame: FrameBoxes,
             iou_threshold: float = 0.5) -> EvalReport:
    """Full report: MOTA counts plus identity scores at one IoU threshold in [0, 1]."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"IoU threshold must be in [0, 1], got {iou_threshold}")
    cm = clear_mot(gt_by_frame, hyp_by_frame, iou_threshold)
    ids = idf1(gt_by_frame, hyp_by_frame, iou_threshold)
    return EvalReport(gt_total=cm.gt_total, fp=cm.fp, fn=cm.fn, idsw=cm.idsw,
                      mota=cm.mota, idtp=ids.idtp, idfp=ids.idfp,
                      idfn=ids.idfn, idf1=ids.idf1)
