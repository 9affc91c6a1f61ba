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
from .core import BBox, box_columns

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


def iou_matrix(a_boxes: Sequence[BBox], b_boxes: Sequence[BBox]) -> np.ndarray:
    """Intersection area over union area of every pair: (len(a_boxes), len(b_boxes)).

    Pairs that do not overlap, edges touching included, score 0. Overlapping
    boxes whose areas overflow a double score NaN, which passes no threshold.
    """
    ax, ay, aw, ah = box_columns(a_boxes)[:, :, None]
    bx, by, bw, bh = box_columns(b_boxes)[:, None, :]
    with np.errstate(all="ignore"):
        ix = np.minimum(ax + aw, bx + bw)
        ix -= np.maximum(ax, bx)
        outside = ix <= 0
        iy = np.minimum(ay + ah, by + bh)
        iy -= np.maximum(ay, by)
        outside |= iy <= 0
        ix *= iy  # the intersection, divided by the union
        ious = np.divide(ix, np.subtract(np.add(aw * ah, bw * bh, out=iy), ix, out=iy), out=ix)
    ious[outside] = 0.0
    return ious


def _frame_overlaps(gt: FrameBoxes, hyp: FrameBoxes, iou_threshold: float) -> dict:
    """frame -> (gt rows, hyp rows, IoUs) of the pairs whose IoU reaches the threshold, in
    row-major order, for each frame with boxes on both sides; one IoU matrix at a time."""
    overlaps = {}
    for frame in gt.keys() & hyp.keys():
        if gt[frame] and hyp[frame]:
            ious = iou_matrix([box for _, box in gt[frame]], [box for _, box in hyp[frame]])
            g, h = np.nonzero(ious >= iou_threshold)
            overlaps[frame] = g, h, ious[g, h]
            del ious
    return overlaps


@dataclass(frozen=True)
class ClearMotCounts:
    gt_total: int
    fp: int
    fn: int
    idsw: int
    mota: float


def clear_mot(gt_by_frame: FrameBoxes, hyp_by_frame: FrameBoxes,
              iou_threshold: float = 0.5, *, overlaps: dict | None = None) -> ClearMotCounts:
    """Count FP/FN/IDSw against ground truth and derive MOTA; ``overlaps`` is
    ``_frame_overlaps`` of the same arguments, built here when None."""
    if overlaps is None:
        overlaps = _frame_overlaps(gt_by_frame, hyp_by_frame, iou_threshold)
    frames = sorted(set(gt_by_frame) | set(hyp_by_frame))
    last_match: dict[int, int] = {}
    gt_total = fp = fn = idsw = 0
    for frame in frames:
        gts = list(gt_by_frame.get(frame, ()))
        hyps = list(hyp_by_frame.get(frame, ()))
        gt_total += len(gts)
        g_at, h_at, v_at = overlaps.get(frame, (np.zeros(0, int),) * 3)
        reached = set((g_at * len(hyps) + h_at).tolist())
        # The first row of each hypothesis id.
        hyp_index = {hid: k for k, (hid, _) in reversed(list(enumerate(hyps)))}
        pairs: list[tuple[int, int]] = []
        used_h: set[int] = set()
        # Keep last frame's pairing wherever it still overlaps enough.
        for g, (gid, _) in enumerate(gts):
            k = hyp_index.get(last_match.get(gid))
            if k is not None and k not in used_h and g * len(hyps) + k in reached:
                pairs.append((g, k))
                used_h.add(k)
        rest_g = sorted(set(range(len(gts))) - {g for g, _ in pairs})
        rest_h = sorted(set(range(len(hyps))) - used_h)
        if rest_g and rest_h:
            # The rest's reached IoUs in zeros; a spare last row and column take the others.
            at_g, at_h = np.full(len(gts), len(rest_g)), np.full(len(hyps), len(rest_h))
            at_g[rest_g], at_h[rest_h] = range(len(rest_g)), range(len(rest_h))
            grid = np.zeros((len(rest_g) + 1, len(rest_h) + 1))
            grid[at_g[g_at], at_h[h_at]] = v_at
            for a, b in hungarian_max(grid[:-1, :-1]):
                if grid[a, b] >= iou_threshold:
                    pairs.append((rest_g[a], rest_h[b]))
        for g, k in pairs:
            gid, hid = gts[g][0], hyps[k][0]
            idsw += last_match.get(gid, hid) != hid
            last_match[gid] = hid
        fn += len(gts) - len(pairs)
        fp += len(hyps) - len(pairs)
    if gt_total == 0:
        raise ValueError("ground truth is empty; MOTA is undefined")
    mota = 1.0 - (fp + fn + idsw) / gt_total
    return ClearMotCounts(gt_total=gt_total, fp=fp, fn=fn, idsw=idsw, mota=mota)


def _id_rows(by_frame: FrameBoxes) -> tuple[dict[int, np.ndarray], int, int]:
    """Each frame's rows as their id's index among the sorted ids, or as the number of ids
    where a later row of the frame repeats the id; the number of ids; and of (frame, id)s."""
    last = {f: {i: r for r, (i, _) in enumerate(items)} for f, items in by_frame.items()}
    index = {i: a for a, i in enumerate(sorted(set().union(*last.values())))}
    rows = {f: np.array([index[i] if last[f][i] == r else len(index)
                         for r, (i, _) in enumerate(items)], int) for f, items in by_frame.items()}
    return rows, len(index), sum(map(len, last.values()))


@dataclass(frozen=True)
class IdentityScores:
    idtp: int
    idfp: int
    idfn: int
    idf1: float


def idf1(gt_by_frame: FrameBoxes, hyp_by_frame: FrameBoxes,
         iou_threshold: float = 0.5, *, overlaps: dict | None = None) -> IdentityScores:
    """Trajectory-level identity F1.

    Ground-truth and hypothesis trajectories are matched one-to-one so that
    the total number of overlapping frames (IoU at or above the threshold) is
    maximal; those frames are the identity true positives. A repeated id in a
    frame keeps its last box. ``overlaps`` is as for ``clear_mot``.
    """
    if overlaps is None:
        overlaps = _frame_overlaps(gt_by_frame, hyp_by_frame, iou_threshold)
    gt_rows, n_gt, gt_boxes = _id_rows(gt_by_frame)
    hyp_cols, n_hyp, hyp_boxes = _id_rows(hyp_by_frame)
    idtp = 0
    if overlaps:  # some frame has boxes on both sides
        rows = np.concatenate([gt_rows[f][g] for f, (g, _, _) in overlaps.items()])
        cols = np.concatenate([hyp_cols[f][h] for f, (_, h, _) in overlaps.items()])
        overlap = np.zeros((n_gt + 1, n_hyp + 1))  # the spare last row and column: see _id_rows
        np.add.at(overlap, (rows, cols), 1.0)
        idtp = int(sum(overlap[a, b] for a, b in hungarian_max(overlap[:-1, :-1])))
    idfp = hyp_boxes - idtp
    idfn = gt_boxes - idtp
    denom = 2 * idtp + idfp + idfn
    score = (2 * idtp / denom) if denom else 1.0
    return IdentityScores(idtp=idtp, idfp=idfp, idfn=idfn, idf1=score)


def evaluate(gt_by_frame: FrameBoxes, hyp_by_frame: FrameBoxes,
             iou_threshold: float = 0.5) -> EvalReport:
    """Full report: MOTA counts plus identity scores at one IoU threshold in [0, 1]."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"IoU threshold must be in [0, 1], got {iou_threshold}")
    overlaps = _frame_overlaps(gt_by_frame, hyp_by_frame, iou_threshold)
    cm = clear_mot(gt_by_frame, hyp_by_frame, iou_threshold, overlaps=overlaps)
    ids = idf1(gt_by_frame, hyp_by_frame, iou_threshold, overlaps=overlaps)
    return EvalReport(**vars(cm), **vars(ids))
