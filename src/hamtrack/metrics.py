"""Tracking quality metrics: MOTA with its error counts, and IDF1.

Both metrics compare per-frame (id, box) sets. MOTA follows the usual
event-counting scheme: last frame's pairings persist while they still
overlap, the remainder is matched optimally on IoU, and the errors are
unmatched hypotheses (FP), unmatched ground truth (FN), and identity changes
between a ground-truth object's consecutive matches (IDSw). IDF1 instead
matches whole trajectories, scoring identity consistency.
"""

from dataclasses import dataclass
from itertools import chain
from typing import Mapping, NamedTuple, Sequence

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


def _pair_ious(ax, ay, aw, ah, bx, by, bw, bh) -> np.ndarray:
    """IoU of the pairs the a and b fields broadcast into, with one operation order for every
    caller: 0 where the boxes do not overlap, edges touching included; NaN where the areas
    of overlapping boxes overflow a double."""
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


def iou_matrix(a_boxes: Sequence[BBox], b_boxes: Sequence[BBox]) -> np.ndarray:
    """Intersection area over union area of every pair: (len(a_boxes), len(b_boxes)).

    Pairs that do not overlap, edges touching included, score 0. Overlapping
    boxes whose areas overflow a double score NaN, which passes no threshold.
    """
    return _pair_ious(*box_columns(a_boxes)[:, :, None], *box_columns(b_boxes)[:, None, :])


# Boxes a side in one block of frames, and candidate pairs scored at once.
BLOCK = 1024


class Overlaps(NamedTuple):
    """What CLEAR-MOT and IDF1 read of a sequence's box pairs at one IoU threshold.

    Rows are numbered through the sequence, frame by frame in frame order.
    ``gt_row``, ``hyp_row`` and ``iou`` list in row-major order the pairs whose
    IoU reaches the threshold, and at threshold 0 those whose IoU is not 0 (so
    also NaN and negative ones, which reach no threshold): every other pair's
    IoU is 0 or short of the threshold. ``first`` marks the listed pairs whose
    hypothesis row is the first of its id in the frame. ``identity`` holds, for
    each (gt id, hyp id) in sorted id order, the number of frames in which their
    boxes' IoU reaches the threshold, a repeated id keeping its last box; its
    last row and column take the other boxes of a repeated id. ``boxes`` is the
    number of (frame, id)s of ground truth and of hypotheses.
    """

    gt_row: np.ndarray
    hyp_row: np.ndarray
    iou: np.ndarray
    first: np.ndarray
    identity: np.ndarray
    boxes: tuple[int, int]


def _blocks(frames: list, gt: FrameBoxes, hyp: FrameBoxes):
    """Runs of consecutive ``frames`` with at most BLOCK boxes a side, or of a single frame."""
    block, n_gt, n_hyp = [], 0, 0
    for frame in frames:
        a, b = len(gt.get(frame, ())), len(hyp.get(frame, ()))
        if block and (n_gt + a > BLOCK or n_hyp + b > BLOCK):
            yield block
            block, n_gt, n_hyp = [], 0, 0
        block.append(frame)
        n_gt, n_hyp = n_gt + a, n_hyp + b
    if block:
        yield block


def _rows(by_frame: FrameBoxes, frames: list, index: dict) -> tuple:
    """The boxes of ``frames`` in frame then row order: x, y, w, h as an (n, 4) array, each
    row's frame as its position in ``frames``, its id's ``index`` (or ``len(index)`` where a
    later row of the frame repeats the id) and whether it is its id's first row in the frame."""
    counts = [len(by_frame.get(frame, ())) for frame in frames]
    n = sum(counts)
    fields = np.fromiter(chain.from_iterable((b.x, b.y, b.w, b.h, index[i]) for frame in frames
                                             for i, b in by_frame.get(frame, ())),
                         float, 5 * n).reshape(n, 5)
    row_frame = np.repeat(np.arange(len(frames)), counts)
    ids = fields[:, 4].astype(np.intp)
    key = row_frame * len(index) + ids
    order = key.argsort(kind="stable")
    change = key[order[1:]] != key[order[:-1]]
    first, last = np.empty(n, bool), np.empty(n, bool)
    first[order] = np.r_[True, change]
    last[order] = np.r_[change, True]
    return fields[:, :4], row_frame, np.where(last, ids, len(index)), first


def _before(frame_a, a, order, frame_b, b, side: str) -> np.ndarray:
    """For each (frame_b, b), the number of (frame_a, a) rows before it in (frame, value)
    order, ties before it for side "right"; ``order`` sorts the rows in that order."""
    values, ranks = np.unique(np.concatenate([a, b]), return_inverse=True)
    keys = frame_a * len(values) + ranks[:len(a)]
    return np.searchsorted(keys[order], frame_b * len(values) + ranks[len(a):], side)


def _candidates(gt, gt_frame, hyp, hyp_frame):
    """(gt rows, hyp rows) of every same-frame pair whose x-extents can overlap, in chunks of
    about BLOCK pairs; every other pair has no width in common, so its IoU is 0."""
    gx, hx = gt[:, 0], hyp[:, 0]
    order = np.lexsort((gx, gt_frame))
    # x + w rounds monotonically in x, so the rows sorted by x are also sorted by x + widest;
    # a sum that overflows is inf, past every x.
    with np.errstate(over="ignore"):
        right, reach = hx + hyp[:, 2], gx + gt[:, 2].max()
    hi = _before(gt_frame, gx, order, hyp_frame, right, "left")
    lo = _before(gt_frame, reach, order, hyp_frame, hx, "right")
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(BLOCK, ends[-1], BLOCK), "right").tolist()
    for a, b in zip([0, *cuts], [*cuts, len(counts)]):
        if a < b:
            n = counts[a:b]
            total = int(ends[b - 1] - ends[a] + n[0])
            h = np.repeat(np.arange(a, b), n)
            at = np.arange(total) + np.repeat(lo[a:b] - (np.cumsum(n) - n), n)
            yield order[at], h


def box_overlaps(gt_by_frame: FrameBoxes, hyp_by_frame: FrameBoxes,
                 iou_threshold: float) -> Overlaps:
    """The ``Overlaps`` of ground truth and hypotheses at ``iou_threshold``, swept a block of
    frames at a time: IoU is computed only for the pairs whose x-extents overlap."""
    frames = sorted(gt_by_frame.keys() | hyp_by_frame.keys())
    gt_index, hyp_index = (
        {i: a for a, i in enumerate(sorted({i for items in by_frame.values() for i, _ in items}))}
        for by_frame in (gt_by_frame, hyp_by_frame))
    identity = np.zeros((len(gt_index) + 1, len(hyp_index) + 1))
    pieces, n_gt, n_hyp, boxes = [], 0, 0, [0, 0]
    for block in _blocks(frames, gt_by_frame, hyp_by_frame):
        gt, gt_frame, gt_col, _ = _rows(gt_by_frame, block, gt_index)
        hyp, hyp_frame, hyp_col, hyp_first = _rows(hyp_by_frame, block, hyp_index)
        boxes[0] += int(np.count_nonzero(gt_col < len(gt_index)))
        boxes[1] += int(np.count_nonzero(hyp_col < len(hyp_index)))
        if len(gt) and len(hyp):
            listed = []
            for g, h in _candidates(gt, gt_frame, hyp, hyp_frame):
                ious = _pair_ious(*gt[g].T, *hyp[h].T)
                keep = ious >= iou_threshold if iou_threshold > 0 else ious != 0
                listed.append((g[keep], h[keep], ious[keep]))
            g, h, ious = map(np.concatenate, zip(*listed))
            order = np.argsort(g * len(hyp) + h)
            g, h, ious = g[order], h[order], ious[order]
            if iou_threshold > 0:
                np.add.at(identity, (gt_col[g], hyp_col[h]), 1.0)
            else:
                # Every pair of a frame reaches 0 but the listed ones short of it: count
                # the frames each (gt id, hyp id) shares, from 0/1 frame x id matrices,
                # less those pairs.
                (gt_ids, gt_at), (hyp_ids, hyp_at) = (np.unique(col, return_inverse=True)
                                                      for col in (gt_col, hyp_col))
                gt_in, hyp_in = (np.zeros((len(block), len(ids))) for ids in (gt_ids, hyp_ids))
                gt_in[gt_frame, gt_at] = hyp_in[hyp_frame, hyp_at] = 1.0
                identity[np.ix_(gt_ids, hyp_ids)] += gt_in.T @ hyp_in
                short = ~(ious >= 0)
                np.subtract.at(identity, (gt_col[g[short]], hyp_col[h[short]]), 1.0)
            pieces.append((g + n_gt, h + n_hyp, ious, hyp_first[h]))
        n_gt, n_hyp = n_gt + len(gt), n_hyp + len(hyp)
    if not pieces:
        pieces = [(np.zeros(0, np.intp),) * 2 + (np.zeros(0), np.zeros(0, bool))]
    return Overlaps(*map(np.concatenate, zip(*pieces)), identity, tuple(boxes))


@dataclass(frozen=True)
class ClearMotCounts:
    gt_total: int
    fp: int
    fn: int
    idsw: int
    mota: float


def clear_mot(gt_by_frame: FrameBoxes, hyp_by_frame: FrameBoxes,
              iou_threshold: float = 0.5, *, overlaps: Overlaps | None = None) -> ClearMotCounts:
    """Count FP/FN/IDSw against ground truth and derive MOTA; ``overlaps`` is
    ``box_overlaps`` of the same arguments, built here when None."""
    if overlaps is None:
        overlaps = box_overlaps(gt_by_frame, hyp_by_frame, iou_threshold)
    frames = sorted(gt_by_frame.keys() | hyp_by_frame.keys())
    gt_rows = np.cumsum([0] + [len(gt_by_frame.get(frame, ())) for frame in frames])
    hyp_rows = np.cumsum([0] + [len(hyp_by_frame.get(frame, ())) for frame in frames]).tolist()
    ends = np.searchsorted(overlaps.gt_row, gt_rows).tolist()
    gt_rows = gt_rows.tolist()
    last_match: dict[int, int] = {}
    gt_total = fp = fn = idsw = 0
    for k, frame in enumerate(frames):
        gts, hyps = gt_by_frame.get(frame, ()), hyp_by_frame.get(frame, ())
        gt_total += len(gts)
        at = slice(ends[k], ends[k + 1])
        g_at = (overlaps.gt_row[at] - gt_rows[k]).tolist()
        h_at = (overlaps.hyp_row[at] - hyp_rows[k]).tolist()
        v_at = overlaps.iou[at].tolist()
        if iou_threshold > 0:
            # Last frame's pairing carries over through the id's first row where it still
            # reaches the threshold; every listed pair reaches it.
            carry = [(g, h) for g, h, first in zip(g_at, h_at, overlaps.first[at].tolist())
                     if first and last_match.get(gts[g][0]) == hyps[h][0]]
        else:  # every pair but the listed ones short of 0 reaches it
            short = {(g, h) for g, h, v in zip(g_at, h_at, v_at) if not v >= 0}
            hyp_index = {hid: h for h, (hid, _) in reversed(list(enumerate(hyps)))}
            carry = [(g, h) for g, (gid, _) in enumerate(gts)
                     if (h := hyp_index.get(last_match.get(gid))) is not None
                     and (g, h) not in short]
        pairs: list[tuple[int, int]] = []
        used_g, used_h = set(), set()
        for g, h in carry:
            if h not in used_h:
                pairs.append((g, h))
                used_g.add(g)
                used_h.add(h)
        # The rest's reached IoUs, 0 elsewhere; above threshold 0, a zero grid pairs nothing.
        rest = [(g, h, v) for g, h, v in zip(g_at, h_at, v_at)
                if v >= iou_threshold and g not in used_g and h not in used_h]
        if rest or (iou_threshold == 0 and len(pairs) < min(len(gts), len(hyps))):
            rest_g = [g for g in range(len(gts)) if g not in used_g]
            rest_h = [h for h in range(len(hyps)) if h not in used_h]
            at_g, at_h = {g: a for a, g in enumerate(rest_g)}, {h: b for b, h in enumerate(rest_h)}
            grid = np.zeros((len(rest_g), len(rest_h)))
            for g, h, v in rest:
                grid[at_g[g], at_h[h]] = v
            for a, b in hungarian_max(grid):
                if grid[a, b] >= iou_threshold:
                    pairs.append((rest_g[a], rest_h[b]))
        for g, h in pairs:
            gid, hid = gts[g][0], hyps[h][0]
            idsw += last_match.get(gid, hid) != hid
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
         iou_threshold: float = 0.5, *, overlaps: Overlaps | None = None) -> IdentityScores:
    """Trajectory-level identity F1.

    Ground-truth and hypothesis trajectories are matched one-to-one so that
    the total number of overlapping frames (IoU at or above the threshold) is
    maximal; those frames are the identity true positives. A repeated id in a
    frame keeps its last box. ``overlaps`` is as for ``clear_mot``.
    """
    if overlaps is None:
        overlaps = box_overlaps(gt_by_frame, hyp_by_frame, iou_threshold)
    overlap = overlaps.identity[:-1, :-1]
    idtp = int(sum(overlap[a, b] for a, b in hungarian_max(overlap))) if overlap.any() else 0
    idfp = overlaps.boxes[1] - idtp
    idfn = overlaps.boxes[0] - idtp
    denom = 2 * idtp + idfp + idfn
    score = (2 * idtp / denom) if denom else 1.0
    return IdentityScores(idtp=idtp, idfp=idfp, idfn=idfn, idf1=score)


def evaluate(gt_by_frame: FrameBoxes, hyp_by_frame: FrameBoxes,
             iou_threshold: float = 0.5) -> EvalReport:
    """Full report: MOTA counts plus identity scores at one IoU threshold in [0, 1]."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"IoU threshold must be in [0, 1], got {iou_threshold}")
    overlaps = box_overlaps(gt_by_frame, hyp_by_frame, iou_threshold)
    cm = clear_mot(gt_by_frame, hyp_by_frame, iou_threshold, overlaps=overlaps)
    ids = idf1(gt_by_frame, hyp_by_frame, iou_threshold, overlaps=overlaps)
    return EvalReport(**vars(cm), **vars(ids))
