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
from .io_mot import FrameRows

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

    Rows are numbered through the sequence, frame by frame in frame order: frame k's are
    ``gt_start[k]:gt_start[k + 1]`` and ``hyp_start[k]:hyp_start[k + 1]``. ``gt_id`` and
    ``hyp_id`` hold each row's id as its place in its side's sorted ids, ``hyp_first``
    whether a row is the first of its id in its frame. ``gt_row``, ``hyp_row`` and ``iou``
    list in row-major order the pairs whose IoU reaches the threshold, and at threshold 0
    those whose IoU is not 0 (so also NaN and negative ones, which reach no threshold):
    every other pair's IoU is 0 or short of the threshold. ``identity`` holds, for each
    (gt id, hyp id), the number of frames in which their boxes' IoU reaches the threshold,
    a repeated id keeping its last box; its last row and column take the other boxes of a
    repeated id. ``boxes`` is the number of (frame, id)s of ground truth and of hypotheses.
    """

    gt_start: np.ndarray
    hyp_start: np.ndarray
    gt_id: np.ndarray
    hyp_id: np.ndarray
    hyp_first: np.ndarray
    gt_row: np.ndarray
    hyp_row: np.ndarray
    iou: np.ndarray
    identity: np.ndarray
    boxes: tuple[int, int]


def _blocks(gt_counts: list[int], hyp_counts: list[int], size: int):
    """Runs ``(a, b)`` of consecutive frames with at most ``size`` boxes a side, or of a
    single frame, from each frame's number of boxes a side."""
    a = n_gt = n_hyp = 0
    for k, (g, h) in enumerate(zip(gt_counts, hyp_counts)):
        if k > a and (n_gt + g > size or n_hyp + h > size):
            yield a, k
            a, n_gt, n_hyp = k, 0, 0
        n_gt, n_hyp = n_gt + g, n_hyp + h
    if len(gt_counts) > a:
        yield a, len(gt_counts)


def _side(by_frame: FrameBoxes) -> tuple:
    """A side's frames in ascending order, their numbers of boxes, its number of ids, and
    ``read(i, j)``: the boxes of its frames i to j - 1, in frame then row order, as x, y, w,
    h rows and each row's id as its place in the sorted ids. A ``FrameRows`` is sliced, its
    ids placed by one ``np.unique``; any other mapping is streamed, its ids placed through a
    dict, so that they keep their identity as Python objects."""
    if isinstance(by_frame, FrameRows):
        rows, starts = by_frame.rows, np.r_[by_frame.starts, len(by_frame.rows)].tolist()
        ids, col = np.unique(rows[:, 1], return_inverse=True)
        return (list(by_frame), np.diff(starts), len(ids),
                lambda i, j: (rows[starts[i]:starts[j], 2:], col[starts[i]:starts[j]]))
    frames = sorted(by_frame)
    items = [by_frame[frame] for frame in frames]
    index = {i: a for a, i in enumerate(sorted({i for pairs in items for i, _ in pairs}))}
    counts = [len(pairs) for pairs in items]

    def read(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        fields = np.fromiter(chain.from_iterable((b.x, b.y, b.w, b.h, index[i])
                                                 for pairs in items[lo:hi] for i, b in pairs),
                             float, 5 * sum(counts[lo:hi])).reshape(-1, 5)
        return fields[:, :4], fields[:, 4].astype(np.intp)

    return frames, counts, len(index), read


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
    sides = [_side(gt_by_frame), _side(hyp_by_frame)]
    (gt_frames, _, n_gt_ids, _), (hyp_frames, _, n_hyp_ids, _) = sides
    frames = sorted(set(gt_frames).union(hyp_frames))
    at = {frame: k for k, frame in enumerate(frames)}
    places = [np.array([at[frame] for frame in side[0]], np.intp) for side in sides]
    starts = np.zeros((2, len(frames) + 1), np.intp)
    for start, place, side in zip(starts, places, sides):
        start[place + 1] = side[1]
    gt_start, hyp_start = starts = starts.cumsum(axis=1)
    gt_id, hyp_id = ids = [np.empty(start[-1], np.intp) for start in starts]
    hyp_first = np.empty(len(hyp_id), bool)
    identity = np.zeros((n_gt_ids + 1, n_hyp_ids + 1))
    pieces, boxes = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))], [0, 0]
    for a, b in _blocks(*np.diff(starts).tolist(), BLOCK):
        block = []
        for (_, _, n_ids, read), place, start, side_ids in zip(sides, places, starts, ids):
            rows, col = read(*np.searchsorted(place, (a, b)).tolist())
            side_ids[start[a]:start[b]] = col
            row_frame = np.repeat(np.arange(b - a), np.diff(start[a:b + 1]))
            key = row_frame * n_ids + col  # the row's (frame, id)
            first, last = np.zeros((2, len(col)), bool)
            first[np.unique(key, return_index=True)[1]] = True
            last[len(col) - 1 - np.unique(key[::-1], return_index=True)[1]] = True
            block.append((rows, row_frame, np.where(last, col, n_ids), first))
        (gt, gt_frame, gt_col, _), (hyp, hyp_frame, hyp_col, first) = block
        g0, h0 = gt_start[a], hyp_start[a]
        hyp_first[h0:h0 + len(hyp)] = first
        boxes[0] += int(np.count_nonzero(gt_col < n_gt_ids))
        boxes[1] += int(np.count_nonzero(hyp_col < n_hyp_ids))
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
                (gt_cols, gt_of), (hyp_cols, hyp_of) = (np.unique(col, return_inverse=True)
                                                        for col in (gt_col, hyp_col))
                gt_in, hyp_in = (np.zeros((b - a, len(cols))) for cols in (gt_cols, hyp_cols))
                gt_in[gt_frame, gt_of] = hyp_in[hyp_frame, hyp_of] = 1.0
                identity[np.ix_(gt_cols, hyp_cols)] += gt_in.T @ hyp_in
                short = ~(ious >= 0)
                np.subtract.at(identity, (gt_col[g[short]], hyp_col[h[short]]), 1.0)
            pieces.append((g + g0, h + h0, ious))
    return Overlaps(gt_start, hyp_start, gt_id, hyp_id, hyp_first,
                    *map(np.concatenate, zip(*pieces)), identity, tuple(boxes))


@dataclass(frozen=True)
class ClearMotCounts:
    gt_total: int
    fp: int
    fn: int
    idsw: int
    mota: float


def _matching(rest: list, iou_threshold: float, size: int) -> list | None:
    """The (g, h) of the reached pairs ``rest``, (g, h, IoU) in row-major order, where the
    solver keeps them whole from its grid of them, zeros elsewhere, of at most ``size`` rows
    and columns; else None. Above threshold 0 the optimum keeps every pair of a matching;
    the solver reads an IoU v as max - v, rounded by max·2⁻⁵³, and sums at most 2·size² such
    costs, so no v above max·size²·2⁻⁴⁰ is lost (a NaN or inf max, where it raises, is no
    skip)."""
    if iou_threshold <= 0 or not rest:
        return None
    g, h, v = zip(*rest)
    if len(set(g)) == len(g) == len(set(h)) and min(v) > max(v) * size * size * 2.0 ** -40:
        return list(zip(g, h))
    return None


def clear_mot(gt_by_frame: FrameBoxes, hyp_by_frame: FrameBoxes,
              iou_threshold: float = 0.5, *, overlaps: Overlaps | None = None) -> ClearMotCounts:
    """Count FP/FN/IDSw against ground truth and derive MOTA; ``overlaps`` is
    ``box_overlaps`` of the same arguments, built here when None."""
    if overlaps is None:
        overlaps = box_overlaps(gt_by_frame, hyp_by_frame, iou_threshold)
    gt_start, hyp_start = overlaps.gt_start.tolist(), overlaps.hyp_start.tolist()
    ends = np.searchsorted(overlaps.gt_row, overlaps.gt_start).tolist()
    last_match: dict[int, int] = {}
    fp = fn = idsw = 0
    # Rows and pairs become lists a quarter block of frames at a time, numbered from its
    # start: a list of ints or floats takes about five times its array's bytes.
    for a, b in _blocks(np.diff(gt_start).tolist(), np.diff(hyp_start).tolist(), BLOCK // 4):
        g0, g1, h0, h1, p0, p1 = (x[k] for x in (gt_start, hyp_start, ends) for k in (a, b))
        gt_id, hyp_id, first, g_all, h_all, v_all = (x.tolist() for x in (
            overlaps.gt_id[g0:g1], overlaps.hyp_id[h0:h1], overlaps.hyp_first[h0:h1],
            overlaps.gt_row[p0:p1] - g0, overlaps.hyp_row[p0:p1] - h0, overlaps.iou[p0:p1]))
        for k in range(a, b):
            gts = range(gt_start[k] - g0, gt_start[k + 1] - g0)
            hyps = range(hyp_start[k] - h0, hyp_start[k + 1] - h0)
            g_at, h_at, v_at = (x[ends[k] - p0:ends[k + 1] - p0] for x in (g_all, h_all, v_all))
            if iou_threshold > 0:
                # Last frame's pairing carries over through the id's first row where it
                # still reaches the threshold; every listed pair reaches it.
                carry = [(g, h) for g, h in zip(g_at, h_at)
                         if first[h] and last_match.get(gt_id[g]) == hyp_id[h]]
            else:  # every pair but the listed ones short of 0 reaches it
                short = {(g, h) for g, h, v in zip(g_at, h_at, v_at) if not v >= 0}
                hyp_index = {hyp_id[h]: h for h in reversed(hyps)}
                carry = [(g, h) for g in gts
                         if (h := hyp_index.get(last_match.get(gt_id[g]))) is not None
                         and (g, h) not in short]
            pairs: list[tuple[int, int]] = []
            used_g, used_h = set(), set()
            for g, h in carry:
                if h not in used_h:
                    pairs.append((g, h))
                    used_g.add(g)
                    used_h.add(h)
            # The rest's reached IoUs, 0 elsewhere; above threshold 0, a zero grid pairs
            # nothing.
            rest = [(g, h, v) for g, h, v in zip(g_at, h_at, v_at)
                    if v >= iou_threshold and g not in used_g and h not in used_h]
            if rest or (iou_threshold == 0 and len(pairs) < min(len(gts), len(hyps))):
                matched = _matching(rest, iou_threshold, max(len(gts), len(hyps)))
                if matched is None:
                    rest_g = [g for g in gts if g not in used_g]
                    rest_h = [h for h in hyps if h not in used_h]
                    at_g, at_h = ({g: r for r, g in enumerate(rest_g)},
                                  {h: c for c, h in enumerate(rest_h)})
                    grid = np.zeros((len(rest_g), len(rest_h)))
                    for g, h, v in rest:
                        grid[at_g[g], at_h[h]] = v
                    matched = [(rest_g[r], rest_h[c]) for r, c in hungarian_max(grid)
                               if grid[r, c] >= iou_threshold]
                pairs += matched
            for g, h in pairs:
                gid, hid = gt_id[g], hyp_id[h]
                idsw += last_match.get(gid, hid) != hid
                last_match[gid] = hid
            fn += len(gts) - len(pairs)
            fp += len(hyps) - len(pairs)
    gt_total = gt_start[-1]
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
