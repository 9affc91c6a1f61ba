"""Optimal one-to-one assignment of tracks to detections.

Maximizes total affinity with the Hungarian algorithm (shortest augmenting
path / potentials formulation), then demotes any optimal pair outside the gate
or below the association threshold. The solver is hand-rolled so tie-breaking
is fixed: rows are processed in index order, and each step takes the first
minimum over the columns not yet in the search tree, so equal reduced costs
resolve to the lowest column. Its steps are numpy array operations on the
costs, in the same IEEE double arithmetic and order as the scalar algorithm:
the first step of a block of ``FIRST_STEP_BLOCK`` rows is one subtraction and
one ``argmin``, a later step keeps its reduced-cost row and lowers ``minv`` with
one ``np.minimum``, and when a search ends it recovers the previous column of
each column on its augmenting path alone and adds its nonzero potential updates.
"""

from dataclasses import dataclass

import numpy as np

from .affinity import AffinityMatrix


# Rows given their first step at once; a search that changes v drops the rest. On
# 150-object crowd frames (2-vCPU Xeon), 4 to 32 rows beat all remaining rows by ~10%.
FIRST_STEP_BLOCK = 16


@dataclass(frozen=True)
class Assignment:
    """Partition of track and detection indices after association."""

    matches: tuple[tuple[int, int, float], ...]
    unmatched_tracks: tuple[int, ...]
    unmatched_detections: tuple[int, ...]


def _solve_min(cost: np.ndarray) -> list[int]:
    """Column assigned to each row of a (n <= m) cost matrix, minimizing total."""
    n, m = cost.shape
    INF = float("inf")
    u = [0.0] * n
    v = np.zeros(m)
    owner = [-1] * m  # row occupying each column, -1 = free
    i = 0
    while i < n:
        # Step 0 of the next block of rows: u of each is still 0.0, and a search
        # that ends at step 0 changes no v, so these stay valid until one doesn't.
        first = cost[i:i + FIRST_STEP_BLOCK] - v
        for k, j in enumerate(first.argmin(axis=1).tolist()):
            row, i = i, i + 1
            delta = first.item(k, j)
            if owner[j] < 0:
                u[row] += delta
                owner[j] = row
                continue
            minv = first[k]  # changed in place: the block is recomputed after this search
            blocked = v.copy()  # -inf at the columns in the tree, so their cost is inf
            rows, cols, deltas, steps = [row], [], [delta], []
            while owner[j] >= 0:
                i0 = owner[j]
                rows.append(i0)
                cols.append(j)
                minv[j], blocked[j] = INF, -INF
                cur = cost[i0] - u[i0]
                cur -= blocked
                steps.append(cur)
                if delta != 0.0:  # the previous step's delta, owed by every free minv
                    minv -= delta
                np.minimum(minv, cur, out=minv)  # on ties, only a zero's sign can differ
                j = int(minv.argmin())
                delta = minv.item(j)
                deltas.append(delta)
            # Walk the path back from the free column j. A column's previous one is the tree
            # column of the last step that lowered its minv: replay it up to joining the tree.
            t = len(steps)
            while j >= 0:
                low, back = cost.item(row, j) - v.item(j), -1  # j's minv at step 0
                for s in range(t):
                    low -= deltas[s]
                    x = steps[s].item(j)
                    if x < low:
                        low, back = x, s
                prev = cols[back] if back >= 0 else -1
                owner[j] = owner[prev] if prev >= 0 else row
                j, t = prev, back
            # A search reads v only off the tree and a row's u only as it joins,
            # so the tree owes each step's delta now, in the order of the steps.
            tree_v = v[cols].tolist()
            for t, d in enumerate(deltas):
                if d != 0.0:  # x + 0.0 and x - 0.0 are x: a zero step changes nothing
                    for r in rows[:t + 1]:
                        u[r] += d
                    for c in range(t):
                        tree_v[c] -= d
            v[cols] = tree_v
            break
    out = [-1] * n
    for j, r in enumerate(owner):
        if r >= 0:
            out[r] = j
    return out


def _solve_max(mat: np.ndarray) -> tuple[list[int], bool]:
    """The column of each row of float ``mat``, or of ``mat.T`` (then True) if it is taller."""
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {mat.shape}")
    n, m = mat.shape
    if n == 0 or m == 0:
        return [], False
    if not np.all(np.isfinite(mat)):
        raise ValueError("affinity matrix contains non-finite values")
    transposed = n > m
    work = mat.T if transposed else mat
    cost = np.subtract(float(work.max()), work, order="C")  # the solver reads rows
    return _solve_min(cost), transposed


def hungarian_max(values) -> list[tuple[int, int]]:
    """Max-total-affinity one-to-one matching; the surplus side stays unmatched.

    Returns (row, col) pairs sorted by row. The smaller side is matched
    completely, which is optimal for nonnegative affinities.
    """
    cols, transposed = _solve_max(np.asarray(values, dtype=float))
    return sorted(zip(cols, range(len(cols)))) if transposed else list(enumerate(cols))


def associate(matrix: AffinityMatrix, tau_asc: float) -> Assignment:
    """Assign optimally, then keep the gated pairs whose affinity reaches ``tau_asc``.

    The threshold runs after optimization: a demoted pair frees both its track
    and its detection rather than letting either grab a worse partner. Even at
    ``tau_asc = 0``, a pair outside ``gate_mask`` is never a match.
    """
    values = np.asarray(matrix.values, dtype=float)
    cols, transposed = _solve_max(values)
    rows, cols = np.arange(len(cols)), np.array(cols, dtype=np.intp)
    if transposed:  # cols holds the row of each column: order the pairs by row
        order = cols.argsort()
        rows, cols = cols[order], order
    kept = values[rows, cols]
    keep = matrix.gate_mask[rows, cols] & (kept >= tau_asc)
    rows, cols = rows[keep], cols[keep]
    free_tracks, free_dets = (np.ones(k, dtype=bool) for k in values.shape)
    free_tracks[rows] = free_dets[cols] = False
    return Assignment(
        matches=tuple(zip(rows.tolist(), cols.tolist(), kept[keep].tolist())),
        unmatched_tracks=tuple(np.flatnonzero(free_tracks).tolist()),
        unmatched_detections=tuple(np.flatnonzero(free_dets).tolist()),
    )
