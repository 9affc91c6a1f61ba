"""Optimal one-to-one assignment of tracks to detections.

Maximizes total affinity with the Hungarian algorithm (shortest augmenting
path / potentials formulation), then demotes any optimal pair outside the gate
or below the association threshold. The solver is hand-rolled so tie-breaking
is fixed: rows are processed in index order, and each step scans only the free
columns, in ascending order, with strict ``<`` updates, so equal reduced costs
resolve to the lowest column. It reads the costs once as Python floats, whose
arithmetic is numpy's IEEE double arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from .affinity import AffinityMatrix


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
    rows = [[0.0] + row for row in cost.tolist()]  # 1-based, like the columns
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    assigned_row = [0] * (m + 1)  # 1-based row occupying each column, 0 = free
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        assigned_row[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        free = list(range(1, m + 1))  # columns not yet in the tree, ascending
        used = [0]
        delta = 0.0
        while True:
            i0 = assigned_row[j0]
            row, ui = rows[i0 - 1], u[i0]
            last = delta  # the previous step's delta, owed by every free minv
            delta = INF
            for k, j in enumerate(free):
                mj = minv[j] - last
                cur = row[j] - ui - v[j]
                if cur < mj:
                    mj = cur
                    way[j] = j0
                minv[j] = mj
                if mj < delta:
                    delta = mj
                    k1 = k
            for j in used:
                u[assigned_row[j]] += delta
                v[j] -= delta
            j0 = free.pop(k1)
            if assigned_row[j0] == 0:
                break
            used.append(j0)
        while j0:
            j1 = way[j0]
            assigned_row[j0] = assigned_row[j1]
            j0 = j1
    out = [-1] * n
    for j in range(1, m + 1):
        if assigned_row[j]:
            out[assigned_row[j] - 1] = j - 1
    return out


def hungarian_max(values) -> list[tuple[int, int]]:
    """Max-total-affinity one-to-one matching; the surplus side stays unmatched.

    Returns (row, col) pairs sorted by row. The smaller side is matched
    completely, which is optimal for nonnegative affinities.
    """
    mat = np.asarray(values, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {mat.shape}")
    n, m = mat.shape
    if n == 0 or m == 0:
        return []
    if not np.all(np.isfinite(mat)):
        raise ValueError("affinity matrix contains non-finite values")
    transposed = n > m
    work = mat.T if transposed else mat
    cost = float(work.max()) - work
    cols = _solve_min(cost)
    pairs = [(i, j) for i, j in enumerate(cols) if j >= 0]
    if transposed:
        pairs = [(j, i) for i, j in pairs]
    return sorted(pairs)


def associate(matrix: AffinityMatrix, tau_asc: float) -> Assignment:
    """Assign optimally, then keep the gated pairs whose affinity reaches ``tau_asc``.

    The threshold runs after optimization: a demoted pair frees both its track
    and its detection rather than letting either grab a worse partner. Even at
    ``tau_asc = 0``, a pair outside ``gate_mask`` is never a match.
    """
    matches = []
    matched_tracks = [False] * matrix.rows
    matched_dets = [False] * matrix.cols
    for i, j in hungarian_max(matrix.values):
        value = float(matrix.values[i, j])
        if matrix.gate_mask[i, j] and value >= tau_asc:
            matches.append((i, j, value))
            matched_tracks[i] = matched_dets[j] = True
    return Assignment(
        matches=tuple(matches),
        unmatched_tracks=tuple(i for i, hit in enumerate(matched_tracks) if not hit),
        unmatched_detections=tuple(j for j, hit in enumerate(matched_dets) if not hit),
    )
