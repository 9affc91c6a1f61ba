"""Track-to-detection affinities: shape, motion, and gated appearance fusion.

The shape-motion product is cheap and is computed for every pair first. Pairs
whose product clears the association gate are then scored on appearance and
the three cues multiplied; everything else is zeroed without ever touching
the (potentially expensive) appearance scorer.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .appearance import AppearanceMemory, Scorer, affinities
from .core import BBox, TrackerConfig, AppearanceDescriptor


@dataclass
class AffinityMatrix:
    """Track x detection score grid.

    ``values`` of a fused matrix are final affinities in [0, 1] with gated-out
    cells exactly zero. The intermediate shape-motion matrix keeps raw
    products in all cells (the mask alone records the gate) so that callers
    can verify gating changes cost, never scores.
    """

    values: np.ndarray
    gate_mask: np.ndarray

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def shape_affinity(pred_wh, box: BBox, xi: float) -> float:
    """exp(-xi * (|dh| / (h1 + h2) + |dw| / (w1 + w2))) on predicted vs observed size."""
    w_p, h_p = float(pred_wh[0]), float(pred_wh[1])
    if w_p <= 0 or h_p <= 0:
        raise ValueError(f"predicted size must be positive, got ({w_p}, {h_p})")
    rel = abs(h_p - box.h) / (h_p + box.h) + abs(w_p - box.w) / (w_p + box.w)
    return math.exp(-xi * rel)


def motion_affinity(pred_pos, z_pos, sigma: np.ndarray, eta: float) -> float:
    """exp(-eta * d' inv(sigma) d) for the displacement d between prediction and box."""
    d = np.asarray(z_pos, dtype=float) - np.asarray(pred_pos, dtype=float)
    try:
        solved = np.linalg.solve(np.asarray(sigma, dtype=float), d)
    except np.linalg.LinAlgError:
        raise ValueError("sigma is singular") from None
    return math.exp(-eta * float(d @ solved))


def build_sm_matrix(pred_pos: Sequence, pred_wh: Sequence,
                    boxes: Sequence[BBox], cfg: TrackerConfig) -> AffinityMatrix:
    """Shape-motion products for all pairs, plus the strict ``> tau_asc`` gate mask."""
    n, m = len(pred_pos), len(boxes)
    values = np.zeros((n, m))
    if n and m:
        pos = np.asarray(pred_pos, dtype=float).reshape(n, 1, 2)
        wh = np.asarray(pred_wh, dtype=float).reshape(n, 1, 2)
        if np.any(wh <= 0):
            raise ValueError("predicted sizes must be positive")
        obs = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes])
        centers, sizes = obs[:, :2], obs[:, 2:]
        d = (centers - pos).reshape(n * m, 2)
        maha = np.einsum("kj,jl,kl->k", d, np.linalg.inv(cfg.sigma()), d).reshape(n, m)
        rel = np.abs(wh - sizes) / (wh + sizes)
        shape = np.exp(-cfg.xi * (rel[..., 1] + rel[..., 0]))
        values = shape * np.exp(-cfg.eta * maha)
    gate_mask = values > cfg.tau_asc
    return AffinityMatrix(values=values, gate_mask=gate_mask)


def gate_values(sm: AffinityMatrix) -> AffinityMatrix:
    """Final matrix when no appearance cue is available (appearance == 1)."""
    return AffinityMatrix(values=np.where(sm.gate_mask, sm.values, 0.0),
                          gate_mask=sm.gate_mask.copy())


def fuse_appearance(sm: AffinityMatrix,
                    memories: Sequence[Optional[AppearanceMemory]],
                    descriptors: Sequence[Optional[AppearanceDescriptor]],
                    scorer: Scorer, use_ham: bool = True) -> AffinityMatrix:
    """Multiply appearance affinity into every gated-in cell.

    Each track row is scored against all of its gated-in detections in one
    scorer call. Gated-out cells become exactly zero and never reach the
    scorer. A scorer failure aborts the whole frame with context on the
    offending track row and its detection columns.
    """
    if len(memories) != sm.rows or len(descriptors) != sm.cols:
        raise ValueError("memories/descriptors do not match matrix dimensions")
    values = np.zeros_like(sm.values)
    for i in np.flatnonzero(sm.gate_mask.any(axis=1)):
        cols = np.flatnonzero(sm.gate_mask[i])
        if memories[i] is None:
            raise ValueError(f"track row {i} has no appearance memory")
        zs = [descriptors[j] for j in cols]
        if None in zs:
            raise ValueError(f"detection {cols[zs.index(None)]} has no appearance descriptor")
        try:
            a = affinities(memories[i], zs, scorer, use_ham)
        except Exception as exc:
            raise RuntimeError(f"appearance scoring failed for track row {i}, detections "
                               f"{cols.tolist()}: {exc}") from exc
        values[i, cols] = sm.values[i, cols] * a
    return AffinityMatrix(values=values, gate_mask=sm.gate_mask.copy())
