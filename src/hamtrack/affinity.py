"""Track-to-detection affinities: shape, motion, and gated appearance fusion.

The shape-motion product is cheap and is computed for every pair first. Pairs
whose product clears the association gate are then scored on appearance and
the three cues multiplied; everything else is zeroed without ever being
scored on appearance.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .appearance import AppearanceMemory, MemoryBank, Scorer, bank_of, ham_scores
from .core import AppearanceDescriptor, BBox, TrackerConfig, box_columns


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


@lru_cache(maxsize=8)
def inverse_sigma(sigma_xx: float, sigma_xy: float, sigma_yy: float) -> np.ndarray:
    """The read-only inverse of the gating covariance, computed once per distinct value."""
    inv = np.linalg.inv(np.array([[sigma_xx, sigma_xy], [sigma_xy, sigma_yy]], dtype=float))
    inv.flags.writeable = False
    return inv


@np.errstate(over="ignore", invalid="ignore")
def build_sm_matrix(pred_pos: Sequence, pred_wh: Sequence,
                    boxes: Sequence[BBox] | np.ndarray, cfg: TrackerConfig) -> AffinityMatrix:
    """Shape-motion products for all pairs, plus the strict ``> tau_asc`` gate mask.
    ``boxes`` are ``BBox`` objects or (m, 4) x, y, w, h rows, which are only read.

    Overflow is silent: an overflowed distance gives a product of 0 or NaN, neither of which
    passes the gate, and an overflowed sum of two sizes a relative difference of 0."""
    n, m = len(pred_pos), len(boxes)
    values = np.zeros((n, m))
    if n and m:
        # (2, n, m) planes, so every array operation runs along the m detections
        pos, wh = (np.asarray(a, dtype=float).reshape(n, 2).T.copy()[:, :, None]
                   for a in (pred_pos, pred_wh))
        if np.any(wh <= 0):
            raise ValueError("predicted sizes must be positive")
        xy, sizes = box_columns(boxes).copy().reshape(2, 2, 1, m)
        # Every step writes into values or one (3, n, m) block: large temporaries
        # freed each frame go back to the OS and are faulted in again on the next.
        planes = np.empty((3, n, m))
        d = np.subtract(xy + sizes / 2.0, pos, out=planes[:2])
        inv = inverse_sigma(cfg.sigma_xx, cfg.sigma_xy, cfg.sigma_yy)
        np.einsum("jnm,jl,lnm->nm", d, inv, d, out=values)
        motion = np.exp(np.multiply(values, -cfg.eta, out=values), out=values)
        rel = np.abs(np.subtract(wh, sizes, out=d), out=d)
        for k in range(2):
            np.divide(rel[k], np.add(wh[k], sizes[k], out=planes[2]), out=rel[k])
        shape = np.add(rel[1], rel[0], out=planes[2])
        np.exp(np.multiply(shape, -cfg.xi, out=shape), out=shape)
        np.multiply(shape, motion, out=values)
    gate_mask = values > cfg.tau_asc
    return AffinityMatrix(values=values, gate_mask=gate_mask)


def gate_values(sm: AffinityMatrix) -> AffinityMatrix:
    """Final matrix when no appearance cue is available (appearance == 1)."""
    return AffinityMatrix(values=np.where(sm.gate_mask, sm.values, 0.0),
                          gate_mask=sm.gate_mask.copy())


def fuse_appearance(sm: AffinityMatrix,
                    memories: MemoryBank | Sequence[AppearanceMemory],
                    descriptors: np.ndarray | Sequence[AppearanceDescriptor],
                    scorer: Scorer, use_ham: bool = True) -> AffinityMatrix:
    """Multiply appearance affinity into every gated-in cell.

    ``memories`` is a bank with one row per track and ``descriptors`` the
    (cols, d) rows of the detections; a list of ``AppearanceMemory`` and one
    of descriptors are turned into those first. Every gated-in pair is scored
    by one ``ham_scores`` call, one inner product per pair. Gated-out cells
    become exactly zero and are never scored. A scoring failure aborts the
    whole frame with context on the offending track rows and detections.
    """
    if not isinstance(memories, MemoryBank):
        memories, descriptors = bank_of(memories, descriptors)
    if (len(memories.recent), len(descriptors)) != sm.values.shape:
        raise ValueError("memories/descriptors do not match matrix dimensions")
    values = np.zeros_like(sm.values)
    rows, cols = np.nonzero(sm.gate_mask)
    if rows.size:
        try:
            a = ham_scores(memories, rows, cols, descriptors, scorer, use_ham)
        except Exception as exc:
            raise RuntimeError(f"appearance scoring failed for track rows {rows.tolist()}, "
                               f"detections {cols.tolist()}: {exc}") from exc
        values[rows, cols] = sm.values[rows, cols] * a
    return AffinityMatrix(values=values, gate_mask=sm.gate_mask.copy())
