"""Appearance memory and scoring, including historical appearance matching.

A track remembers its most recent matched appearance together with the
confidence of that match, plus a short, bounded history of appearances that
were stored when a match was confident. Scoring a candidate against the
memory blends the recent appearance with the history: the lower the recent
matching confidence, the more weight the history gets. This keeps matching
stable when the latest stored appearance was corrupted by occlusion or a bad
box.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import EMBEDDING, HISTOGRAM, AppearanceDescriptor, TrackerConfig

# Pure similarity in [0, 1]; must be symmetric and score(a, a) == 1.
Scorer = Callable[[AppearanceDescriptor, AppearanceDescriptor], float]


@dataclass(frozen=True)
class HistoryEntry:
    """A stored appearance and the match confidence at the time it was stored."""

    descriptor: AppearanceDescriptor
    conf: float
    frame: int

    def __post_init__(self):
        if not 0.0 <= self.conf <= 1.0:
            raise ValueError(f"history confidence out of [0,1]: {self.conf}")
        if self.frame < 1:
            raise ValueError(f"history frame must be >= 1, got {self.frame}")


@dataclass(frozen=True)
class AppearanceMemory:
    """Recent appearance + confidence, and confident past appearances (oldest first).

    A freshly created track has ``recent_conf = 1.0``: with no history yet,
    scoring degenerates to comparing against the one appearance we have.
    """

    recent: AppearanceDescriptor
    recent_conf: float = 1.0
    history: tuple[HistoryEntry, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.recent_conf <= 1.0:
            raise ValueError(f"recent_conf out of [0,1]: {self.recent_conf}")


def _check_pair(a: AppearanceDescriptor, b: AppearanceDescriptor, kind: str | None = None):
    if a.kind != b.kind:
        raise ValueError(f"descriptor kind mismatch: {a.kind} vs {b.kind}")
    if kind is not None and a.kind != kind:
        raise ValueError(f"expected {kind} descriptors, got {a.kind}")
    if len(a) != len(b):
        raise ValueError(f"descriptor length mismatch: {len(a)} vs {len(b)}")


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def score_histogram(a: AppearanceDescriptor, b: AppearanceDescriptor) -> float:
    """Bhattacharyya coefficient sum_k sqrt(a_k * b_k)."""
    _check_pair(a, b, HISTOGRAM)
    return _clamp01(float(np.sqrt(a.values * b.values).sum()))


def score_embedding(a: AppearanceDescriptor, b: AppearanceDescriptor) -> float:
    """Cosine similarity of unit vectors mapped onto [0, 1]."""
    _check_pair(a, b, EMBEDDING)
    return _clamp01((1.0 + float(np.dot(a.values, b.values))) / 2.0)


def score_descriptors(a: AppearanceDescriptor, b: AppearanceDescriptor) -> float:
    """Default scorer: dispatch on descriptor kind."""
    return score_histogram(a, b) if a.kind == HISTOGRAM else score_embedding(a, b)


def update_histogram(prev: AppearanceDescriptor, matched: AppearanceDescriptor,
                     alpha: float) -> AppearanceDescriptor:
    """Blend the stored histogram toward the matched one: alpha*matched + (1-alpha)*prev."""
    _check_pair(prev, matched, HISTOGRAM)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha out of [0,1]: {alpha}")
    mixed = alpha * matched.values + (1.0 - alpha) * prev.values
    return AppearanceDescriptor.histogram(mixed, normalize=True)


def history_weights(memory: AppearanceMemory) -> np.ndarray:
    """Each entry's confidence divided by the total; sums to one."""
    if not memory.history:
        raise ValueError("history is empty")
    confs = np.array([e.conf for e in memory.history], dtype=float)
    total = float(confs.sum())
    if total <= 0.0:
        raise ValueError("all history confidences are zero")
    return confs / total


def baseline_appearance(memory: AppearanceMemory, z: AppearanceDescriptor,
                        scorer: Scorer) -> float:
    """Recent-appearance-only affinity, kept for ablation against ``ham``."""
    return _clamp01(float(scorer(memory.recent, z)))


def ham(memory: AppearanceMemory, z: AppearanceDescriptor, scorer: Scorer) -> float:
    """Historical appearance matching.

    c_r * score(recent, z) + (1 - c_r) * sum_n w_n * score(history_n, z),
    where w_n are the confidence-proportional history weights. With an empty
    history, or full recent confidence, this collapses to the baseline. The
    result is a convex combination of scorer outputs, hence stays in [0, 1].
    """
    s_recent = baseline_appearance(memory, z, scorer)
    c_r = memory.recent_conf
    if not memory.history or c_r >= 1.0:
        return s_recent
    weights = history_weights(memory)
    s_hist = 0.0
    for w, entry in zip(weights, memory.history):
        s_hist += float(w) * _clamp01(float(scorer(entry.descriptor, z)))
    return _clamp01(c_r * s_recent + (1.0 - c_r) * s_hist)


def alpha_for(cfg: TrackerConfig, match_affinity: float) -> float:
    """Histogram blend weight: the match affinity itself, or a configured constant."""
    if cfg.alpha_mode == "affinity":
        return _clamp01(match_affinity)
    return float(cfg.alpha_mode)


def maybe_store_history(memory: AppearanceMemory, descriptor: AppearanceDescriptor,
                        match_affinity: float, frame: int,
                        cfg: TrackerConfig) -> AppearanceMemory:
    """Refresh the recent appearance after a match; archive it when confident.

    The recent slot is always refreshed (histograms are blended per
    ``alpha_mode``, embeddings replaced) and ``recent_conf`` becomes the match
    affinity. The refreshed appearance is appended to the history only when
    the affinity exceeds ``tau_conf``; afterwards entries older than
    ``hist_window`` frames are dropped, then the oldest until at most
    ``hist_max`` remain.
    """
    if not math.isfinite(match_affinity):
        raise ValueError("match affinity must be finite")
    conf = _clamp01(match_affinity)
    if descriptor.kind == HISTOGRAM and memory.recent.kind == HISTOGRAM:
        recent = update_histogram(memory.recent, descriptor, alpha_for(cfg, match_affinity))
    else:
        recent = descriptor
    history = memory.history
    if match_affinity > cfg.tau_conf:
        history = history + (HistoryEntry(recent, conf, frame),)
    history = tuple(e for e in history if frame - e.frame <= cfg.hist_window)
    if len(history) > cfg.hist_max:
        history = history[len(history) - cfg.hist_max:]
    return AppearanceMemory(recent=recent, recent_conf=conf, history=history)


def decay_confidence(memory: AppearanceMemory, factor: float) -> AppearanceMemory:
    """Shrink the recent-match confidence after a missed frame.

    Only the confidence moves; the stored appearances are untouched. This
    shifts scoring weight toward the history while the track is coasting.
    """
    return replace(memory, recent_conf=_clamp01(memory.recent_conf * factor))
