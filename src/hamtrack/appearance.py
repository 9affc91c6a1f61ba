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
from typing import Callable, Sequence

import numpy as np

from .core import EMBEDDING, HISTOGRAM, AppearanceDescriptor, TrackerConfig

Descriptors = Sequence[AppearanceDescriptor]
# Scores every descriptor of a against every descriptor of b: a (len(a), len(b))
# array in [0, 1], with score(b, a) == score(a, b).T and score([x], [x]) == 1.
Scorer = Callable[[Descriptors, Descriptors], np.ndarray]


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


def _stacked(a: Descriptors, b: Descriptors, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``a`` and ``b`` as (len, d) arrays, after one kind and length check."""
    kinds, lengths = {d.kind for d in (*a, *b)}, {len(d) for d in (*a, *b)}
    if kinds - {kind} or len(lengths) > 1:
        raise ValueError(f"descriptor kind or length mismatch: expected {kind} descriptors of "
                         f"one length, got kinds {sorted(kinds)}, lengths {sorted(lengths)}")
    d = max(lengths, default=0)
    return (np.array([x.values for x in a]).reshape(len(a), d),
            np.array([x.values for x in b]).reshape(len(b), d))


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def score_histogram(a: Descriptors, b: Descriptors) -> np.ndarray:
    """Bhattacharyya coefficients sum_k sqrt(a_k * b_k) of every pair."""
    x, y = _stacked(a, b, HISTOGRAM)
    return np.clip(np.sqrt(x[:, None] * y[None]).sum(axis=-1), 0.0, 1.0)


def score_embedding(a: Descriptors, b: Descriptors) -> np.ndarray:
    """Cosine similarities of unit vectors mapped onto [0, 1], for every pair."""
    x, y = _stacked(a, b, EMBEDDING)
    # vecdot gives each pair the bits np.dot gives it; x @ y.T does not.
    return np.clip((1.0 + np.vecdot(x[:, None], y[None])) / 2.0, 0.0, 1.0)


def score_descriptors(a: Descriptors, b: Descriptors) -> np.ndarray:
    """Default scorer: dispatch on descriptor kind."""
    return score_histogram(a, b) if a and a[0].kind == HISTOGRAM else score_embedding(a, b)


def update_histogram(prev: AppearanceDescriptor, matched: AppearanceDescriptor,
                     alpha: float) -> AppearanceDescriptor:
    """Blend the stored histogram toward the matched one: alpha*matched + (1-alpha)*prev."""
    _stacked([prev], [matched], HISTOGRAM)
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


def affinities(memory: AppearanceMemory, zs: Descriptors, scorer: Scorer,
               use_ham: bool = True) -> np.ndarray:
    """Historical appearance matching of each of ``zs``, in one scorer call.

    c_r * score(recent, z) + (1 - c_r) * sum_n w_n * score(history_n, z), with
    confidence-proportional history weights w_n, clipped to [0, 1]; just
    score(recent, z) when the history is empty, c_r is 1 or ``use_ham`` is off.
    """
    c_r = memory.recent_conf
    history = memory.history if use_ham and c_r < 1.0 else ()
    scores = scorer([memory.recent, *(e.descriptor for e in history)], zs)
    s = scores[0]
    if history:
        # Row by row in history order, as the per-pair sum adds them.
        s_hist = 0.0
        for w, row in zip(history_weights(memory), scores[1:]):
            s_hist = s_hist + float(w) * row
        s = c_r * s + (1.0 - c_r) * s_hist
    return np.clip(s, 0.0, 1.0)


def ham(memory: AppearanceMemory, z: AppearanceDescriptor, scorer: Scorer) -> float:
    """Historical appearance matching of one descriptor; see ``affinities``."""
    return float(affinities(memory, [z], scorer)[0])


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
        alpha = conf if cfg.alpha_mode == "affinity" else float(cfg.alpha_mode)
        recent = update_histogram(memory.recent, descriptor, alpha)
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
