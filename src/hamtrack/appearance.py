"""Appearance memory and scoring, including historical appearance matching.

A track remembers its most recent matched appearance together with the
confidence of that match, plus a short, bounded history of appearances that
were stored when a match was confident. Scoring a candidate against the
memory blends the recent appearance with the history: the lower the recent
matching confidence, the more weight the history gets. This keeps matching
stable when the latest stored appearance was corrupted by occlusion or a bad
box.

The tracker scores, stores and decays the memories as array operations
over the rows of a ``MemoryBank``; ``bank_of`` turns ``AppearanceMemory``
values into one.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import EMBEDDING, HISTOGRAM, AppearanceDescriptor, TrackerConfig


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


class MemoryBank(NamedTuple):
    """The appearance memories of N tracks, one row each; d is 0 without appearance.

    ``recent`` (N, d) and ``recent_conf`` (N) are each latest appearance and
    match confidence; ``hist`` (N, W, d), ``hist_conf`` and ``hist_frame``
    (N, W) the history, oldest first in the first ``hist_len`` (N) slots.
    """

    recent: np.ndarray
    recent_conf: np.ndarray
    hist: np.ndarray
    hist_conf: np.ndarray
    hist_frame: np.ndarray
    hist_len: np.ndarray


def new_bank(recent: np.ndarray, width: int = 0) -> MemoryBank:
    """Fresh memories of confidence 1 and ``width`` empty history slots for the (N, d) ``recent``."""
    n, d = recent.shape
    return MemoryBank(recent, np.ones(n), np.zeros((n, width, d)), np.zeros((n, width)),
                      np.zeros((n, width), dtype=int), np.zeros(n, dtype=int))


def descriptor_rows(descriptors: Sequence[AppearanceDescriptor], kind: str, d: int,
                    where: str = "") -> np.ndarray:
    """The values of ``descriptors`` as (len, d) rows, after one kind and length check whose
    message says ``where`` the descriptors are from."""
    found = {(x.kind, len(x)) for x in descriptors} - {(kind, d)}
    if found:
        raise ValueError(f"descriptor kind or length mismatch{where}: expected {kind} "
                         f"descriptors of length {d}, got {sorted(found)}")
    return np.array([x.values for x in descriptors]).reshape(len(descriptors), d)


class Scorer(NamedTuple):
    """A score of row pairs, clip(link(phi(x) . phi(y)), 0, 1) with an affine ``link``: two
    (P, d) arrays in, (P,) scores in [0, 1] out. HAM takes the two built-in values only."""

    phi: Callable[[np.ndarray], np.ndarray]
    link: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # vecdot gives each pair the bits np.dot gives it; a matrix product does not.
        return np.clip(self.link(np.vecdot(self.phi(x), self.phi(y))), 0.0, 1.0)


# Embedding and histogram scorers, indexed by ``kind == HISTOGRAM``. HAM and
# ``scorer_for`` use these values even where the module names are rebound.
_BUILT_IN = (Scorer(lambda a: a, lambda c: (1.0 + c) / 2.0),  # cosine of unit rows onto [0, 1]
             Scorer(np.sqrt, lambda c: c))  # Bhattacharyya coefficient
score_embedding, score_histogram = _BUILT_IN


def scorer_for(kind: str) -> Scorer:
    """The built-in scorer of a descriptor kind, as this module defined it."""
    return _BUILT_IN[kind == HISTOGRAM]


def history_weight_rows(hist_conf: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each row's first ``lengths`` (at least one) confidences over their total; zero past them.

    The total is a running sum over the row's own entries, so it has the
    same bits whatever the width of ``hist_conf``.
    """
    conf = np.where(np.arange(hist_conf.shape[1]) < lengths[:, None], hist_conf, 0.0)
    total = np.cumsum(conf, axis=1)[np.arange(len(conf)), lengths - 1, None]
    if np.any(total <= 0.0):
        raise ValueError("all history confidences are zero")
    return conf / total


def ham_scores(bank: MemoryBank, rows: np.ndarray, cols: np.ndarray, z: np.ndarray,
               scorer: Scorer, use_ham: bool = True) -> np.ndarray:
    """Historical appearance matching of bank row ``rows[p]`` to ``z[cols[p]]``, for each pair p.

    c_r * s(recent, z) + (1 - c_r) * sum_k w_k * s(hist_k, z), with
    confidence-proportional history weights w_k, clipped to [0, 1]; just
    s(recent, z) when the history is empty, c_r is 1 or ``use_ham`` is off.
    The score is affine in phi(x) . phi(z) and the weights sum to one, so each
    track is one row c_r * phi(recent) + (1 - c_r) * sum_k w_k * phi(hist_k)
    and each pair one inner product. The blend runs over the whole bank, with
    zero weights outside the blended rows, and the products over the gated
    tracks x every detection, so no (P, d) or history block is gathered; each
    row and product has the bits the gathered form gives it.
    """
    if scorer not in _BUILT_IN:
        raise ValueError(f"HAM scores with score_histogram or score_embedding only, not {scorer!r}")
    phi, link = scorer
    tracks, at = np.unique(rows, return_inverse=True)
    x = phi(bank.recent[tracks])
    n = np.where(use_ham & (bank.recent_conf[tracks] < 1.0), bank.hist_len[tracks], 0)
    if np.any(n):
        b = np.flatnonzero(n)
        t, c = tracks[b], bank.recent_conf[tracks[b], None]
        w = np.zeros(bank.hist_conf.shape)
        w[t] = history_weight_rows(bank.hist_conf[t], n[b])
        x[b] = c * x[b] + (1.0 - c) * np.einsum("nk,nkd->nd", w, phi(bank.hist))[t]
    return np.clip(link(np.vecdot(x[:, None], phi(z)[None])[at, cols]), 0.0, 1.0)


def maybe_store_history(bank: MemoryBank, rows, z: np.ndarray, kind: str, affinity,
                        frame: int, cfg: TrackerConfig) -> MemoryBank:
    """Refresh the recent appearance of row ``rows[p]`` after it matched ``z[p]``.

    Histograms are blended per ``alpha_mode``, embeddings replaced, and
    ``recent_conf`` becomes ``affinity[p]``. The row's entries older than
    ``hist_window`` frames are dropped, then the oldest until the refreshed
    appearance fits under ``hist_max``; it is stored, last, only when the
    affinity exceeds ``tau_conf``. Other rows are left as they are. Works in
    place: the history is widened, never narrowed, when a row needs a slot
    past it, so it has at most ``min(hist_max, hist_window + 1)`` slots.
    """
    rows, affinity = np.asarray(rows, dtype=int), np.asarray(affinity, dtype=float)
    if not np.all(np.isfinite(affinity)):
        raise ValueError("match affinity must be finite")
    conf = np.clip(affinity, 0.0, 1.0)
    if kind == HISTOGRAM:
        alpha = conf if cfg.alpha_mode == "affinity" else np.full(len(rows), float(cfg.alpha_mode))
        z = alpha[:, None] * z + (1.0 - alpha)[:, None] * bank.recent[rows]
        z = z / z.sum(axis=1, keepdims=True)
    bank.recent[rows], bank.recent_conf[rows] = z, conf
    # Evict before storing: keep each row's entries inside the window, then the
    # newest that leave room for a stored one under hist_max, moved to the front.
    stored = (affinity > cfg.tau_conf) & (cfg.hist_max > 0)
    keep = np.arange(bank.hist.shape[1]) < bank.hist_len[rows][:, None]
    keep &= frame - bank.hist_frame[rows] <= cfg.hist_window
    keep &= np.cumsum(keep[:, ::-1], axis=1)[:, ::-1] <= cfg.hist_max - stored[:, None]
    order = np.argsort(~keep, axis=1, kind="stable")
    for a in (bank.hist, bank.hist_conf, bank.hist_frame):
        a[rows] = a[rows[:, None], order]
    held = keep.sum(axis=1)
    width = int(held[stored].max(initial=-1)) + 1
    if width > bank.hist.shape[1]:  # zero-padded copies
        pad = [(0, 0), (0, width - bank.hist.shape[1])]
        bank = bank._replace(hist=np.pad(bank.hist, pad + [(0, 0)]),
                             hist_conf=np.pad(bank.hist_conf, pad),
                             hist_frame=np.pad(bank.hist_frame, pad))
    at = rows[stored], held[stored]
    bank.hist[at], bank.hist_conf[at], bank.hist_frame[at] = z[stored], conf[stored], frame
    bank.hist_len[rows] = held + stored
    return bank


def decay_confidence(bank: MemoryBank, rows, factor: float) -> MemoryBank:
    """Shrink the recent-match confidence of the missed ``rows``, in place.

    Only the confidence moves; the stored appearances are untouched. This
    shifts scoring weight toward the history while the track is coasting.
    """
    bank.recent_conf[rows] = np.clip(bank.recent_conf[rows] * factor, 0.0, 1.0)
    return bank


def bank_of(memories: Sequence[AppearanceMemory],
            descriptors: Sequence[AppearanceDescriptor]) -> tuple[MemoryBank, np.ndarray]:
    """``memories`` as one bank and ``descriptors`` as rows, after one kind and length check."""
    if None in memories:
        raise ValueError(f"track row {list(memories).index(None)} has no appearance memory")
    if None in descriptors:
        raise ValueError(f"detection {list(descriptors).index(None)} has no appearance descriptor")
    entries = [e for m in memories for e in m.history]
    every = [*(m.recent for m in memories), *(e.descriptor for e in entries), *descriptors]
    kind, d = (every[0].kind, len(every[0])) if every else (EMBEDDING, 0)
    values, n = descriptor_rows(every, kind, d), len(memories)
    lengths = np.array([len(m.history) for m in memories], dtype=int)
    bank = new_bank(values[:n], int(lengths.max(initial=0)))._replace(hist_len=lengths)
    held = np.arange(bank.hist.shape[1]) < lengths[:, None]
    bank.recent_conf[:] = [m.recent_conf for m in memories]
    bank.hist[held], bank.hist_conf[held] = values[n:n + len(entries)], [e.conf for e in entries]
    bank.hist_frame[held] = [e.frame for e in entries]
    return bank, values[n + len(entries):]


def history_weights(memory: AppearanceMemory) -> np.ndarray:
    """Each entry's confidence divided by the total; sums to one."""
    if not memory.history:
        raise ValueError("history is empty")
    bank, _ = bank_of([memory], [])
    return history_weight_rows(bank.hist_conf, bank.hist_len)[0]


def ham(memory: AppearanceMemory, z: AppearanceDescriptor, scorer: Scorer) -> float:
    """Historical appearance matching of one descriptor; see ``ham_scores``."""
    bank, rows = bank_of([memory], [z])
    pair = np.zeros(1, dtype=int)
    return float(ham_scores(bank, pair, pair, rows, scorer)[0])
