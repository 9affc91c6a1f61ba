"""Per-frame tracking pipeline: filter, predict, associate, update, birth/death.

Each frame runs in a fixed order, each stage labelled ``# (n)`` in ``Tracker.step``:
(1) read the detections once into a (k, 5) array of x, y, w, h and confidence, whose
columns every later stage reads, check its confidences under SADF, confidence-filter it and
check the kept detections' heights, centres and descriptors, (2) predict every live track's
motion and shape, (3) build the shape-motion affinities, (4) fuse appearance on gated-in
pairs, (5) solve the assignment, (6) update the matched tracks' filters, (7) start the filters
of tentative tracks on unmatched detections. These write only locals; one commit then sets
the tracker's state and (8) stores the matched appearances, ages unmatched tracks, retires the
stale ones and writes the born rows into the table's spare rows. (9) emits output boxes,
each the caller's own ``BBox`` object. Processing is strictly sequential per sequence;
independent sequences can run in parallel with separate ``Tracker`` instances.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import appearance, kalman, sadf
from .affinity import build_sm_matrix, fuse_appearance, gate_values
from .appearance import (MemoryBank, decay_confidence, descriptor_rows, maybe_store_history,
                         new_bank)
from .association import associate
from .core import (EMBEDDING, HISTOGRAM, AppearanceDescriptor, BBox, Detection, TrackerConfig,
                   validate_config)

# Index of each track's motion and shape filter in the table's stacked state.
MOTION, SHAPE = 0, 1

# frame, ordinal within the frame's raw detections -> descriptor
DescriptorSource = Callable[[int, int], AppearanceDescriptor]


class FrameDescriptors(NamedTuple):
    """A descriptor source by frame: ``rows(frame, ordinals)`` is ``(kind, rows)``, the
    descriptors of those detections as (len(ordinals), d) rows that already hold the
    invariant of ``kind``. ``Tracker`` checks that the kind and d stay the first frame's."""

    rows: Callable[[int, list[int]], tuple[str, np.ndarray]]


def _as_rows(source: DescriptorSource | FrameDescriptors | None):
    """``source`` as one ``rows(frame, ordinals) -> (kind, rows)`` call, a per-(frame, ordinal)
    one checked against each frame's first descriptor. It holds the source, not the tracker,
    which would make every tracker a reference cycle."""
    if isinstance(source, FrameDescriptors):
        return source.rows

    def rows(frame: int, ordinals: list[int]) -> tuple[str, np.ndarray]:
        if source is None:
            raise ValueError(f"detection {ordinals[0]} in frame {frame} has no descriptor and "
                             f"no descriptor source is configured")
        found = [source(frame, k) for k in ordinals]
        for k, x in zip(ordinals, found):
            if not isinstance(x, AppearanceDescriptor):
                raise ValueError(f"detection {k} in frame {frame} has no descriptor: the "
                                 f"descriptor source returned {type(x).__name__}")
        return found[0].kind, descriptor_rows(found, found[0].kind, len(found[0]),
                                              f" in frame {frame}")

    return rows


@contextmanager
def _kalman_arithmetic(frame: int):
    """Raise a ValueError naming the frame where Kalman arithmetic overflows or goes invalid."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"frame {frame}: Kalman state overflows ({exc}); boxes or "
                         f"noise settings are too large to track") from None


class TrackTable:
    """Live tracks, one row each, in birth order (hence ascending id).

    Every column is state that outlives a frame. ``filters`` stacks every
    track's motion and shape Kalman filters: means (N, 2, 4), covariances
    (N, 2, 4, 4). ``hits`` counts consecutive matches and ``misses``
    consecutive misses, so ``misses == 0`` marks the rows matched or born
    this frame. ``memory`` holds the appearance memories.

    Each column is a view of the first N rows of a whole array with spare rows,
    so the columns are the tracker's live state, which a later ``step``
    overwrites in place: copy them to keep a snapshot.
    """

    def __init__(self, arrays: tuple[np.ndarray, ...], n: int):
        self._arrays, self._bank = arrays, MemoryBank(*arrays[6:])  # whole, spare rows included
        self.ids, self.hits, self.misses, self.confirmed, mean, cov, *bank = (a[:n] for a in arrays)
        self.filters, self.memory = kalman.KalmanState(mean, cov), MemoryBank(*bank)

    @classmethod
    def empty(cls, d: int) -> "TrackTable":
        """A table without tracks, for descriptors of length ``d``."""
        return cls((*np.zeros((3, 0), dtype=int), np.zeros(0, dtype=bool), np.zeros((0, 2, 4)),
                    np.zeros((0, 2, 4, 4)), *new_bank(np.zeros((0, d)))), 0)

    def renewed(self, memory: MemoryBank, dead: np.ndarray, first_id: int,
                born: Optional[kalman.KalmanState], descriptors: np.ndarray,
                cfg: TrackerConfig) -> "TrackTable":
        """This table with ``memory`` as its memory's whole arrays, less its ``dead`` rows, and
        then tentative tracks on the ``born`` filters and (k, d) ``descriptors``, ids from
        ``first_id``, their histories empty.

        The live rows after the first dead one move down in place, in order. The new rows go
        into the free rows; when those run out, every array is first copied into a new one
        twice as long.
        """
        arrays, n, k = (*self._arrays[:6], *memory), len(self.ids), len(descriptors)
        if dead.any():
            live = np.flatnonzero(~dead)
            first, n = int(dead.argmax()), len(live)
            if first < n:
                for a in arrays:
                    a[first:n] = a[live[first:]]
        if n + k > len(arrays[0]):  # new arrays, each twice as long, repeating its rows
            arrays = tuple(np.resize(a, (max(2 * len(a), n + k), *a.shape[1:])) for a in arrays)
        if k:  # each array's value in a new row
            for a, value in zip(arrays, (np.arange(first_id, first_id + k), 1, 0,
                                         cfg.confirm_hits <= 1, *born, descriptors, 1.0, 0.0,
                                         0.0, 0, 0)):
                a[n:n + k] = value
        return TrackTable(arrays, n + k)


@dataclass(frozen=True)
class FrameDiagnostics:
    births: int = 0
    deaths: int = 0
    n_tracks: int = 0
    n_raw: int = 0
    n_kept: int = 0
    total_pairs: int = 0
    gated_pairs: int = 0
    appearance_evals: int = 0
    tau_sa: Optional[float] = None
    tau_t: Optional[float] = None


@dataclass(frozen=True)
class FrameResult:
    """Confirmed-track boxes for one frame plus per-frame diagnostics."""

    frame: int
    tracks: tuple[tuple[int, BBox], ...]
    diagnostics: FrameDiagnostics = field(default_factory=FrameDiagnostics)


class Tracker:
    """Online tracker state for one sequence.

    ``descriptor_source`` gives appearance descriptors by frame and ordinal or
    as a ``FrameDescriptors``, once a frame for the detections that survive
    filtering; every frame's must have the kind and length of the first's.
    With ``use_appearance=False`` the tracker runs on shape and motion alone.
    The live tracks are ``table``. An invalid ``cfg`` raises a ValueError
    listing every problem ``validate_config`` finds. ``tallest`` is the tallest box
    ``step`` takes: a track on it can coast ``max_age`` + 1 frames."""

    def __init__(self, cfg: TrackerConfig | None = None,
                 descriptor_source: DescriptorSource | FrameDescriptors | None = None,
                 use_appearance: bool = True):
        self.cfg = cfg if cfg is not None else TrackerConfig()
        problems = validate_config(self.cfg)
        if problems:
            raise ValueError("invalid tracker config: " + "; ".join(problems))
        self.tallest = kalman.tallest(self.cfg.max_age + 1, self.cfg.measurement_noise,
                                      self.cfg.process_noise)
        self._rows = _as_rows(descriptor_source)
        self.use_appearance = use_appearance
        self.table = TrackTable.empty(0)
        self._kind, self._dim = None, 0  # of the first descriptor seen
        self.sadf_state = sadf.SadfState()
        self._next_id = 1
        self._last_frame = 0
        self._frame_count = 0

    def step(self, frame: int, detections: Sequence[Detection]) -> FrameResult:
        """Track frame ``frame`` from its ``detections``, each of which must carry that frame;
        frames must strictly increase. Returns the frame's confirmed-track boxes: the caller's
        own ``BBox`` of the detection each track took, or a predicted box.

        Stage (1) alone decides which detections can be tracked, naming frame and detection: under
        SADF, a confidence beyond ``sadf.MAX_CONFIDENCE``; of the kept boxes, one taller than
        ``tallest`` or whose centre overflows. The checks and stages (1)-(7) write only locals. One
        commit, with no call that can raise, then writes the tracker and (8) stores appearances,
        ages and retires tracks and writes the born rows; (9) emits the boxes. So a frame that
        raises, on its input or on a Kalman overflow, leaves the tracker as it was, and can be
        stepped again.
        """
        cfg = self.cfg
        if frame <= self._last_frame:
            raise ValueError(f"frames must strictly increase: got {frame} "
                             f"after {self._last_frame}")
        for det in detections:
            if det.frame != frame:
                raise ValueError(f"detection carries frame {det.frame}, stepping frame {frame}")

        # (1) read the frame, filter it on a candidate SADF state, check the kept boxes and
        # their descriptors
        block = np.array([(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, d.confidence)
                          for d in detections], dtype=float).reshape(-1, 5)
        conf, sadf_state, tau_sa, tau_t = block[:, 4], self.sadf_state, None, None
        if cfg.filter_mode == "sadf":  # SADF observes every confidence, the dropped ones too
            if abs(conf).max(initial=0.0) > sadf.MAX_CONFIDENCE:
                k = int(np.argmax(abs(conf) > sadf.MAX_CONFIDENCE))
                raise ValueError(f"frame {frame}: detection {k}'s confidence {float(conf[k])!r} is "
                                 f"beyond ±{sadf.MAX_CONFIDENCE!r}: SADF's statistics overflow")
            sadf_state = sadf.observe_frame(sadf_state, conf.tolist(), sadf_state.t + 1)
            tau_sa = sadf.adaptive_cutoff(sadf_state, cfg)
            tau_t = sadf.threshold(sadf_state, cfg, tau_sa)
        elif cfg.filter_mode == "const":
            tau_t = cfg.tau_const
        kept = np.arange(len(conf)) if tau_t is None else np.flatnonzero(conf >= tau_t)
        boxes = block[kept, :4]
        observed = boxes.reshape(-1, 2, 2).copy()  # what the filters observe: centres, sizes
        with np.errstate(over="ignore"):
            observed[:, 0] += observed[:, 1] / 2.0
        if len(kept) and boxes[:, 3].max() > self.tallest:
            k = int(kept[np.argmax(boxes[:, 3] > self.tallest)])
            raise ValueError(f"frame {frame}: detection {k} is {float(block[k, 3])!r} px tall, "
                             f"above {self.tallest!r}: its Kalman state overflows before a "
                             f"track has coasted max_age + 1 = {cfg.max_age + 1} frames")
        if not np.isfinite(observed).all():
            k = int(kept[np.argmax(~np.isfinite(observed).all(axis=(1, 2)))])
            raise ValueError(f"frame {frame}: detection {k} has its centre beyond the largest "
                             f"double: {detections[k].bbox}")
        first_kind, first_dim = self._kind, self._dim
        descriptors = np.zeros((len(kept), self._dim))
        if self.use_appearance and len(kept):
            kind, descriptors = self._rows(frame, kept.tolist())
            shape = descriptors.shape if isinstance(descriptors, np.ndarray) else None
            if first_kind is None and shape is not None and len(shape) == 2:
                if kind not in (HISTOGRAM, EMBEDDING):
                    raise ValueError(f"unknown descriptor kind {kind!r} in frame {frame}: "
                                     f"expected {HISTOGRAM!r} or {EMBEDDING!r}")
                first_kind, first_dim = kind, shape[1]
            if (kind, shape) != (first_kind, (len(kept), first_dim)):
                got = f"shape {shape}" if shape is not None else type(descriptors).__name__
                raise ValueError(f"descriptor kind or length mismatch in frame {frame}: expected "
                                 f"{len(kept)} {first_kind or kind} rows of length "
                                 f"{first_dim or 'd'}, got {kind} rows of {got}")
            if descriptors.dtype.kind not in "biuf":
                raise ValueError(f"descriptor rows in frame {frame} are {descriptors.dtype}, "
                                 f"not real numbers")
            if not np.isfinite(descriptors).all():
                raise ValueError(f"descriptor rows in frame {frame} hold non-finite values")

        # (2) predict, into new arrays that (6) updates in place and the commit stores
        table = self.table
        if first_kind != self._kind:  # no track yet: size its descriptor columns
            table = TrackTable.empty(first_dim)
        with _kalman_arithmetic(frame):
            process_std = cfg.process_noise * kalman.clamped_wh(table.filters)[:, SHAPE, 1:]
            filters = kalman.predict(table.filters, process_std)

        # (3) shape-motion affinities, (4) appearance fusion, (5) assignment
        pred_wh = kalman.clamped_wh(filters)[:, SHAPE]
        sm = build_sm_matrix(filters.mean[:, MOTION, :2], pred_wh, boxes, cfg)
        if self.use_appearance:
            final = fuse_appearance(sm, table.memory, descriptors,
                                    appearance.scorer_for(first_kind), use_ham=cfg.use_ham)
        else:
            final = gate_values(sm)
        assignment = associate(final, cfg.tau_asc)

        # (6) update the matched filters, (7) start the filters of tentative tracks
        matches = np.array(assignment.matches, dtype=float).reshape(-1, 3)
        (rows, cols), affinity = matches[:, :2].astype(int).T, matches[:, 2]
        missed = np.array(assignment.unmatched_tracks, dtype=int)
        new = np.array(assignment.unmatched_detections, dtype=int)
        index = np.full(len(table.ids), -1)  # row -> its detection's raw ordinal
        index[rows] = kept[cols]
        z, born = observed[cols], None
        with _kalman_arithmetic(frame):
            filters.mean[rows], filters.cov[rows] = kalman.update(
                filters.at(rows), z, cfg.measurement_noise * z[:, SHAPE, 1:])
            if len(new):
                heights = observed[new][:, SHAPE, 1:]
                born = kalman.init(observed[new], heights, pos_std=cfg.measurement_noise * heights)

        # Commit: nothing below raises, so the frame lands whole or not at all.
        self._last_frame, self._frame_count = frame, self._frame_count + 1
        self.sadf_state, self._kind, self._dim = sadf_state, first_kind, first_dim
        table.filters.mean[:], table.filters.cov[:] = filters
        # (8) store matched appearances, age the missed, retire the stale, add the born last
        memory = table._bank  # the whole arrays, so that a widened history keeps its spare rows
        if self.use_appearance:
            memory = maybe_store_history(memory, rows, descriptors[cols], first_kind, affinity,
                                         frame, cfg)
            memory = decay_confidence(memory, missed, cfg.conf_decay)
        table.hits[rows] += 1
        table.misses[rows] = 0
        table.confirmed[rows] |= table.hits[rows] >= cfg.confirm_hits
        table.misses[missed] += 1
        table.hits[missed] = 0
        dead = (table.misses > 0) & (~table.confirmed | (table.misses > cfg.max_age))
        index = np.concatenate([index[~dead], kept[new]])
        self.table = table = table.renewed(memory, dead, self._next_id, born, descriptors[new], cfg)
        self._next_id += len(new)

        # (9) emit output boxes: a matched or born row's detection box, a missed row's prediction
        startup = self._frame_count <= cfg.confirm_hits
        fresh = table.misses == 0  # matched or born this frame
        emitted = np.flatnonzero(fresh & startup | table.confirmed & (fresh | cfg.emit_predicted))
        columns = (emitted, table.ids[emitted], fresh[emitted], index[emitted])
        outputs = [(track_id, detections[k].bbox if matched else kalman.predicted_box(
                        table.filters.at((r, MOTION)), table.filters.at((r, SHAPE))))
                   for r, track_id, matched, k in zip(*(c.tolist() for c in columns))]

        gated = int(sm.gate_mask.sum())
        diag = FrameDiagnostics(
            births=len(new),
            deaths=int(dead.sum()),
            n_tracks=len(table.ids),
            n_raw=len(detections),
            n_kept=len(kept),
            total_pairs=int(sm.values.size),
            gated_pairs=gated,
            appearance_evals=gated if self.use_appearance else 0,
            tau_sa=tau_sa,
            tau_t=tau_t,
        )
        return FrameResult(frame=frame, tracks=tuple(outputs), diagnostics=diag)


def run_sequence(detections_by_frame: Mapping[int, Sequence[Detection]],
                 cfg: TrackerConfig | None = None,
                 descriptor_source: DescriptorSource | FrameDescriptors | None = None,
                 use_appearance: bool = True,
                 n_frames: Optional[int] = None) -> list[FrameResult]:
    """Run a whole sequence frame by frame, including frames with no detections.

    Frames run from 1 through ``n_frames`` (default: the highest frame seen in
    the input). Equivalent to calling ``Tracker.step`` once per frame.
    """
    tracker = Tracker(cfg=cfg, descriptor_source=descriptor_source,
                      use_appearance=use_appearance)
    last = n_frames if n_frames is not None else (
        max(detections_by_frame) if detections_by_frame else 0)
    results = []
    for frame in range(1, last + 1):
        dets = list(detections_by_frame.get(frame, ()))
        results.append(tracker.step(frame, dets))
    return results
