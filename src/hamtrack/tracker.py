"""Per-frame tracking pipeline: filter, predict, associate, update, birth/death.

Each frame runs in a fixed order: (1) confidence-filter the detections,
(2) predict every live track's motion and shape, (3) build the shape-motion
affinities, (4) fuse appearance on gated-in pairs, (5) solve the assignment,
(6) update matched tracks, (7) age unmatched tracks and retire the stale
ones, (8) start tentative tracks from unmatched detections, (9) emit output
boxes. Processing is strictly sequential per sequence; independent sequences
can run in parallel with separate ``Tracker`` instances.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import appearance, kalman, sadf
from .affinity import build_sm_matrix, fuse_appearance, gate_values
from .appearance import (MemoryBank, decay_confidence, descriptor_rows, maybe_store_history,
                         new_bank)
from .association import associate
from .core import (AppearanceDescriptor, BBox, Detection, TrackerConfig, box_columns,
                   validate_config)

# Index of each track's motion and shape filter in the table's stacked state.
MOTION, SHAPE = 0, 1

# frame, ordinal within the frame's raw detections -> descriptor
DescriptorSource = Callable[[int, int], AppearanceDescriptor]


@contextmanager
def _kalman_arithmetic(frame: int):
    """Raise a ValueError naming the frame where Kalman arithmetic overflows or goes invalid."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"frame {frame}: Kalman state overflows ({exc}); boxes or "
                         f"noise settings are too large to track") from None


def _observed_pairs(boxes: Sequence[BBox]) -> np.ndarray:
    """What the motion and shape filters observe of each box: (k, 2, 2)."""
    observed = box_columns(boxes).T.reshape(-1, 2, 2)
    observed[:, 0] += observed[:, 1] / 2.0
    return observed


@dataclass
class TrackTable:
    """Live tracks, one row each, in birth order (hence ascending id).

    ``mean`` (N, 2, 4) and ``cov`` (N, 2, 4, 4) stack every track's motion
    and shape Kalman filters. ``hits`` counts consecutive matches and
    ``misses`` consecutive misses, so ``misses == 0`` marks the rows matched
    or born this frame. ``last_boxes`` is a row-aligned list. The columns
    from ``recent`` on are the appearance memories, viewed as ``memory``.
    """

    ids: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    hits: np.ndarray
    misses: np.ndarray
    confirmed: np.ndarray
    last_boxes: list[BBox]
    recent: np.ndarray
    recent_conf: np.ndarray
    hist: np.ndarray
    hist_conf: np.ndarray
    hist_frame: np.ndarray
    hist_len: np.ndarray

    @classmethod
    def born(cls, first_id: int, boxes: Sequence[BBox], descriptors: np.ndarray,
             cfg: TrackerConfig, width: int) -> "TrackTable":
        """Tentative tracks started on ``boxes`` and their (len(boxes), d) ``descriptors``.

        Their histories are empty, with ``width`` slots.
        """
        n = len(boxes)
        observed = _observed_pairs(boxes)
        heights = observed[:, SHAPE, 1:]
        mean, cov = kalman.init(observed, heights, pos_std=cfg.measurement_noise * heights)
        return cls(np.arange(first_id, first_id + n), mean, cov, np.ones(n, dtype=int),
                   np.zeros(n, dtype=int), np.full(n, cfg.confirm_hits <= 1),
                   list(boxes), *new_bank(descriptors, width))

    @property
    def filters(self) -> kalman.KalmanState:
        return kalman.KalmanState(self.mean, self.cov)

    @property
    def memory(self) -> MemoryBank:
        return MemoryBank(*(getattr(self, name) for name in MemoryBank._fields))

    @memory.setter
    def memory(self, bank: MemoryBank) -> None:
        vars(self).update(bank._asdict())

    def select(self, keep: np.ndarray) -> "TrackTable":
        """The rows where ``keep`` is true."""
        rows = np.flatnonzero(keep)
        return TrackTable(*([col[r] for r in rows] if isinstance(col, list) else col[rows]
                            for col in vars(self).values()))

    def append(self, other: "TrackTable") -> "TrackTable":
        """This table's rows followed by ``other``'s, which has as many history slots."""
        return TrackTable(*(x + y if isinstance(x, list) else np.concatenate([x, y])
                            for x, y in zip(vars(self).values(), vars(other).values())))


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

    ``descriptor_source`` supplies appearance descriptors lazily, by frame
    and ordinal; it is only consulted for detections that survive filtering.
    With ``use_appearance=False`` the tracker runs on shape and motion alone.
    The live tracks are ``table``. An invalid ``cfg`` raises a ValueError
    listing every problem ``validate_config`` finds.
    """

    def __init__(self, cfg: TrackerConfig | None = None,
                 descriptor_source: Optional[DescriptorSource] = None,
                 use_appearance: bool = True):
        self.cfg = cfg if cfg is not None else TrackerConfig()
        problems = validate_config(self.cfg)
        if problems:
            raise ValueError("invalid tracker config: " + "; ".join(problems))
        self.descriptor_source = descriptor_source
        self.use_appearance = use_appearance
        self.table = TrackTable.born(1, [], np.zeros((0, 0)), self.cfg, 0)
        self._kind, self._dim = None, 0  # of the first descriptor seen
        self.sadf_state = sadf.SadfState()
        self._next_id = 1
        self._last_frame = 0
        self._frame_count = 0

    def _descriptor_for(self, frame: int, ordinal: int) -> AppearanceDescriptor:
        if self.descriptor_source is None:
            raise ValueError(
                f"detection {ordinal} in frame {frame} has no descriptor and "
                f"no descriptor source is configured")
        return self.descriptor_source(frame, ordinal)

    def _apply_filter(self, frame: int,
                      detections: Sequence[Detection]) -> tuple[list[int], Optional[float], Optional[float]]:
        cfg = self.cfg
        if cfg.filter_mode == "none":
            return list(range(len(detections))), None, None
        if cfg.filter_mode == "const":
            tau_t = cfg.tau_const
            tau_sa = None
        else:
            self.sadf_state = sadf.observe_frame(
                self.sadf_state, (d.confidence for d in detections), self.sadf_state.t + 1)
            tau_sa = sadf.adaptive_cutoff(self.sadf_state, cfg)
            tau_t = sadf.threshold(self.sadf_state, cfg, tau_sa)
        kept = [k for k, d in enumerate(detections) if d.confidence >= tau_t]
        return kept, tau_sa, tau_t

    def step(self, frame: int, detections: Sequence[Detection]) -> FrameResult:
        cfg = self.cfg
        if frame <= self._last_frame:
            raise ValueError(f"frames must strictly increase: got {frame} "
                             f"after {self._last_frame}")
        for det in detections:
            if det.frame != frame:
                raise ValueError(f"detection carries frame {det.frame}, stepping frame {frame}")
        self._last_frame = frame
        self._frame_count += 1

        kept_ordinals, tau_sa, tau_t = self._apply_filter(frame, detections)
        survivors = [detections[k] for k in kept_ordinals]
        descriptors = np.zeros((len(survivors), 0))
        if self.use_appearance:
            found = [self._descriptor_for(frame, k) for k in kept_ordinals]
            if found and self._kind is None:  # no track yet: size its descriptor columns
                self._kind, self._dim = found[0].kind, len(found[0])
                self.table = TrackTable.born(1, [], np.zeros((0, self._dim)), cfg, 0)
            descriptors = descriptor_rows(found, self._kind, self._dim)

        table = self.table
        with _kalman_arithmetic(frame):
            process_std = cfg.process_noise * kalman.clamped_wh(table.filters)[:, SHAPE, 1:]
            table.mean, table.cov = kalman.predict(table.filters, process_std)

        boxes = [d.bbox for d in survivors]
        pred_wh = kalman.clamped_wh(table.filters)[:, SHAPE]
        sm = build_sm_matrix(table.mean[:, MOTION, :2], pred_wh, boxes, cfg)
        if self.use_appearance:
            final = fuse_appearance(sm, table.memory, descriptors,
                                    appearance.scorer_for(self._kind), use_ham=cfg.use_ham)
        else:
            final = gate_values(sm)
        assignment = associate(final, cfg.tau_asc)

        rows = [ti for ti, _, _ in assignment.matches]
        cols = [dj for _, dj, _ in assignment.matches]
        z = _observed_pairs([boxes[dj] for dj in cols])
        with _kalman_arithmetic(frame):
            table.mean[rows], table.cov[rows] = kalman.update(
                table.filters.at(rows), z, cfg.measurement_noise * z[:, SHAPE, 1:])
        for ti, dj in zip(rows, cols):
            table.last_boxes[ti] = boxes[dj]
        if self.use_appearance:
            table.memory = maybe_store_history(
                table.memory, rows, descriptors[cols], self._kind,
                [affinity for _, _, affinity in assignment.matches], frame, cfg)
        table.hits[rows] += 1
        table.misses[rows] = 0
        table.confirmed[rows] |= table.hits[rows] >= cfg.confirm_hits

        missed = list(assignment.unmatched_tracks)
        table.misses[missed] += 1
        table.hits[missed] = 0
        if self.use_appearance:
            table.memory = decay_confidence(table.memory, missed, cfg.conf_decay)
        dead = (table.misses > 0) & (~table.confirmed | (table.misses > cfg.max_age))

        new = assignment.unmatched_detections
        if dead.any():  # select and append copy every column, the history included
            table = table.select(~dead)
        if new:
            with _kalman_arithmetic(frame):
                born = TrackTable.born(self._next_id, [boxes[dj] for dj in new],
                                       descriptors[list(new)], cfg, table.hist.shape[1])
            table = table.append(born)
        self._next_id += len(new)
        self.table = table

        outputs = []
        startup = self._frame_count <= cfg.confirm_hits
        for r, track_id in enumerate(table.ids.tolist()):
            if table.misses[r] == 0:
                if table.confirmed[r] or startup:
                    outputs.append((track_id, table.last_boxes[r]))
            elif cfg.emit_predicted and table.confirmed[r]:
                outputs.append((track_id, kalman.predicted_box(
                    table.filters.at((r, MOTION)), table.filters.at((r, SHAPE)))))

        diag = FrameDiagnostics(
            births=len(new),
            deaths=int(dead.sum()),
            n_tracks=len(table.ids),
            n_raw=len(detections),
            n_kept=len(survivors),
            total_pairs=int(sm.values.size),
            gated_pairs=int(sm.gate_mask.sum()),
            appearance_evals=int(final.gate_mask.sum()) if self.use_appearance else 0,
            tau_sa=tau_sa,
            tau_t=tau_t,
        )
        return FrameResult(frame=frame, tracks=tuple(outputs), diagnostics=diag)


def run_sequence(detections_by_frame: Mapping[int, Sequence[Detection]],
                 cfg: TrackerConfig | None = None,
                 descriptor_source: Optional[DescriptorSource] = None,
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
