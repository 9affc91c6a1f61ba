"""Deterministic synthetic tracking scenarios.

Generates ground truth, detections, embeddings, and optional flat-color PPM
frames for scripted scenes: objects follow piecewise-linear paths, disappear
during occlusion windows, and their detections suffer configurable box
jitter, pairwise merges, fragments, and background false positives.
Detection confidences follow per-regime Gaussians so scene-condition shifts
can be scripted. Appearance descriptors are per-object unit embeddings plus
noise; on the frames leading into an occlusion they can be corrupted by
blending toward the occluder's appearance (or a random one), modelling boxes
that mostly show the thing in front.

All randomness comes from a self-contained xoshiro256** generator seeded via
splitmix64, with a fixed draw order, so a seed reproduces files byte for
byte. The generator draws its stream ahead a chunk at a time, and each draw is
still the one the seed fixes: the same doubles as drawing one at a time. Normal
variates use the Box-Muller transform (one variate per two uniforms; the sine
branch is discarded).
"""

import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .core import BBox, parse_kv_text
from .io_mot import MAX_FRAME
from .metrics import iou_matrix

_MASK64 = (1 << 64) - 1
_CHUNK = 4096  # draws the generator buffers at a time

# Caps on the sizes that set a frame's generation work, a few times the largest
# bundled or benchmark scene. Every false positive and every embedding component
# is a Python draw, and each --frames image is one canvas-sized RGB array.
# MAX_DRAWS bounds a run's draws, n_frames x (objects + fp_rate) x embed_dim:
# at about 1.5 us a draw on a 2-CPU x86-64 host, about three minutes.
MAX_FP_RATE = 100.0
MAX_EMBED_DIM = 1024
MAX_CANVAS_PIXELS = 3840 * 2160
MAX_DRAWS = 10**8


def _splitmix64(x: int):
    while True:
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield (z ^ (z >> 31)) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding; uniform takes the top 53 bits.

    The stream is drawn ahead ``_CHUNK`` draws at a time: a Python loop steps
    the state and keeps each draw's ``s1``, and numpy applies the ``**``
    scrambler and the 53-bit conversion to the whole chunk. ``uint64``
    arithmetic wraps mod 2**64 as the masked Python ints do, and ``r >> 11``
    is below 2**53, so its float64 is exact and ``+ 0.5`` rounds as Python's
    float does. Every draw is the one a draw-at-a-time generator makes,
    whatever the methods' interleaving.
    """

    def __init__(self, seed: int):
        seeder = _splitmix64(seed & _MASK64)
        self._s = [next(seeder) for _ in range(4)]
        if not any(self._s):
            self._s[0] = 1
        self._uni: list[float] = []  # the buffered draws, as uniforms
        self._pos = 0                # the next unread draw

    def _refill(self) -> None:
        """Buffer the next ``_CHUNK`` draws; the buffer must have been read to its end."""
        s0, s1, s2, s3 = self._s
        seen = []
        keep = seen.append
        for _ in range(_CHUNK):
            keep(s1)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) & _MASK64) | (s3 >> 19)
        self._s = [s0, s1, s2, s3]
        r = np.array(seen, dtype=np.uint64) * 5
        r = ((r << 7) | (r >> 57)) * 9
        self._uni = (((r >> 11).astype(np.float64) + 0.5) * 2.0 ** -53).tolist()
        self._pos = 0

    def uniform(self) -> float:
        """Uniform in the open interval (0, 1)."""
        if self._pos == len(self._uni):
            self._refill()
        self._pos += 1
        return self._uni[self._pos - 1]

    def _uniforms(self, n: int) -> list[float]:
        """The next n uniforms, read across as many refills as they need."""
        out: list[float] = []
        while True:
            end = min(self._pos + n - len(out), len(self._uni))
            out += self._uni[self._pos:end]
            self._pos = end
            if len(out) == n:
                return out
            self._refill()

    def normal(self, mu: float = 0.0, sd: float = 1.0) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        return mu + sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int, mu: float = 0.0, sd: float = 1.0) -> np.ndarray:
        """n variates, the same doubles as n ``normal(mu, sd)`` calls."""
        u = self._uniforms(2 * n)
        sqrt, log, cos = math.sqrt, math.log, math.cos
        two_pi = 2.0 * math.pi  # the left product of normal's 2.0 * math.pi * u2
        return np.array([mu + sd * sqrt(-2.0 * log(u1)) * cos(two_pi * u2)
                         for u1, u2 in zip(u[::2], u[1::2])], dtype=float)

    def unit_vector(self, dim: int) -> np.ndarray:
        v = self.normals(dim)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            v[0] = 1.0
            norm = 1.0
        return v / norm


@dataclass(frozen=True)
class ObjectSpec:
    """Constant-size object moving linearly between (frame, cx, cy) waypoints."""

    waypoints: tuple[tuple[int, float, float], ...]
    w: float
    h: float


@dataclass(frozen=True)
class OcclusionEvent:
    """Object ``obj`` emits nothing during [start, end]; ``by`` names the occluder."""

    obj: int = field(metadata={"key": "object"})  # spec attribute name, if not the field's
    start: int
    end: int
    by: Optional[int] = None


@dataclass(frozen=True)
class ConfidenceRegime:
    """Confidences are N(mean, std) from ``start`` until the next regime begins."""

    start: int
    mean: float
    std: float


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = 1
    n_frames: int = 100
    canvas_w: int = 640
    canvas_h: int = 480
    fp_rate: float = 0.0
    merge_prob: float = 0.0
    fragment_prob: float = 0.0
    jitter_std: float = 0.0
    embed_dim: int = 16
    embed_noise_std: float = 0.02
    corrupt_frames: int = 2
    corrupt_blend: float = 0.8
    objects: tuple[ObjectSpec, ...] = ()
    events: tuple[OcclusionEvent, ...] = ()
    regimes: tuple[ConfidenceRegime, ...] = (ConfidenceRegime(1, 30.0, 5.0),)


# Spec groups by key prefix: the ScenarioSpec field each fills and its dataclass.
SPEC_GROUPS = {"object": ("objects", ObjectSpec), "event": ("events", OcclusionEvent),
               "regime": ("regimes", ConfidenceRegime)}
_CONVERTERS = {int: int, float: float, Optional[int]: int}


@dataclass
class GeneratedScenario:
    """Rows are (frame, id, box, confidence); embeddings are (frame, ordinal, vector)."""

    gt_rows: list[tuple[int, int, BBox, float]] = field(default_factory=list)
    det_rows: list[tuple[int, int, BBox, float]] = field(default_factory=list)
    embeddings: list[tuple[int, int, np.ndarray]] = field(default_factory=list)
    frames: Optional[Mapping[int, np.ndarray]] = None
    n_merges: int = 0
    n_fragments: int = 0
    n_false_positives: int = 0


class _Frames(Mapping):
    """Flat-colour frame images, each drawn when read from its (object index, box) pairs."""

    def __init__(self, spec: ScenarioSpec, colors, boxes):
        self._shape, self._colors, self._boxes = (spec.canvas_h, spec.canvas_w, 3), colors, boxes

    def __getitem__(self, frame: int) -> np.ndarray:
        img = np.full(self._shape, 64, dtype=np.uint8)
        for i, box in self._boxes[frame]:
            x0, y0 = int(box.x), int(box.y)
            x1, y1 = int(box.x + box.w), int(box.y + box.h)
            img[max(y0, 0):max(y1, 0), max(x0, 0):max(x1, 0)] = self._colors[i]
        return img

    def __contains__(self, frame) -> bool:
        return frame in self._boxes

    def __iter__(self):
        return iter(self._boxes)

    def __len__(self) -> int:
        return len(self._boxes)


def validate_scenario(spec: ScenarioSpec) -> list[str]:
    """One message per violated constraint; empty list means usable."""
    errors = []
    if not 1 <= spec.n_frames <= MAX_FRAME:
        errors.append(f"n_frames must be in [1, {MAX_FRAME}]")
    if spec.canvas_w < 8 or spec.canvas_h < 8:
        errors.append("canvas must be at least 8x8")
    if spec.canvas_w * spec.canvas_h > MAX_CANVAS_PIXELS:
        errors.append(f"canvas_w x canvas_h must be at most {MAX_CANVAS_PIXELS} pixels")
    if not 0 <= spec.fp_rate <= MAX_FP_RATE:
        errors.append(f"fp_rate must be in [0, {MAX_FP_RATE:g}]")
    for name in ("merge_prob", "fragment_prob", "corrupt_blend"):
        if not 0.0 <= getattr(spec, name) <= 1.0:
            errors.append(f"{name} out of [0,1]")
    if spec.jitter_std < 0:
        errors.append("jitter_std must be >= 0")
    if not 1 <= spec.embed_dim <= MAX_EMBED_DIM:
        errors.append(f"embed_dim must be in [1, {MAX_EMBED_DIM}]")
    if spec.n_frames * (len(spec.objects) + spec.fp_rate) * spec.embed_dim > MAX_DRAWS:
        errors.append(f"n_frames x (objects + fp_rate) x embed_dim must be at most {MAX_DRAWS:,}")
    if spec.embed_noise_std < 0:
        errors.append("embed_noise_std must be >= 0")
    if spec.corrupt_frames < 0:
        errors.append("corrupt_frames must be >= 0")
    if not spec.objects:
        errors.append("at least one object is required")
    for k, obj in enumerate(spec.objects):
        if not obj.waypoints:
            errors.append(f"object.{k}.waypoints is empty")
            continue
        frames = [wp[0] for wp in obj.waypoints]
        if frames != sorted(frames):
            errors.append(f"object.{k}.waypoints frames must be ascending")
        if frames[0] < 1 or frames[-1] > spec.n_frames:
            errors.append(f"object.{k}.waypoints outside [1, {spec.n_frames}]")
        if obj.w <= 0 or obj.h <= 0:
            errors.append(f"object.{k} size must be positive")
    for k, ev in enumerate(spec.events):
        if not 0 <= ev.obj < len(spec.objects):
            errors.append(f"event.{k}.object out of range")
        if ev.start > ev.end or ev.start < 1 or ev.end > spec.n_frames:
            errors.append(f"event.{k} span outside [1, {spec.n_frames}]")
        if ev.by is not None and not 0 <= ev.by < len(spec.objects):
            errors.append(f"event.{k}.by out of range")
    if not spec.regimes:
        errors.append("at least one confidence regime is required")
    for k, reg in enumerate(spec.regimes):
        if reg.start < 1:
            errors.append(f"regime.{k}.start must be >= 1")
        if reg.std < 0:
            errors.append(f"regime.{k}.std must be >= 0")
    finite = {"jitter_std": [spec.jitter_std], "embed_noise_std": [spec.embed_noise_std]}
    for k, obj in enumerate(spec.objects):
        finite |= {f"object.{k}.w": [obj.w], f"object.{k}.h": [obj.h],
                   f"object.{k}.waypoints": [c for _, *xy in obj.waypoints for c in xy]}
    for k, reg in enumerate(spec.regimes):
        finite |= {f"regime.{k}.mean": [reg.mean], f"regime.{k}.std": [reg.std]}
    errors += [f"{key} must be finite" for key, values in finite.items()
               if not all(map(math.isfinite, values))]
    return errors


def _object_center(obj: ObjectSpec, frame: int) -> Optional[tuple[float, float]]:
    wps = obj.waypoints
    if frame < wps[0][0] or frame > wps[-1][0]:
        return None
    for (f0, x0, y0), (f1, x1, y1) in zip(wps, wps[1:]):
        if f0 <= frame <= f1:
            if f1 == f0:
                return (x1, y1)
            a = (frame - f0) / (f1 - f0)
            return (x0 + a * (x1 - x0), y0 + a * (y1 - y0))
    return (wps[-1][1], wps[-1][2])


def _clamped_box(spec: ScenarioSpec, obj: ObjectSpec, cx: float, cy: float) -> BBox:
    half_w, half_h = obj.w / 2.0, obj.h / 2.0
    cx = min(max(cx, half_w), spec.canvas_w - half_w)
    cy = min(max(cy, half_h), spec.canvas_h - half_h)
    return BBox(cx - half_w, cy - half_h, obj.w, obj.h)


def generate(spec: ScenarioSpec, with_frames: bool = False) -> GeneratedScenario:
    """Produce the scenario deterministically for the spec's seed.

    An invalid spec raises a ValueError listing every problem
    ``validate_scenario`` finds, joined by ``"; "``.
    """
    problems = validate_scenario(spec)
    if problems:
        raise ValueError("; ".join(problems))
    rng = Xoshiro256StarStar(spec.seed)
    bases = [rng.unit_vector(spec.embed_dim) for _ in spec.objects]
    colors = [tuple(int(32 + rng.uniform() * 192) for _ in range(3))
              for _ in spec.objects]
    # Corruption target per event: the occluder's appearance when one is
    # named, otherwise a fixed random direction standing in for clutter.
    targets = [bases[ev.by] if ev.by is not None else rng.unit_vector(spec.embed_dim)
               for ev in spec.events]

    # The schedule, which no draw depends on. A frame's regime is the last in start order
    # that has begun (the first before any has). A lead-in corrupts an (object, frame)
    # through the first event in spec order whose window, clamped at frame 1, covers it.
    regimes = sorted(spec.regimes, key=lambda r: r.start)
    starts = [r.start for r in regimes]
    occluded = {(ev.obj, f) for ev in spec.events for f in range(ev.start, ev.end + 1)}
    lead_in: dict[tuple[int, int], int] = {}
    for k, ev in enumerate(spec.events):
        for f in range(max(ev.start - spec.corrupt_frames, 1), ev.start):
            lead_in.setdefault((ev.obj, f), k)

    out = GeneratedScenario()
    visible_by_frame: dict[int, list[tuple[int, BBox]]] = {}
    for frame in range(1, spec.n_frames + 1):
        regime = regimes[max(bisect_right(starts, frame) - 1, 0)]
        visible: list[tuple[int, BBox]] = []
        for i, obj in enumerate(spec.objects):
            center = _object_center(obj, frame)
            if center is None or (i, frame) in occluded:
                continue
            visible.append((i, _clamped_box(spec, obj, *center)))
        for i, box in visible:
            out.gt_rows.append((frame, i + 1, box, 1.0))
        visible_by_frame[frame] = visible

        # (box, confidence, descriptor) candidates, one per visible object.
        entries: list[tuple[BBox, float, np.ndarray]] = []
        for i, true_box in visible:
            dx = rng.normal(0.0, spec.jitter_std)
            dy = rng.normal(0.0, spec.jitter_std)
            dw = rng.normal(0.0, spec.jitter_std / 2.0)
            dh = rng.normal(0.0, spec.jitter_std / 2.0)
            w = max(true_box.w + dw, 2.0)
            h = max(true_box.h + dh, 2.0)
            box = BBox(true_box.cx + dx - w / 2.0, true_box.cy + dy - h / 2.0, w, h)
            conf = rng.normal(regime.mean, regime.std)
            noise = rng.normals(spec.embed_dim, 0.0, spec.embed_noise_std)
            event = lead_in.get((i, frame))
            if event is None:
                vec = bases[i] + noise
            else:
                # Box about to be swallowed: its appearance is dominated by
                # whatever is in front.
                vec = ((1.0 - spec.corrupt_blend) * bases[i]
                       + spec.corrupt_blend * targets[event] + noise)
            norm = float(np.linalg.norm(vec))
            entries.append((box, conf, vec / norm if norm > 0 else bases[i]))

        if spec.merge_prob > 0 and len(visible) > 1:
            merged_away: set[int] = set()
            merged: list[tuple[BBox, float, np.ndarray]] = []
            boxes = [box for _, box in visible]
            # Overlapping pairs a < b, in row-major order. A NaN IoU (areas
            # overflowing a double) counts as overlap: only <= 0 rules a pair out.
            overlapping = np.triu(~(iou_matrix(boxes, boxes) <= 0), k=1)
            for a, b in np.argwhere(overlapping).tolist():
                u = rng.uniform()
                if u >= spec.merge_prob or a in merged_away or b in merged_away:
                    continue
                merged_away.update((a, b))
                ba, ca, va = entries[a]
                bb, cb, vb = entries[b]
                x0 = min(ba.x, bb.x)
                y0 = min(ba.y, bb.y)
                x1 = max(ba.x + ba.w, bb.x + bb.w)
                y1 = max(ba.y + ba.h, bb.y + bb.h)
                blend = (va + vb) / 2.0
                norm = float(np.linalg.norm(blend))
                blend = blend / norm if norm > 0 else va
                merged.append((BBox(x0, y0, x1 - x0, y1 - y0), (ca + cb) / 2.0, blend))
                out.n_merges += 1
            entries = [e for k, e in enumerate(entries) if k not in merged_away] + merged

        if spec.fragment_prob > 0:
            for k, (box, conf, vec) in enumerate(entries):
                if rng.uniform() < spec.fragment_prob:
                    fw = 0.3 + 0.4 * rng.uniform()
                    fh = 0.3 + 0.4 * rng.uniform()
                    ox = rng.uniform() * (1.0 - fw)
                    oy = rng.uniform() * (1.0 - fh)
                    entries[k] = (BBox(box.x + ox * box.w, box.y + oy * box.h,
                                       box.w * fw, box.h * fh), conf, vec)
                    out.n_fragments += 1

        n_fp = int(spec.fp_rate)
        if rng.uniform() < spec.fp_rate - n_fp:
            n_fp += 1
        for _ in range(n_fp):
            w = 20.0 + 60.0 * rng.uniform()
            h = 40.0 + 80.0 * rng.uniform()
            x = rng.uniform() * max(spec.canvas_w - w, 1.0)
            y = rng.uniform() * max(spec.canvas_h - h, 1.0)
            conf = rng.normal(regime.mean, regime.std)
            entries.append((BBox(x, y, w, h), conf, rng.unit_vector(spec.embed_dim)))
            out.n_false_positives += 1

        for ordinal, (box, conf, vec) in enumerate(entries):
            out.det_rows.append((frame, -1, box, conf))
            out.embeddings.append((frame, ordinal, vec))

    out.frames = _Frames(spec, colors, visible_by_frame) if with_frames else None
    return out


def _parse_waypoints(raw: str, key: str) -> tuple[tuple[int, float, float], ...]:
    points = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            frame_part, coords = part.split(":", 1)
            x_part, y_part = coords.split(",", 1)
            points.append((int(frame_part), float(x_part), float(y_part)))
        except ValueError:
            raise ValueError(f"{key}: expected 'frame:x,y; ...', got {part!r}") from None
    if not points:
        raise ValueError(f"{key}: no waypoints given")
    return tuple(points)


def _parse_value(key: str, type_, raw: str):
    try:
        return _CONVERTERS[type_](raw)
    except ValueError:
        raise ValueError(f"{key}: cannot parse {raw!r}") from None


def _build_group(kind: str, index: int, cls, attrs: dict[str, str]):
    """One ``kind.index.*`` group as a ``cls``; a field with a default is optional."""
    by_attr = {f.metadata.get("key", f.name): f for f in fields(cls)}
    for attr in attrs:
        if attr not in by_attr:
            raise ValueError(f"unknown scenario key: {kind}.{index}.{attr}")
    values = {}
    for attr, f in by_attr.items():
        key = f"{kind}.{index}.{attr}"
        if f.name == "waypoints":
            values[f.name] = _parse_waypoints(attrs.get(attr, ""), key)
        elif attr in attrs:
            values[f.name] = _parse_value(key, f.type, attrs[attr])
        elif f.default is MISSING:
            raise ValueError(f"{key} is required")
    return cls(**values)


def parse_scenario(text: str) -> ScenarioSpec:
    """Build a spec from `key = value` text (see the bundled .scn files)."""
    scalar_types = {f.name: f.type for f in fields(ScenarioSpec) if f.type in _CONVERTERS}
    values = {}
    groups: dict[str, dict[int, dict[str, str]]] = {kind: {} for kind in SPEC_GROUPS}
    for key, raw in parse_kv_text(text).items():
        parts = key.split(".")
        if key in scalar_types:
            values[key] = _parse_value(key, scalar_types[key], raw)
        elif len(parts) == 3 and parts[0] in groups:
            kind, index_part, attr = parts
            try:
                index = int(index_part)
            except ValueError:
                raise ValueError(f"{key}: index must be an integer") from None
            groups[kind].setdefault(index, {})[attr] = raw
        else:
            raise ValueError(f"unknown scenario key: {key}")
    for kind, (name, cls) in SPEC_GROUPS.items():
        if groups[kind]:
            values[name] = tuple(_build_group(kind, index, cls, attrs)
                                 for index, attrs in sorted(groups[kind].items()))
    return ScenarioSpec(**values)
