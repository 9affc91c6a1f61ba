"""Core value types and configuration shared by every tracker component.

Coordinates follow image convention: x grows right, y grows down. Boxes are
(left, top, width, height) in real-valued pixels. All types here are frozen
value objects and safe to share across threads.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

HISTOGRAM = "histogram"
EMBEDDING = "embedding"

_NORM_TOL = 1e-9

# The least noise ratio whose square, the variance it adds, is 16 times the least normal double.
LEAST_NOISE = 2.0 ** -509


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with strictly positive size and area."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"bbox field {name} is not finite: {v!r}")
            object.__setattr__(self, name, v)
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"bbox size must be positive, got w={self.w}, h={self.h}")
        if self.w * self.h == 0:
            raise ValueError(f"bbox area underflows to 0: w={self.w}, h={self.h}")

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    def center(self) -> tuple[float, float]:
        return (self.cx, self.cy)


def unchecked(cls, **values):
    """A frozen dataclass ``cls`` holding ``values`` without its ``__post_init__``.

    Only for values that already passed the same checks, column by column.
    Fields are set as ``__init__`` sets them: an instance ``__dict__`` would
    take about twice the memory.
    """
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def box_columns(boxes: Sequence[BBox] | np.ndarray) -> np.ndarray:
    """x, y, w and h of ``BBox`` objects, or of an (m, 4) array of x, y, w, h rows (a view, not
    a copy), as four rows; a centre is then ``x + w / 2.0``, as ``cx``."""
    if isinstance(boxes, np.ndarray):
        return boxes.reshape(-1, 4).T
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes]).reshape(-1, 4).T


@dataclass(frozen=True)
class AppearanceDescriptor:
    """Fixed-length appearance vector.

    Two kinds are supported: ``histogram`` (nonnegative bins summing to one)
    and ``embedding`` (unit L2 norm). Construction rejects vectors that do not
    already satisfy the invariant; use the ``histogram``/``embedding``
    classmethods with ``normalize=True`` to normalize explicitly. Raw,
    unnormalized data is never stored.
    """

    kind: str
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("descriptor must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("descriptor contains non-finite values")
        if self.kind == HISTOGRAM:
            if np.any(arr < 0):
                raise ValueError("histogram bins must be nonnegative")
            if abs(float(arr.sum()) - 1.0) > _NORM_TOL:
                raise ValueError("histogram does not sum to 1; pass normalize=True to rescale")
        elif self.kind == EMBEDDING:
            if abs(float(np.linalg.norm(arr)) - 1.0) > _NORM_TOL:
                raise ValueError("embedding is not unit length; pass normalize=True to rescale")
        else:
            raise ValueError(f"unknown descriptor kind: {self.kind!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def histogram(cls, values, normalize: bool = False) -> "AppearanceDescriptor":
        arr = np.asarray(values, dtype=float)
        if normalize:
            if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError("cannot normalize: bins must be finite and nonnegative")
            total = float(arr.sum())
            if total <= 0:
                raise ValueError("cannot normalize: histogram has zero mass")
            arr = arr / total
        return cls(HISTOGRAM, arr)

    @classmethod
    def embedding(cls, values, normalize: bool = False) -> "AppearanceDescriptor":
        arr = np.asarray(values, dtype=float)
        if normalize:
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(arr))
            if norm == math.inf and np.all(np.isfinite(arr)):
                raise ValueError("cannot normalize: vector norm overflows a double")
            if arr.size == 0 or not math.isfinite(norm) or norm <= 0:
                raise ValueError("cannot normalize: vector has zero or non-finite norm")
            arr = arr / norm
        return cls(EMBEDDING, arr)


@dataclass(frozen=True)
class Detection:
    """One candidate box for one frame, with its raw detector confidence.

    Confidences are kept as raw reals; different detector families emit
    different scales and the filtering stage adapts to whatever arrives.
    Only the frame and confidence are checked: ``Tracker.step`` decides what it can track.
    """

    frame: int
    bbox: BBox
    confidence: float

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not math.isfinite(self.confidence):
            raise ValueError("detection confidence must be finite")


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker parameters. Every field doubles as a config-file key.

    xi                shape affinity sensitivity (>= 0)
    eta               motion affinity sensitivity (>= 0)
    sigma_xx/_xy/_yy  entries of the 2x2 motion gating covariance (px^2),
                      must form a positive-definite matrix
    tau_asc           association gate/threshold in [0, 1]
    tau_conf          history admission threshold in [0, 1]
    hist_max          max stored historical appearances per track
    hist_window       max age (frames) of a stored appearance at update time
    tau_const         fixed detection-confidence threshold (raw detector scale)
    p_d               target quantile for the adaptive threshold, in (0, 1)
    beta              recent-vs-global mix for the adaptive threshold, [0, 1]
    rho               per-frame decay of the fixed-threshold weight, (0, 1)
    alpha_mode        histogram blend policy: "affinity" (blend weight equals
                      the match affinity) or a numeric literal for a fixed weight
    confirm_hits      consecutive matches before a track is confirmed
    max_age           consecutive misses a confirmed track survives
    process_noise     Kalman process noise std, as a fraction of object height
    measurement_noise Kalman measurement noise std, as a fraction of object height
    conf_decay        multiplicative decay of recent-match confidence per miss
    use_ham           score appearance against stored history (False = recent only)
    filter_mode       detection filtering: "sadf", "const", or "none"
    emit_predicted    also output predicted boxes for missed confirmed tracks
    """

    xi: float = 1.0
    eta: float = 0.5
    sigma_xx: float = 22500.0
    sigma_xy: float = 0.0
    sigma_yy: float = 22500.0
    tau_asc: float = 0.05
    tau_conf: float = 0.6
    hist_max: int = 10
    hist_window: int = 15
    tau_const: float = 30.0
    p_d: float = 0.4
    beta: float = 0.5
    rho: float = 0.95
    alpha_mode: str = "affinity"
    confirm_hits: int = 3
    max_age: int = 10
    process_noise: float = 0.05
    measurement_noise: float = 0.1
    conf_decay: float = 0.9
    use_ham: bool = True
    filter_mode: str = "sadf"
    emit_predicted: bool = False


FILTER_MODES = ("sadf", "const", "none")


def _alpha_mode_ok(mode: str) -> bool:
    if mode == "affinity":
        return True
    try:
        v = float(mode)
    except (TypeError, ValueError):
        return False
    return 0.0 <= v <= 1.0


def validate_config(cfg: TrackerConfig) -> list[str]:
    """Return one message per violated invariant, or only those of fields of the wrong type (a
    bool field not a bool, an int field not an integer, a float field not a real number); an
    empty list means valid."""
    kinds = {bool: ("a bool", (bool, np.bool_)), int: ("an integer", (int, np.integer)),
             float: ("a real number", (int, float, np.integer, np.floating))}
    errors = [f"{f.name} must be {kinds[f.type][0]}, got {getattr(cfg, f.name)!r}"
              for f in fields(cfg)
              if f.type in kinds and not isinstance(getattr(cfg, f.name), kinds[f.type][1])]
    if errors:
        return errors
    if not (math.isfinite(cfg.xi) and cfg.xi >= 0):
        errors.append("xi must be finite and >= 0")
    if not (math.isfinite(cfg.eta) and cfg.eta >= 0):
        errors.append("eta must be finite and >= 0")
    det = cfg.sigma_xx * cfg.sigma_yy - cfg.sigma_xy ** 2
    if not (math.isfinite(det) and cfg.sigma_xx > 0 and det > 0):
        errors.append("sigma not positive-definite")
    if not 0.0 <= cfg.tau_asc <= 1.0:
        errors.append("tau_asc out of [0,1]")
    if not 0.0 <= cfg.tau_conf <= 1.0:
        errors.append("tau_conf out of [0,1]")
    if cfg.hist_max < 0:
        errors.append("hist_max must be >= 0")
    if cfg.hist_window < 1:
        errors.append("hist_window must be >= 1")
    if not math.isfinite(cfg.tau_const):
        errors.append("tau_const must be finite")
    if not 0.0 < cfg.p_d < 1.0:
        errors.append("p_d out of (0,1)")
    if not 0.0 <= cfg.beta <= 1.0:
        errors.append("beta out of [0,1]")
    if not 0.0 < cfg.rho < 1.0:
        errors.append("rho out of (0,1)")
    if not _alpha_mode_ok(cfg.alpha_mode):
        errors.append('alpha_mode must be "affinity" or a number in [0,1]')
    if cfg.confirm_hits < 1:
        errors.append("confirm_hits must be >= 1")
    if cfg.max_age < 1:
        errors.append("max_age must be >= 1")
    if not (math.isfinite(cfg.process_noise) and cfg.process_noise >= 0):
        errors.append("process_noise must be >= 0")
    if not (math.isfinite(cfg.measurement_noise) and cfg.measurement_noise >= 0):
        errors.append("measurement_noise must be >= 0")
    elif cfg.measurement_noise == 0 and 0 < cfg.process_noise < LEAST_NOISE:
        errors.append(f"measurement_noise = 0 needs process_noise = 0 or >= {LEAST_NOISE!r}")
    if not 0.0 <= cfg.conf_decay <= 1.0:
        errors.append("conf_decay out of [0,1]")
    if cfg.filter_mode not in FILTER_MODES:
        errors.append(f"filter_mode must be one of {FILTER_MODES}")
    int64 = np.iinfo(np.int64)  # the tracker's counters and history columns
    errors += [f"{f.name} must fit in a 64-bit integer" for f in fields(cfg)
               if f.type is int and not int64.min <= getattr(cfg, f.name) <= int64.max]
    return errors


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; `#` starts a comment; later keys win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, typ: type, raw: str):
    if typ is bool:
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ValueError(f"config key {key}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise ValueError(f"config key {key}: cannot parse {raw!r} as {typ.__name__}") from None


def config_from_mapping(mapping: dict[str, str],
                        base: Optional[TrackerConfig] = None) -> TrackerConfig:
    """Apply string key/value overrides on top of ``base`` (or the defaults)."""
    cfg = base if base is not None else TrackerConfig()
    known = {f.name: f.type for f in fields(TrackerConfig)}
    updates = {}
    for key, raw in mapping.items():
        if key not in known:
            raise ValueError(f"unknown config key: {key}")
        updates[key] = _coerce(key, known[key], raw)
    return replace(cfg, **updates)
