"""MOTChallenge-style file I/O, PPM frame decoding, and patch histograms.

Detection and result files are 10-field CSV rows:
``frame,id,x,y,w,h,conf,-1,-1,-1`` with ``id == -1`` for raw detections.
Ground-truth files may carry extra trailing columns (class, visibility);
only the first seven fields are read and rows whose seventh field is 0 are
skipped, matching the usual consider-flag semantics. Each parser reads its
file as one block of floats and checks it column by column; only a file that
fails a check is read again row by row, for the message naming its line.

Frame images are binary PPM (P6, 8-bit) named ``%06d.ppm``; anything else
must be converted upstream. Embedding files start with a ``dim=<k>`` header
followed by ``frame,ordinal,v1,...,vk`` rows, where ``ordinal`` is the
detection's position within its frame in the detection file.
"""

import math
import re
from collections import defaultdict
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import _NORM_TOL, AppearanceDescriptor, BBox, Detection, unchecked

HIST_BINS_PER_CHANNEL = 8
HIST_SIZE = HIST_BINS_PER_CHANNEL ** 3

# Highest frame a detection file may name: tracking steps every frame up to
# the last, ~0.45 ms per empty frame on 2 CPUs, so a run steps for at most
# ~45 s. That is 55 minutes of 30 fps video; MOT sequences have thousands.
MAX_FRAME = 100_000


def _float(value: str, what: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise ValueError(f"bad {what}: {value!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"non-finite {what}: {value!r}")
    return v


def _whole(value: str, what: str) -> int:
    """A whole number written in any float notation: ``3``, ``3.0`` and ``3e0`` alike."""
    v = _float(value, what)
    if not v.is_integer():
        raise ValueError(f"{what} is not a whole number: {value!r}")
    return int(v)


def _frame(value: str) -> int:
    frame = _whole(value, "frame")
    if frame < 1:
        raise ValueError(f"frame must be >= 1, got {frame}")
    return frame


def _frame_box(parts: list[str], with_id: bool = False):
    """``(frame, id, x, y, w, h)`` from fields 0-5; the id is None unless ``with_id``."""
    frame = _frame(parts[0])
    obj_id = _whole(parts[1], "id") if with_id else None
    return (frame, obj_id, _float(parts[2], "x"), _float(parts[3], "y"),
            _float(parts[4], "w"), _float(parts[5], "h"))


def _read_rows(lines: Sequence[str], add_row: Callable[[list[str]], None],
               n_fields: int, at_least: bool = False, note: str = "",
               start: int = 1) -> None:
    """Pass the stripped fields of every non-blank line to ``add_row``.

    Lines are numbered from ``start``; a field-count mismatch, an empty field
    or any ValueError from ``add_row`` is raised again as ``line N: ...``.
    """
    for lineno, raw in enumerate(lines, start):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            if "" in parts:
                raise ValueError(f"empty field in {line!r}")
            if len(parts) != n_fields and not (at_least and len(parts) > n_fields):
                raise ValueError(f"expected {'at least ' if at_least else ''}{n_fields} "
                                 f"fields{note}, got {len(parts)}")
            add_row(parts)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None


def _floats(rows: Iterable[Sequence[str]], width: int) -> Optional[np.ndarray]:
    """The fields of ``rows`` as one float array of ``width`` columns, or None when a row or
    ``float`` raises ValueError, for a fault that only ``_read_rows`` can name."""
    try:  # streamed: neither the split rows nor the parsed floats are held as lists
        return np.fromiter(map(float, chain.from_iterable(rows)), float).reshape(-1, width)
    except ValueError:
        return None


def _block(lines: Sequence[str], n_fields: int, at_least: bool = False) -> Optional[np.ndarray]:
    """The first ``n_fields`` fields of the non-blank lines as one float array, or None."""
    def fields(raw: str) -> list[str]:
        parts = raw.split(",")
        if len(parts) != n_fields and not (at_least and len(parts) > n_fields
                                           and all(map(str.strip, parts[n_fields:]))):
            raise ValueError("the row parser names this line")
        return parts[:n_fields]

    return _floats(map(fields, filter(str.strip, lines)), n_fields)


def _whole_in(col: np.ndarray, low: float, high: float = math.inf) -> np.ndarray:
    """Which values are whole numbers in [low, high]."""
    return np.isfinite(col) & (col >= low) & (col <= high) & (col == np.floor(col))


@np.errstate(over="ignore", invalid="ignore")
def _boxes(x, y, w, h) -> np.ndarray:
    """Which rows ``BBox`` accepts."""
    return np.isfinite([x, y, w, h]).all(axis=0) & (w > 0) & (h > 0) & (w * h != 0)


def _grouped(pairs: Iterable[tuple[int, object]]) -> dict[int, list]:
    """The items of ``(frame, item)`` pairs as lists by ascending frame, in the given order."""
    grouped = defaultdict(list)
    for frame, item in pairs:
        grouped[frame].append(item)
    return dict(sorted(grouped.items()))


def parse_det_file(text: str) -> dict[int, list[Detection]]:
    """Detections grouped by frame; within-frame file order is preserved. Only the format is
    checked: whole frames in [1, ``MAX_FRAME``], the ``BBox`` rules and a finite confidence."""
    def numbers(raw: str) -> list[str]:  # frame, box and conf; the rest need only not be blank
        parts = raw.split(",")
        if len(parts) != 10 or not all(map(str.strip, parts)):
            raise ValueError("the row parser names this line")
        return [parts[0], *parts[2:7]]

    lines = text.splitlines()
    block = _floats(map(numbers, filter(str.strip, lines)), 6)
    if block is not None:
        frame, x, y, w, h, conf = columns = block.T  # views, not copies
        ok = _whole_in(frame, 1, MAX_FRAME) & _boxes(x, y, w, h) & np.isfinite(conf)
        if ok.all():  # by columns: a list per row would hold every field at once
            return _grouped((int(f), unchecked(Detection, frame=int(f), confidence=c,
                                               bbox=unchecked(BBox, x=x, y=y, w=w, h=h)))
                            for f, x, y, w, h, c in zip(*columns.tolist()))
    pairs: list[tuple[int, Detection]] = []

    def add_row(parts: list[str]) -> None:
        frame, _, x, y, w, h = _frame_box(parts)
        if frame > MAX_FRAME:
            raise ValueError(f"frame {frame} is above the highest trackable frame, {MAX_FRAME}")
        conf = _float(parts[6], "confidence")
        pairs.append((frame, Detection(frame=frame, bbox=BBox(x, y, w, h), confidence=conf)))

    _read_rows(lines, add_row, 10)
    return _grouped(pairs)


def parse_gt_file(text: str) -> dict[int, list[tuple[int, BBox]]]:
    """(id, box) pairs by frame from a ground-truth or result file.

    Accepts seven or more fields; extras are ignored. Rows flagged 0 in the
    seventh field are skipped.
    """
    lines = text.splitlines()
    block = _block(lines, 7, at_least=True)
    if block is not None:
        frame, obj_id, x, y, w, h, flag = block.T
        if (np.isfinite(block).all() and _whole_in(frame, 1).all()
                and _whole_in(obj_id, -math.inf).all() and _boxes(x, y, w, h)[flag != 0].all()):
            kept = block[flag != 0, :6].T.tolist()
            return _grouped((int(f), (int(i), unchecked(BBox, x=x, y=y, w=w, h=h)))
                            for f, i, x, y, w, h in zip(*kept))
    pairs: list[tuple[int, tuple[int, BBox]]] = []

    def add_row(parts: list[str]) -> None:
        frame, obj_id, x, y, w, h = _frame_box(parts, with_id=True)
        if _float(parts[6], "flag") != 0:
            pairs.append((frame, (obj_id, BBox(x, y, w, h))))

    _read_rows(lines, add_row, 7, at_least=True)
    return _grouped(pairs)


def _mot_line(frame: int, obj_id: int, b: BBox, conf_text: str) -> str:
    return f"{frame},{obj_id},{b.x:.2f},{b.y:.2f},{b.w:.2f},{b.h:.2f},{conf_text},-1,-1,-1\n"


def write_result_file(frame_results) -> str:
    """Result rows ``frame,id,x,y,w,h,1,-1,-1,-1`` sorted by (frame, id)."""
    rows = sorted(((fr.frame, track_id, box) for fr in frame_results
                   for track_id, box in fr.tracks), key=lambda r: (r[0], r[1]))
    return "".join(_mot_line(frame, track_id, b, "1") for frame, track_id, b in rows)


def write_mot_rows(rows: Iterable[tuple[int, int, BBox, float]]) -> str:
    """Generic 10-field rows (frame, id, box, conf), in the given order."""
    return "".join(_mot_line(frame, obj_id, b, f"{conf:.4f}") for frame, obj_id, b, conf in rows)


# One PPM header token, after any whitespace and ``#`` comments (each to the end of its line).
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def read_ppm(data: bytes) -> np.ndarray:
    """Decode a binary P6 PPM (8-bit) into an (h, w, 3) uint8 array."""
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        match = _PPM_TOKEN.match(data, pos)
        pos = match.end()
        if not match[1]:
            raise ValueError("truncated PPM header")
        return match[1]

    if next_token() != b"P6":
        raise ValueError("not a binary PPM (P6) image")
    fields = {name: next_token() for name in ("width", "height", "maxval")}
    for name, token in fields.items():
        if not token.isdigit() or int(token) == 0:
            shown = token.decode(errors="replace")
            raise ValueError(f"PPM {name} must be a positive integer, got {shown!r}")
    width, height, maxval = (int(token) for token in fields.values())
    if maxval != 255:
        raise ValueError(f"only 8-bit PPM supported, got maxval {maxval}")
    pos += 1  # single whitespace after maxval
    expected = width * height * 3
    got = max(0, min(expected, len(data) - pos))
    if got != expected:
        raise ValueError(f"truncated PPM raster: expected {expected} bytes, got {got}")
    return np.frombuffer(data, np.uint8, expected, pos).reshape(height, width, 3)  # no copy


def write_ppm(image: np.ndarray) -> bytes:
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) image, got {img.shape}")
    h, w = img.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()


def histogram_from_patch(image: np.ndarray, boxes: Sequence[BBox]) -> np.ndarray:
    """8x8x8 joint RGB histograms over the boxes, clipped to the image: (k, 512) rows.

    One bincount over every box's pixel bins, offset by 512 per box. Each row
    is divided by its own pixel count, a whole-number sum that is exact in
    any order, so a row holds the bits of a single box's histogram.
    """
    height, width = image.shape[:2]
    patches = [np.zeros((0, 3), np.uint8)]  # so that no boxes concatenate too
    for b in boxes:  # an x + w past the largest double clips to the edge
        x0, y0 = max(0, math.floor(b.x)), max(0, math.floor(b.y))
        x1, y1 = math.ceil(min(b.x + b.w, width)), math.ceil(min(b.y + b.h, height))
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"bbox {b} does not intersect a {width}x{height} image")
        patches.append(image[y0:y1, x0:x1].reshape(-1, 3))
    q = (np.concatenate(patches) >> 5).astype(np.intp)
    bins = q[:, 0] * 64 + q[:, 1] * 8 + q[:, 2]
    bins += np.repeat(np.arange(len(boxes)) * HIST_SIZE, [len(p) for p in patches[1:]])
    counts = np.bincount(bins, minlength=len(boxes) * HIST_SIZE).reshape(-1, HIST_SIZE)
    rows = counts / counts.sum(axis=1, keepdims=True)
    # The invariant of a histogram descriptor: finite, nonnegative, summing to one.
    if not (rows.min(initial=0.0) >= 0.0 and np.all(abs(rows.sum(axis=1) - 1.0) <= _NORM_TOL)):
        raise ValueError("patch histograms must be finite, nonnegative and sum to 1")
    return rows


def frame_image_name(frame: int) -> str:
    return f"{frame:06d}.ppm"


def parse_embedding_rows(text: str) -> tuple[dict[tuple[int, int], int], np.ndarray]:
    """Per-detection embeddings as (rows, d) unit rows, and the row of each (frame, ordinal)."""
    lines = text.splitlines()
    header_at = next((n for n, raw in enumerate(lines, start=1) if raw.strip()), None)
    if header_at is None:
        raise ValueError("empty embedding file")
    header = lines[header_at - 1].strip()
    if not header.startswith("dim="):
        raise ValueError(f"line {header_at}: expected 'dim=<k>' header, got {header!r}")
    try:
        dim = int(header[4:])
    except ValueError:
        raise ValueError(f"line {header_at}: bad dimension in header {header!r}") from None
    if dim < 1:
        raise ValueError(f"line {header_at}: dimension must be >= 1")
    block = _block(lines[header_at:], 2 + dim)
    if block is not None:
        frame, ordinal, vectors = block[:, 0], block[:, 1], block[:, 2:]
        # np.vecdot gives a row the bits np.linalg.norm's dot gives it. A zero,
        # overflowing or non-finite norm leaves a row that is not unit length.
        with np.errstate(all="ignore"):
            units = vectors / np.sqrt(np.vecdot(vectors, vectors))[:, None]
            unit = abs(np.sqrt(np.vecdot(units, units)) - 1.0) <= _NORM_TOL
        if (unit & _whole_in(frame, 1) & _whole_in(ordinal, 0)).all():
            index = {(int(f), int(o)): n for n, (f, o) in enumerate(zip(*block[:, :2].T.tolist()))}
            if len(index) == len(block):  # no duplicate key
                return index, units
    table: dict[tuple[int, int], AppearanceDescriptor] = {}

    def add_row(parts: list[str]) -> None:
        frame = _frame(parts[0])
        ordinal = _whole(parts[1], "ordinal")
        if ordinal < 0:
            raise ValueError("ordinal must be >= 0")
        if (frame, ordinal) in table:
            raise ValueError(f"duplicate embedding for frame {frame}, ordinal {ordinal}")
        vec = [_float(p, "component") for p in parts[2:]]
        table[(frame, ordinal)] = AppearanceDescriptor.embedding(vec, normalize=True)

    _read_rows(lines[header_at:], add_row, 2 + dim, note=f" for dim={dim}",
               start=header_at + 1)
    return ({key: n for n, key in enumerate(table)},
            np.array([x.values for x in table.values()]).reshape(len(table), dim))


def write_embedding_file(dim: int,
                         items: Iterable[tuple[int, int, Sequence[float]]]) -> str:
    lines = [f"dim={dim}"]
    for frame, ordinal, vec in items:
        if len(vec) != dim:
            raise ValueError(f"vector for frame {frame} ordinal {ordinal} has length "
                             f"{len(vec)}, expected {dim}")
        joined = ",".join(f"{float(v):.8f}" for v in vec)
        lines.append(f"{frame},{ordinal},{joined}")
    return "".join(line + "\n" for line in lines)
