"""MOTChallenge-style file I/O, PPM frame decoding, and patch histograms.

Detection and result files are 10-field CSV rows:
``frame,id,x,y,w,h,conf,-1,-1,-1`` with ``id == -1`` for raw detections.
Ground-truth files may carry extra trailing columns (class, visibility);
only the first seven fields are read and rows whose seventh field is 0 are
skipped, matching the usual consider-flag semantics.

Frame images are binary PPM (P6, 8-bit) named ``%06d.ppm``; anything else
must be converted upstream. Embedding files start with a ``dim=<k>`` header
followed by ``frame,ordinal,v1,...,vk`` rows, where ``ordinal`` is the
detection's position within its frame in the detection file.
"""

import math
from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from .core import AppearanceDescriptor, BBox, Detection

HIST_BINS_PER_CHANNEL = 8
HIST_SIZE = HIST_BINS_PER_CHANNEL ** 3


def _split_row(line: str, lineno: int) -> list[str]:
    parts = [p.strip() for p in line.split(",")]
    if any(p == "" for p in parts):
        raise ValueError(f"line {lineno}: empty field in {line!r}")
    return parts


def _parse_float(value: str, lineno: int, what: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise ValueError(f"line {lineno}: bad {what}: {value!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"line {lineno}: non-finite {what}: {value!r}")
    return v


def _parse_frame(value: str, lineno: int) -> int:
    frame = int(_parse_float(value, lineno, "frame"))
    if frame < 1:
        raise ValueError(f"line {lineno}: frame must be >= 1, got {frame}")
    return frame


def parse_det_file(text: str) -> dict[int, list[Detection]]:
    """Detections grouped by frame; within-frame file order is preserved."""
    grouped: dict[int, list[Detection]] = defaultdict(list)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = _split_row(line, lineno)
        if len(parts) != 10:
            raise ValueError(f"line {lineno}: expected 10 fields, got {len(parts)}")
        frame = _parse_frame(parts[0], lineno)
        x = _parse_float(parts[2], lineno, "x")
        y = _parse_float(parts[3], lineno, "y")
        w = _parse_float(parts[4], lineno, "w")
        h = _parse_float(parts[5], lineno, "h")
        conf = _parse_float(parts[6], lineno, "confidence")
        try:
            det = Detection(frame=frame, bbox=BBox(x, y, w, h), confidence=conf)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        grouped[frame].append(det)
    return dict(sorted(grouped.items()))


def parse_gt_file(text: str) -> dict[int, list[tuple[int, BBox]]]:
    """(id, box) pairs by frame from a ground-truth or result file.

    Accepts seven or more fields; extras are ignored. Rows flagged 0 in the
    seventh field are skipped.
    """
    grouped: dict[int, list[tuple[int, BBox]]] = defaultdict(list)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = _split_row(line, lineno)
        if len(parts) < 7:
            raise ValueError(f"line {lineno}: expected at least 7 fields, got {len(parts)}")
        frame = _parse_frame(parts[0], lineno)
        obj_id = int(_parse_float(parts[1], lineno, "id"))
        x = _parse_float(parts[2], lineno, "x")
        y = _parse_float(parts[3], lineno, "y")
        w = _parse_float(parts[4], lineno, "w")
        h = _parse_float(parts[5], lineno, "h")
        flag = _parse_float(parts[6], lineno, "flag")
        if flag == 0:
            continue
        try:
            bbox = BBox(x, y, w, h)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        grouped[frame].append((obj_id, bbox))
    return dict(sorted(grouped.items()))


def write_result_file(frame_results) -> str:
    """Result rows ``frame,id,x,y,w,h,1,-1,-1,-1`` sorted by (frame, id)."""
    rows = []
    for fr in frame_results:
        for track_id, box in fr.tracks:
            rows.append((fr.frame, track_id, box))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [
        f"{frame},{track_id},{b.x:.2f},{b.y:.2f},{b.w:.2f},{b.h:.2f},1,-1,-1,-1"
        for frame, track_id, b in rows
    ]
    return "".join(line + "\n" for line in lines)


def write_mot_rows(rows: Iterable[tuple[int, int, BBox, float]]) -> str:
    """Generic 10-field rows (frame, id, box, conf), in the given order."""
    lines = []
    for frame, obj_id, b, conf in rows:
        lines.append(f"{frame},{obj_id},{b.x:.2f},{b.y:.2f},{b.w:.2f},{b.h:.2f},"
                     f"{conf:.4f},-1,-1,-1")
    return "".join(line + "\n" for line in lines)


def read_ppm(data: bytes) -> np.ndarray:
    """Decode a binary P6 PPM (8-bit) into an (h, w, 3) uint8 array."""
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos:pos + 1].isspace():
                pos += 1
            elif data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PPM header")
        return data[start:pos]

    if next_token() != b"P6":
        raise ValueError("not a binary PPM (P6) image")
    width = int(next_token())
    height = int(next_token())
    maxval = int(next_token())
    if maxval != 255:
        raise ValueError(f"only 8-bit PPM supported, got maxval {maxval}")
    pos += 1  # single whitespace after maxval
    expected = width * height * 3
    raster = data[pos:pos + expected]
    if len(raster) != expected:
        raise ValueError(f"truncated PPM raster: expected {expected} bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)


def write_ppm(image: np.ndarray) -> bytes:
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) image, got {img.shape}")
    h, w = img.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()


def histogram_from_patch(image: np.ndarray, bbox: BBox) -> AppearanceDescriptor:
    """8x8x8 joint RGB histogram over the box, clipped to the image."""
    height, width = image.shape[:2]
    x0 = max(0, int(math.floor(bbox.x)))
    y0 = max(0, int(math.floor(bbox.y)))
    x1 = min(width, int(math.ceil(bbox.x + bbox.w)))
    y1 = min(height, int(math.ceil(bbox.y + bbox.h)))
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"bbox {bbox} does not intersect a {width}x{height} image")
    patch = image[y0:y1, x0:x1].astype(np.int64)
    idx = (patch[..., 0] >> 5) * 64 + (patch[..., 1] >> 5) * 8 + (patch[..., 2] >> 5)
    counts = np.bincount(idx.ravel(), minlength=HIST_SIZE).astype(float)
    return AppearanceDescriptor.histogram(counts, normalize=True)


def frame_image_name(frame: int) -> str:
    return f"{frame:06d}.ppm"


def parse_embedding_file(text: str) -> dict[tuple[int, int], AppearanceDescriptor]:
    """Load per-detection embeddings keyed by (frame, within-frame ordinal)."""
    lines = text.splitlines()
    header_at = None
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            header_at = lineno
            break
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
    table: dict[tuple[int, int], AppearanceDescriptor] = {}
    for lineno, raw in enumerate(lines[header_at:], start=header_at + 1):
        line = raw.strip()
        if not line:
            continue
        parts = _split_row(line, lineno)
        if len(parts) != 2 + dim:
            raise ValueError(
                f"line {lineno}: expected {2 + dim} fields for dim={dim}, got {len(parts)}")
        frame = _parse_frame(parts[0], lineno)
        ordinal = int(_parse_float(parts[1], lineno, "ordinal"))
        if ordinal < 0:
            raise ValueError(f"line {lineno}: ordinal must be >= 0")
        key = (frame, ordinal)
        if key in table:
            raise ValueError(f"line {lineno}: duplicate embedding for frame {frame}, "
                             f"ordinal {ordinal}")
        vec = [_parse_float(p, lineno, "component") for p in parts[2:]]
        try:
            table[key] = AppearanceDescriptor.embedding(vec, normalize=True)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return table


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
