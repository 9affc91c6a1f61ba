"""Command-line entry point: ``track``, ``eval``, and ``generate``.

Exit codes: 0 on success, 1 for input/output problems (missing or malformed
files), 2 for configuration problems. Only documented summary lines go to
stdout; everything else goes to stderr.
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .core import TrackerConfig, config_from_mapping, parse_kv_text, validate_config
from .io_mot import (frame_image_name, histogram_from_patch, parse_det_file,
                     parse_embedding_file, parse_gt_file, read_ppm,
                     write_embedding_file, write_mot_rows, write_ppm,
                     write_result_file)
from .metrics import evaluate
from .synthgen import generate, parse_scenario
from .tracker import run_sequence


class _ConfigError(ValueError):
    """Problem with configuration or scenario values; exits 2.

    Every other ValueError, and a RuntimeError, is an input/output problem
    and exits 1.
    """


def _load(path: str, parse, error: type[ValueError] = ValueError):
    """``parse`` of the text of the file at ``path``.

    A file that cannot be read exits 1; one that cannot be decoded or parsed
    raises ``error`` (exit 1, or 2 for ``_ConfigError``) prefixed by the path.
    """
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise error(f"{path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _load_config(args) -> TrackerConfig:
    cfg = TrackerConfig()
    if args.config:
        cfg = _load(args.config, lambda text: config_from_mapping(parse_kv_text(text)),
                    _ConfigError)
    for item in args.set or ():
        if "=" not in item:
            raise _ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            cfg = config_from_mapping({key.strip(): value.strip()}, cfg)
        except ValueError as exc:
            raise _ConfigError(str(exc)) from None
    if args.ham:
        cfg = dataclasses.replace(cfg, use_ham=(args.ham == "on"))
    if args.filter:
        cfg = dataclasses.replace(cfg, filter_mode=args.filter)
    problems = validate_config(cfg)
    if problems:
        raise _ConfigError("; ".join(problems))
    return cfg


def _descriptor_source(mode: str, args, dets_by_frame):
    if mode == "none":
        return None
    if mode == "embed":
        if not args.embeddings:
            raise _ConfigError("--appearance embed requires --embeddings")
        table = _load(args.embeddings, parse_embedding_file)

        def from_table(frame: int, ordinal: int):
            try:
                return table[(frame, ordinal)]
            except KeyError:
                raise ValueError(f"no embedding for frame {frame}, "
                                 f"ordinal {ordinal}") from None

        return from_table
    if not args.frames_dir:
        raise _ConfigError("--appearance hist requires --frames-dir")
    frames_dir = Path(args.frames_dir)
    cache: dict[int, object] = {}

    def from_frames(frame: int, ordinal: int):
        if frame not in cache:
            cache.clear()
            path = frames_dir / frame_image_name(frame)
            try:
                cache[frame] = read_ppm(path.read_bytes())
            except OSError as exc:
                raise ValueError(f"cannot read frame image {path}: {exc}") from None
        det = dets_by_frame[frame][ordinal]
        return histogram_from_patch(cache[frame], det.bbox)

    return from_frames


def _trace_csv(results) -> str:
    lines = ["frame,tau_sa,tau_t,n_raw,n_kept,n_tracks,gated_pairs,"
             "appearance_evals,births,deaths"]
    for fr in results:
        d = fr.diagnostics
        tau_sa = f"{d.tau_sa:.4f}" if d.tau_sa is not None else ""
        tau_t = f"{d.tau_t:.4f}" if d.tau_t is not None else ""
        lines.append(f"{fr.frame},{tau_sa},{tau_t},{d.n_raw},{d.n_kept},"
                     f"{d.n_tracks},{d.gated_pairs},{d.appearance_evals},"
                     f"{d.births},{d.deaths}")
    return "".join(line + "\n" for line in lines)


def cmd_track(args) -> int:
    cfg = _load_config(args)
    mode = args.appearance
    if mode is None:
        mode = "embed" if args.embeddings else ("hist" if args.frames_dir else "none")
    dets_by_frame = _load(args.det, parse_det_file)
    source = _descriptor_source(mode, args, dets_by_frame)
    started = time.perf_counter()
    results = run_sequence(dets_by_frame, cfg, descriptor_source=source,
                           use_appearance=(mode != "none"))
    duration = time.perf_counter() - started
    _write_text(args.out, write_result_file(results))
    if args.trace:
        _write_text(args.trace, _trace_csv(results))
    totals = {
        "frames": len(results),
        "boxes": sum(len(fr.tracks) for fr in results),
        "births": sum(fr.diagnostics.births for fr in results),
        "deaths": sum(fr.diagnostics.deaths for fr in results),
        "detections_raw": sum(fr.diagnostics.n_raw for fr in results),
        "detections_kept": sum(fr.diagnostics.n_kept for fr in results),
        "gated_pairs": sum(fr.diagnostics.gated_pairs for fr in results),
        "appearance_evals": sum(fr.diagnostics.appearance_evals for fr in results),
    }
    # The config snapshot is what ran (file values plus flag overrides), so
    # the run can be reproduced from its manifest alone.
    manifest = {
        "sequence": args.name or Path(args.det).resolve().parent.name,
        "inputs": {
            "det": str(args.det),
            "embeddings": str(args.embeddings) if args.embeddings else None,
            "frames_dir": str(args.frames_dir) if args.frames_dir else None,
            "config": str(args.config) if args.config else None,
        },
        "appearance": mode,
        "config": dataclasses.asdict(cfg),
        "outputs": {"result": str(args.out),
                    "trace": str(args.trace) if args.trace else None},
        "duration_sec": round(duration, 6),
        "totals": totals,
    }
    manifest_path = args.manifest or (str(args.out) + ".manifest.json")
    _write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"tracked {totals['frames']} frames -> {args.out} "
          f"({totals['boxes']} boxes, {duration:.2f}s)", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    if not 0.0 <= args.iou <= 1.0:
        raise _ConfigError(f"--iou must be in [0, 1], got {args.iou}")
    gt = _load(args.gt, parse_gt_file)
    hyp = _load(args.result, parse_gt_file)
    print(evaluate(gt, hyp, args.iou).summary_csv())
    return 0


def cmd_generate(args) -> int:
    def parse_and_generate(text: str):
        spec = parse_scenario(text)
        return spec, generate(spec, with_frames=args.frames)

    spec, scenario = _load(args.spec, parse_and_generate, _ConfigError)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create {out_dir}: {exc}") from None
    _write_text(str(out_dir / "gt.txt"), write_mot_rows(scenario.gt_rows))
    _write_text(str(out_dir / "det.txt"), write_mot_rows(scenario.det_rows))
    _write_text(str(out_dir / "embeddings.csv"),
                write_embedding_file(spec.embed_dim, scenario.embeddings))
    if args.frames:
        frames_dir = out_dir / "frames"
        frames_dir.mkdir(exist_ok=True)
        for frame, image in scenario.frames.items():
            try:
                (frames_dir / frame_image_name(frame)).write_bytes(write_ppm(image))
            except OSError as exc:
                raise ValueError(f"cannot write frame {frame}: {exc}") from None
    print(f"generated {len(scenario.gt_rows)} gt rows, {len(scenario.det_rows)} "
          f"det rows -> {out_dir}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamtrack",
        description="Online multi-object tracking with historical appearance "
                    "matching and scene-adaptive detection filtering.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the tracker over a detection file")
    p_track.add_argument("--det", required=True, help="MOT detection file")
    p_track.add_argument("--out", required=True, help="result file to write")
    p_track.add_argument("--config", help="key=value config file")
    p_track.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override one config value (repeatable)")
    p_track.add_argument("--appearance", choices=("hist", "embed", "none"),
                         help="appearance source (default: inferred from inputs)")
    p_track.add_argument("--embeddings", help="embedding file (dim= header + CSV)")
    p_track.add_argument("--frames-dir", help="directory of %%06d.ppm frame images")
    p_track.add_argument("--ham", choices=("on", "off"),
                         help="score appearance against history (default on)")
    p_track.add_argument("--filter", choices=("sadf", "const", "none"),
                         help="detection confidence filtering mode")
    p_track.add_argument("--trace", help="write per-frame diagnostics CSV here")
    p_track.add_argument("--manifest", help="manifest path (default <out>.manifest.json)")
    p_track.add_argument("--name", help="sequence name recorded in the manifest")
    p_track.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("eval", help="score a result file against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth file")
    p_eval.add_argument("--result", required=True, help="tracker result file")
    p_eval.add_argument("--iou", type=float, default=0.5, help="match IoU threshold")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("generate", help="write a synthetic scenario to a directory")
    p_gen.add_argument("--spec", required=True, help="scenario spec file")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--frames", action="store_true", help="also write PPM frames")
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
