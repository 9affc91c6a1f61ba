"""hamtrack benchmark: one workload, one seed, closed loop, one process.

    python3 perfbench/run.py --workload crowd_embed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the program is imported from ``src/``. The
seed makes the workload's inputs (``workloads.py``). Every reported time is
calibrated against the host's speed at that moment (``hostclock.py``), because
a shared machine's speed drifts by up to 2x. Set-up (scenario generation and
input preparation) runs three times, between the first sequences and timed
apart from tracking, and ``setup_s`` is the median. Tracking repeats whole
sequences, one at a time and each followed by its evaluation, until
``--seconds`` have passed, at least two sequences ran and at least 200
frames were stepped. Every repeat must give byte-identical
results, unique IDs per frame and finite boxes. With ``--trace 1`` the
seconds are split between an untraced run and a run with every module
boundary wrapped (``tracing.py``); both must agree byte for byte, and the
per-module metrics come from the traced run. The last stdout line is the
result object; the line before it records the environment, sample counts,
the result digest, the probe times, wall-clock throughput and, when traced,
the step-time shares. ``--smoke`` runs
every workload at toy size and checks each result line against the
benchmark's output contract.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKDIR = HERE / ".work"
WORKLOADS = ("crowd_embed", "crowd_motion", "cli_hist_sadf")
SETUP_REPEATS = 3
MIN_FRAMES = 200
MIN_PASSES = 2
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_program():
    """Import hamtrack from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hamtrack" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'hamtrack'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import hamtrack
    if Path(hamtrack.__file__).resolve().parent != (src / "hamtrack").resolve():
        sys.exit(f"error: imported hamtrack from {hamtrack.__file__}, not {src}")


def environment(seed: int) -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
        "load": "closed loop, one process, one sequence at a time",
        "pinning": "no CPU pinning or frequency control was available",
    }


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))]


def measure(workload, clock, seconds: float, min_frames: int, min_passes: int,
            resetup=None) -> dict:
    """Track and evaluate whole sequences until the time, frame and pass floors are met.

    Every time is calibrated (``hostclock``), so the estimators are plain
    medians: throughput from the median pass, step latency over every step of
    every pass, evaluation time over every evaluation. ``resetup`` (a list of
    callables) repeats the set-up between the first passes, so set-up times
    sample the run too.
    """
    passes, evals = [], []
    resetup = list(resetup or ())
    started = last = time.perf_counter()
    cost = 0.0  # of the last iteration: no new one starts that would end past ``seconds``
    while (len(passes) < min_passes or sum(p.frames for p in passes) < min_frames
           or time.perf_counter() - started + cost <= seconds):
        passes.append(workload.track(clock))
        for _ in range(workload.evals_per_pass):
            evals.append(workload.evaluate(passes[-1], clock))
        if len(passes) > 1:
            passes[-1].results = []  # same as the first pass's; memory must not grow with the run
        if resetup:
            resetup.pop()()
        now = time.perf_counter()
        cost, last = now - last, now
    for setup in resetup:
        setup()
    problems = [p for ps in passes for p in ps.problems]
    qualities = [q for _, q in evals]
    if len({p.digest for p in passes}) != 1:
        problems.append("passes over the same inputs produced different results")
    if any(q != qualities[0] for q in qualities) or "mota" not in qualities[0]:
        problems.append(f"evaluation failed or varied: {qualities}")
    frames = passes[0].frames
    return {
        "passes": passes,
        "steps": [s for p in passes for s in p.step_seconds],
        "fps": frames / statistics.median(p.seconds for p in passes),
        "wall_fps": frames / statistics.median(p.wall for p in passes),
        "eval_s": statistics.median(t for t, _ in evals),
        "quality": qualities[0],
        "digest": passes[0].digest,
        "problems": problems,
        "attempted": sum(p.attempted for p in passes) + workload.eval_ops * len(evals),
        "failed": sum(p.failed for p in passes) + sum(1 for _, q in evals if "mota" not in q),
    }


def end_to_end(setup_times, run) -> dict:
    q = run["quality"]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "track_fps": (run["fps"], "frames/s"),
        "step_ms_p50": (statistics.median(run["steps"]) * 1e3 if run["steps"] else None, "ms"),
        # dropped when fewer than ten samples would lie beyond it
        "step_ms_p95": (percentile(run["steps"], 95) * 1e3
                        if len(run["steps"]) >= 200 else None, "ms"),
        "eval_s": (run["eval_s"], "s"),
        "mota": (q.get("mota"), "ratio"),
        "idf1": (q.get("idf1"), "ratio"),
        "idsw": (q.get("idsw"), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, run, untraced_fps) -> dict:
    """Per-module metrics from one traced measurement; None marks an absent name.

    Spans are wall time; they are rescaled by the traced passes' calibrated to
    wall time ratio, so they read in the same calibrated seconds as the
    end-to-end metrics.
    """
    host = sum(p.seconds for p in run["passes"]) / sum(p.wall for p in run["passes"])
    frames = sum(p.frames for p in run["passes"])
    n_passes = len(run["passes"])
    results = run["passes"][0].results + tracer.frame_results
    absent = tracer.absent

    def gone(*paths):
        return any(p in absent for p in paths)

    def ms(group, per, *paths, scale=1e3):
        return None if gone(*paths) else tracer.seconds[group] * host * scale / max(per, 1)

    def diag_total(attr):
        values = [getattr(r.diagnostics, attr, None) for r in results]
        return None if not values or None in values else sum(values)

    def ratio(num, den):
        return None if num is None or den is None else (num / den if den else 0.0)

    def per_frame(total):
        return None if total is None else total / max(frames, 1)

    def per_result(total):
        return None if total is None else total / max(len(results), 1)

    step = "hamtrack.tracker.Tracker.step"
    sadf = [f"hamtrack.sadf.{n}" for n in ("observe_frame", "adaptive_cutoff", "threshold")]
    store = ["hamtrack.tracker.maybe_store_history", "hamtrack.tracker.decay_confidence"]
    parse = ["hamtrack.cli.parse_det_file", "hamtrack.cli.parse_gt_file"]
    descriptor = ["hamtrack.cli.read_ppm", "hamtrack.cli.histogram_from_patch"]
    kalman = ["hamtrack.kalman.predict", "hamtrack.kalman.update"]
    compare = ["hamtrack.appearance.score_embedding", "hamtrack.appearance.score_histogram"]
    track_calls = tracer.calls["hamtrack.cli.run_sequence"]
    cli_ms = sum(p.wall + p.probed for p in run["passes"]) * 1e3 if track_calls else 0.0
    evals = tracer.calls["hamtrack.metrics.clear_mot"]
    return {
        "tracker.step_ms": (ms("tracker.step", frames, step), "ms/frame"),
        "tracker.self_ms": (None if gone(step) else
                            (tracer.seconds["tracker.step"] - tracer.child["tracker.step"])
                            * host * 1e3 / max(frames, 1), "ms/frame"),
        "tracker.live_tracks": (per_result(diag_total("n_tracks")), "count/frame"),
        "sadf.ms": (ms("sadf", frames, *sadf), "ms/frame"),
        "sadf.cutoff_calls": (None if gone(sadf[1]) else
                              per_frame(tracer.counts["sadf.cutoff_calls"]), "count/frame"),
        "sadf.keep_ratio": (ratio(diag_total("n_kept"), diag_total("n_raw")), "ratio"),
        "kalman.predict_ms": (ms("kalman.predict", frames, kalman[0]), "ms/frame"),
        "kalman.update_ms": (ms("kalman.update", frames, kalman[1]), "ms/frame"),
        "kalman.calls": (None if gone(*kalman) else
                         per_frame(sum(tracer.calls[p] for p in kalman)), "count/frame"),
        "affinity.sm_ms": (ms("affinity.sm", frames, "hamtrack.tracker.build_sm_matrix"), "ms/frame"),
        "affinity.fuse_ms": (ms("affinity.fuse", frames, "hamtrack.tracker.fuse_appearance"), "ms/frame"),
        "affinity.pairs": (per_result(diag_total("total_pairs")), "count/frame"),
        "affinity.gated_pairs": (per_result(diag_total("gated_pairs")), "count/frame"),
        "affinity.gate_ratio": (ratio(diag_total("gated_pairs"), diag_total("total_pairs")), "ratio"),
        "appearance.evals": (per_result(diag_total("appearance_evals")), "count/frame"),
        "appearance.compare_calls": (None if gone(*compare) else
                                     per_frame(tracer.counts["appearance.compare_calls"]), "count/frame"),
        "appearance.store_ms": (ms("appearance.store", frames, *store), "ms/frame"),
        "association.ms": (ms("association", frames, "hamtrack.tracker.associate"), "ms/frame"),
        "association.matches": (None if gone("hamtrack.tracker.associate",
                                             "hamtrack.tracker.associate.matches") else
                                per_frame(tracer.counts["association.matches"]), "count/frame"),
        "io_mot.parse_ms": (ms("io_mot.parse", n_passes, *parse), "ms/pass"),
        "io_mot.descriptor_ms": (ms("io_mot.descriptor", n_passes, *descriptor), "ms/pass"),
        "io_mot.write_ms": (ms("io_mot.write", n_passes, "hamtrack.cli.write_result_file"), "ms/pass"),
        "io_mot.bytes_read": (None if gone(*parse, descriptor[0]) else
                              tracer.counts["io_mot.bytes_read"] / max(n_passes, 1), "B/pass"),
        "cli.overhead_ms": (None if gone("hamtrack.cli.run_sequence") else
                            (cli_ms - tracer.seconds["cli.run_sequence"] * 1e3) * host
                            / max(track_calls, 1)
                            if track_calls else 0.0, "ms/call"),
        "metrics.clear_mot_ms": (ms("metrics.clear_mot", evals, "hamtrack.metrics.clear_mot"), "ms/call"),
        "metrics.idf1_ms": (ms("metrics.idf1", evals, "hamtrack.metrics.idf1"), "ms/call"),
        "synthgen.generate_s": (ms("synthgen.generate", tracer.calls["hamtrack.synthgen.generate"],
                                   "hamtrack.synthgen.generate", scale=1.0), "s/call"),
        "trace.overhead_pct": ((untraced_fps - run["fps"]) / untraced_fps * 100.0, "%"),
    }


def traced_shares(tracer) -> dict:
    """Share of traced ``Tracker.step`` time spent in each module called from it."""
    step = tracer.seconds["tracker.step"]
    if not step:
        return {}
    inside = ("sadf", "kalman.predict", "kalman.update", "affinity.sm", "affinity.fuse",
              "appearance.store", "association", "io_mot.descriptor")
    shares = {g: tracer.seconds[g] / step for g in inside}
    shares["tracker.self"] = 1.0 - tracer.child["tracker.step"] / step
    return {g: round(s, 4) for g, s in shares.items()}


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> tuple[dict, dict]:
    import hostclock
    import workloads  # imports hamtrack, so only after load_program()
    workload = workloads.make(name, smoke=smoke)
    # Per-module metrics need no percentile, so traced and smoke runs have no frame floor.
    floors = (1, 2) if smoke or traced else (MIN_FRAMES, MIN_PASSES)
    if traced:
        seconds /= 2  # half untraced, half traced
    setup_times = []
    clock = hostclock.Clock()

    def setup():
        shutil.rmtree(WORKDIR, ignore_errors=True)  # the last set-up's files; not timed
        setup_times.append(clock.interval(workload.setup, seed, WORKDIR)[1])

    setup()
    repeats = 0 if traced or smoke else SETUP_REPEATS - 1
    run = measure(workload, clock, seconds, *floors, resetup=[setup] * repeats)
    info = {
        "workload": name, "seed": seed, "scene": workload.scene(),
        "setup_runs": len(setup_times), "passes": len(run["passes"]),
        "step_samples": len(run["steps"]),
        "result_digest": run["digest"], "quality": run["quality"],
        # track_fps rescaled by the sequence's fixed detection count
        "us_per_detection": 1e6 * run["passes"][0].frames / (run["fps"] * workload.detections),
        "wall_track_fps": run["wall_fps"],
    }
    problems = run["problems"]
    attempted, failed = run["attempted"], run["failed"]
    if not traced:
        metrics = end_to_end(setup_times, run)
    else:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            shutil.rmtree(WORKDIR, ignore_errors=True)
            workload.setup(seed, WORKDIR)
            traced_run = measure(workload, clock, seconds, *floors)
        finally:
            tracer.restore()
        if traced_run["digest"] != run["digest"]:
            problems.append("traced results differ from untraced results")
        problems += traced_run["problems"]
        attempted += traced_run["attempted"]
        failed += traced_run["failed"]
        metrics = per_layer(tracer, traced_run, run["fps"])
        info["absent"] = sorted(tracer.absent)
        info["traced_shares_of_step"] = traced_shares(tracer)
    info["probe"] = clock.summary()
    info["problems"] = problems[:20]
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, info


def result_line(outcome: dict) -> str:
    metrics = {}
    for name, (value, unit) in outcome["metrics"].items():
        metrics[name] = ({"value": None, "unit": unit, "absent": True} if value is None
                         else {"value": value, "unit": unit})
    return json.dumps({"correct": outcome["correct"], "attempted": outcome["attempted"],
                       "failed": outcome["failed"], "metrics": metrics})


def contract_problems(text: str, expected: set) -> list[str]:
    """What is wrong with one result line, judged by the benchmark's output contract."""
    line = json.loads(text)
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(line)}")
    if not (isinstance(line.get("attempted"), int) and line["attempted"] >= 1
            and isinstance(line.get("failed"), int)):
        problems.append("attempted and failed must be whole numbers, attempted >= 1")
    if not line.get("correct") or line.get("failed"):
        problems.append("not correct")
    metrics = line.get("metrics", {})
    if set(metrics) != expected:
        problems.append(f"metric names differ: {sorted(expected ^ set(metrics))}")
    for name, m in metrics.items():
        value = m.get("value")
        measured = isinstance(value, (int, float)) and math.isfinite(value)
        if not (measured or (value is None and m.get("absent"))) or not m.get("unit"):
            problems.append(f"{name}: neither a measured number nor marked absent")
    return problems


def smoke() -> int:
    """Every workload at toy size, traced and untraced; each result line must keep the contract."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    missing = []
    if set(layers["moves"]) != {m["name"] for m in spec["per_layer"]}:
        missing.append("layers.json does not map exactly the per_layer metrics")
    for name in WORKLOADS:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            outcome, info = run_workload(name, seed=1, seconds=0.0, traced=traced, smoke=True)
            line = result_line(outcome)
            found = contract_problems(line, {m["name"] for m in spec[key]})
            missing += [f"{name}/{key}: {p} {info['problems']}" for p in found]
            absent = sorted(k for k, m in json.loads(line)["metrics"].items() if m["value"] is None)
            print(f"smoke {name} trace={int(traced)}: absent {absent}", file=sys.stderr)
    for problem in missing:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the metric names")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    load_program()
    try:
        if args.smoke:
            return smoke()
        outcome, info = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), smoke=False)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    info["environment"] = environment(args.seed)
    print(json.dumps({"info": info}))
    print(result_line(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
