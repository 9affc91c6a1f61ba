"""Seeded workload scenes and the in-process calls that drive hamtrack.

Each workload turns ``--seed`` into a scenario spec, prepares the program's
inputs once per set-up, and then runs whole sequences through the program's
public entry points: ``Tracker.step`` for the crowds and ``hamtrack.cli.main``
(``track`` then ``eval``) for the CLI workload. Every module is reached through
its attribute (``synthgen.generate``, ``cli.main``) so that a tracer that
swaps module-level names also sees the benchmark's own calls.
"""

import contextlib
import hashlib
import io
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import hostclock
from hamtrack import cli, io_mot, metrics, synthgen, tracker
from hamtrack.core import AppearanceDescriptor, Detection, TrackerConfig
from hamtrack.synthgen import ConfidenceRegime, ObjectSpec, OcclusionEvent, ScenarioSpec

# Scene sizes per workload: (objects, frames). The smoke sizes only check
# that every metric is produced; they measure nothing.
FULL = {"crowd_embed": (60, 120), "crowd_motion": (150, 60), "cli_hist_sadf": (24, 400)}
SMOKE = {"crowd_embed": (6, 12), "crowd_motion": (8, 12), "cli_hist_sadf": (3, 24)}

CROWD_CANVAS = (1920, 1080)
CROWD_SPEED = 3.0        # px per frame along each row
OCCLUSION_PERIOD = 25    # frames between the occlusions of one object
CLI_CANVAS = (320, 240)
CLI_SCENES = 3           # scenes per CLI pass, each from its own seed


def crowd_spec(seed: int, n_objects: int, n_frames: int, embed_dim: int) -> ScenarioSpec:
    """Rows of objects walking in alternating directions across 1920x1080.

    The layout is fixed, so crowd density, and with it the work per frame,
    is the same for every seed; the seed sets box sizes and drives the
    generator's noise (jitter, clutter, confidences, embeddings). Every object
    is occluded every ``OCCLUSION_PERIOD`` frames, half the time by a
    neighbour in the next row, with its appearance corrupted just before.
    False positives run at 0.1 per object per frame.
    """
    rng = random.Random(seed)
    width, height = CROWD_CANVAS
    rows = max(1, round(math.sqrt(n_objects * height / width)))
    cols = math.ceil(n_objects / rows)
    travel = CROWD_SPEED * (n_frames - 1)
    dx, dy = (width - travel) / cols, height / rows
    objects = []
    for k in range(n_objects):
        row, col = divmod(k, cols)
        heading = 1.0 if row % 2 == 0 else -1.0
        w = rng.uniform(28.0, 36.0)
        h = w * rng.uniform(2.0, 2.4)
        x0 = (col + 0.5) * dx + (travel if heading < 0 else 0.0)
        y0 = (row + 0.5) * dy
        drift = 0.15 * dy * (1 if col % 2 == 0 else -1)
        objects.append(ObjectSpec(((1, x0, y0), (n_frames, x0 + heading * travel, y0 + drift)), w, h))
    events = []
    for k in range(n_objects):
        # Fixed schedule, so the number and length of occlusions per run do
        # not depend on the seed.
        start = 4 + (7 * k) % OCCLUSION_PERIOD
        neighbour = k + cols if k + cols < n_objects else k - cols
        by = neighbour if k % 2 == 0 and neighbour >= 0 else None
        while start + 6 < n_frames:
            events.append(OcclusionEvent(k, start, start + 1 + (3 * k) % 5, by))
            start += OCCLUSION_PERIOD
    return ScenarioSpec(
        seed=seed, n_frames=n_frames, canvas_w=width, canvas_h=height,
        fp_rate=0.1 * n_objects, jitter_std=1.5, embed_dim=embed_dim,
        embed_noise_std=0.05, corrupt_frames=2, corrupt_blend=0.8,
        objects=tuple(objects), events=tuple(events),
        regimes=(ConfidenceRegime(1, 40.0, 5.0),))


def cli_spec(seed: int, n_objects: int, n_frames: int) -> ScenarioSpec:
    """A long, sparse scene on a small canvas for the file-based CLI path.

    Objects cross the canvas on eight lanes in alternating directions, each
    for half the sequence, starting on a fixed staggered schedule (so tracks
    are born and die at the same rate for every seed). Boxes on neighbouring
    lanes overlap as they pass and may merge, boxes fragment, clutter
    appears, and detector confidence drops halfway through, which SADF has
    to follow. The seed sets box sizes and drives the generator's noise.
    """
    rng = random.Random(seed)
    width, height = CLI_CANVAS
    lanes = 8
    life = n_frames // 2
    objects = []
    for k in range(n_objects):
        w = rng.uniform(14.0, 20.0)
        h = w * rng.uniform(1.9, 2.3)
        first = 1 + (k * (n_frames - life - 1)) // max(n_objects - 1, 1)
        y0 = (k % lanes + 0.5) * height / lanes
        y1 = y0 + (0.1 if k % 4 < 2 else -0.1) * height / lanes
        xa, xb = (w, width - w) if k % 2 == 0 else (width - w, w)
        objects.append(ObjectSpec(((first, xa, y0), (first + life, xb, y1)), w, h))
    return ScenarioSpec(
        seed=seed, n_frames=n_frames, canvas_w=width, canvas_h=height,
        fp_rate=1.0, merge_prob=0.3, fragment_prob=0.03, jitter_std=1.0,
        embed_dim=2, objects=tuple(objects),
        regimes=(ConfidenceRegime(1, 40.0, 6.0),
                 ConfidenceRegime(n_frames // 2, 25.0, 4.0)))


def result_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def frame_problems(frame: int, tracks) -> list[str]:
    """Correctness of one frame's output: unique IDs and finite boxes."""
    problems = []
    ids = [track_id for track_id, _ in tracks]
    if len(set(ids)) != len(ids):
        problems.append(f"frame {frame}: duplicate track IDs")
    for track_id, box in tracks:
        if not all(math.isfinite(v) for v in (box.x, box.y, box.w, box.h)):
            problems.append(f"frame {frame}: track {track_id} has a non-finite box")
    return problems


@dataclass
class Pass:
    """One whole sequence tracked once; times are calibrated (``hostclock``)."""

    seconds: float           # the tracking phase, probes left out
    wall: float              # the same phase in wall seconds
    frames: int
    step_seconds: list[float]
    digest: str
    probed: float = 0.0      # wall seconds of the probes run inside a timed call
    results: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0


class CrowdWorkload:
    """Crowd scene driven frame by frame through ``Tracker.step``."""

    eval_ops = 0             # operations counted are frames stepped, not evaluations

    def __init__(self, n_objects: int, n_frames: int, use_appearance: bool,
                 embed_dim: int, evals_per_pass: int = 1):
        self.n_objects, self.n_frames = n_objects, n_frames
        self.evals_per_pass = evals_per_pass
        self.use_appearance, self.embed_dim = use_appearance, embed_dim
        self.cfg = TrackerConfig(filter_mode="none")

    def scene(self) -> dict:
        return {"objects": self.n_objects, "frames": self.n_frames,
                "appearance": "embed" if self.use_appearance else "none",
                "embed_dim": self.embed_dim, "filter_mode": self.cfg.filter_mode}

    def setup(self, seed: int, workdir: Path) -> None:
        spec = crowd_spec(seed, self.n_objects, self.n_frames, self.embed_dim)
        scenario = synthgen.generate(spec)
        self.detections = len(scenario.det_rows)
        dets = defaultdict(list)
        for frame, _, box, conf in scenario.det_rows:
            dets[frame].append(Detection(frame=frame, bbox=box, confidence=conf))
        self.dets = dict(dets)
        self.embeddings = {}
        if self.use_appearance:
            self.embeddings = {(f, o): AppearanceDescriptor.embedding(v)
                               for f, o, v in scenario.embeddings}
        gt = defaultdict(list)
        for frame, gid, box, _ in scenario.gt_rows:
            gt[frame].append((gid, box))
        self.gt = dict(gt)

    def track(self, clock: hostclock.Clock) -> Pass:
        """One sequence, with a probe run between every two steps."""
        source = None
        if self.use_appearance:
            table = self.embeddings
            source = lambda frame, ordinal: table[(frame, ordinal)]  # noqa: E731
        trk = tracker.Tracker(self.cfg, descriptor_source=source,
                              use_appearance=self.use_appearance)
        walls, results, problems = [], [], []
        probes = [clock.probe()]
        for frame in range(1, self.n_frames + 1):
            t0 = time.perf_counter()
            result = trk.step(frame, self.dets.get(frame, ()))
            walls.append(time.perf_counter() - t0)
            probes.append(clock.probe())
            results.append(result)
        steps = hostclock.calibrate(walls, probes)
        failed = 0
        for result in results:
            found = frame_problems(result.frame, result.tracks)
            problems += found
            failed += bool(found)
        return Pass(seconds=sum(steps), wall=sum(walls), frames=self.n_frames,
                    step_seconds=steps,
                    digest=result_digest(io_mot.write_result_file(results)),
                    results=results, problems=problems, failed=failed,
                    attempted=self.n_frames)

    def evaluate(self, last: Pass, clock: hostclock.Clock) -> tuple[float, dict]:
        hyp = {r.frame: list(r.tracks) for r in last.results}
        report, elapsed = clock.interval(metrics.evaluate, self.gt, hyp)
        return elapsed, {"mota": report.mota, "idf1": report.idf1, "idsw": report.idsw}


class CliWorkload:
    """``hamtrack track`` on PPM frames with default SADF, then ``hamtrack eval``.

    A pass tracks ``n_scenes`` scenes, each its own CLI call. How much work a
    scene makes (how many tracks live, how many IDs switch) differs by about
    10% from seed to seed, so one run averages over several scenes.
    """

    def __init__(self, n_objects: int, n_frames: int, n_scenes: int):
        self.n_objects, self.n_frames, self.n_scenes = n_objects, n_frames, n_scenes
        self.evals_per_pass = 1
        self.eval_ops = n_scenes  # operations counted are CLI calls

    def scene(self) -> dict:
        return {"objects": self.n_objects, "frames": self.n_frames, "scenes": self.n_scenes,
                "canvas": list(CLI_CANVAS), "appearance": "hist", "filter_mode": "sadf"}

    def setup(self, seed: int, workdir: Path) -> None:
        """Write each scene's detections, ground truth and frames under ``workdir``, which must not exist."""
        self.dirs, self.detections, self.seq_frames = [], 0, 0
        for k in range(self.n_scenes):
            spec = cli_spec(seed * self.n_scenes + k, self.n_objects, self.n_frames)
            scenario = synthgen.generate(spec, with_frames=True)
            d = workdir / f"scene{k}"
            (d / "frames").mkdir(parents=True)
            (d / "det.txt").write_text(io_mot.write_mot_rows(scenario.det_rows))
            (d / "gt.txt").write_text(io_mot.write_mot_rows(scenario.gt_rows))
            for frame, image in scenario.frames.items():
                (d / "frames" / io_mot.frame_image_name(frame)).write_bytes(io_mot.write_ppm(image))
            self.dirs.append(d)
            self.detections += len(scenario.det_rows)
            self.seq_frames += max(frame for frame, *_ in scenario.det_rows)
            del scenario  # its frames are on disk now; keep one scene in memory at a time

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def _track_scene(self, d: Path, clock: hostclock.Clock):
        """One ``hamtrack track`` call, with a probe run before every ``Tracker.step``.

        The probes split the call into segments (call start to first probe,
        probe to probe, last probe to call end); each segment is calibrated
        by the probes on either side, and the call's time is their sum.
        Returns the exit code, calibrated and wall seconds, wall seconds of
        the probes inside the call, and calibrated step times.
        """
        walls, edges = [], []
        probes = [clock.probe()]
        original = tracker.Tracker.step

        def step(trk, *args, **kwargs):
            edges.append(time.perf_counter())
            probes.append(clock.probe())
            edges.append(time.perf_counter())
            t0 = time.perf_counter()
            result = original(trk, *args, **kwargs)
            walls.append(time.perf_counter() - t0)
            return result

        tracker.Tracker.step = step
        try:
            edges.append(time.perf_counter())
            code, _ = self._cli(["track", "--det", str(d / "det.txt"),
                                 "--frames-dir", str(d / "frames"), "--out", str(d / "res.txt")])
            edges.append(time.perf_counter())
        finally:
            tracker.Tracker.step = original
        probes.append(clock.probe())
        segments = [b - a for a, b in zip(edges[::2], edges[1::2])]
        return (code, sum(hostclock.calibrate(segments, probes)), sum(segments),
                edges[-1] - edges[0] - sum(segments), hostclock.calibrate(walls, probes[1:]))

    def track(self, clock: hostclock.Clock) -> Pass:
        """Every scene tracked once; the pass's times are the sums over scenes."""
        seconds = wall = probed = 0.0
        steps, texts, problems, failed = [], [], [], 0
        for d in self.dirs:
            code, scene_seconds, scene_wall, scene_probed, scene_steps = self._track_scene(d, clock)
            seconds, wall, probed = seconds + scene_seconds, wall + scene_wall, probed + scene_probed
            steps += scene_steps
            found = [] if code == 0 else [f"hamtrack track exited {code} on {d.name}"]
            text = (d / "res.txt").read_text() if code == 0 else ""
            for frame, tracks in io_mot.parse_gt_file(text).items():
                found += frame_problems(frame, tracks)
            texts.append(text)
            problems += found
            failed += bool(found)
        return Pass(seconds=seconds, wall=wall, probed=probed, frames=self.seq_frames,
                    step_seconds=steps, digest=result_digest("".join(texts)),
                    problems=problems, failed=failed, attempted=self.n_scenes)

    def evaluate(self, last: Pass, clock: hostclock.Clock) -> tuple[float, dict]:
        """``hamtrack eval`` on every scene: summed time, mean MOTA and IDF1, summed IDSw."""
        elapsed, rows = 0.0, []
        for d in self.dirs:
            (code, out), seconds = clock.interval(
                self._cli, ["eval", "--gt", str(d / "gt.txt"), "--result", str(d / "res.txt")])
            elapsed += seconds
            if code != 0:
                return elapsed, {"cli_eval_exit": code}
            rows.append(out.strip().splitlines()[-1].split(",")[:3])
        return elapsed, {"mota": sum(float(r[0]) for r in rows) / len(rows),
                         "idf1": sum(float(r[1]) for r in rows) / len(rows),
                         "idsw": sum(int(r[2]) for r in rows)}


def make(name: str, smoke: bool = False):
    n_objects, n_frames = (SMOKE if smoke else FULL)[name]
    if name == "crowd_embed":
        # Evaluation takes a tenth of a pass here, so it is sampled three times per pass.
        return CrowdWorkload(n_objects, n_frames, use_appearance=True, embed_dim=128,
                             evals_per_pass=3)
    if name == "crowd_motion":
        # Evaluation is a third of a pass here, so it is sampled twice per pass.
        return CrowdWorkload(n_objects, n_frames, use_appearance=False, embed_dim=1,
                             evals_per_pass=2)
    if name == "cli_hist_sadf":
        return CliWorkload(n_objects, n_frames, n_scenes=CLI_SCENES)
    raise ValueError(f"unknown workload {name!r}")
