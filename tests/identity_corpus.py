"""The identity corpus: tracking results whose bytes a refactor must not change.

``digests(workdir)`` generates the scenes into ``workdir``, tracks them and
returns one SHA-256 per output:

- the three-object crossings of ``crossing_spec`` seeds 1-3, with HAM on and
  off (``--filter none``, as acceptance criterion C4 runs them), once with
  ``hamtrack track`` and once in process through ``run_sequence`` with a
  per-(frame, ordinal) descriptor callable (``crossing_<seed>_library_ham_*``);
- six lanes with false positives (``LANES``), in process with HAM on and
  ``filter_mode="none"`` (``lanes_library_ham_on``): on frames 3-6, 8, 9 and 11 a
  track is born in the frame whose history store widens the bank;
- the bundled ``occlusion.scn`` under every ``--appearance`` (embed, hist,
  none) and ``--filter`` (sadf, const, none) mode, histograms read from its
  PPM frames: the result file, the ``--trace`` CSV (``*_trace``) and the
  manifest (``*_manifest``), less its ``duration_sec`` and with its paths
  relative to ``workdir``;
- ``occlusion.scn`` under every ``--appearance`` mode again, tracked with
  ``--filter none --set emit_predicted=true`` (``occlusion_*_predicted``), so
  that the boxes written for unmatched confirmed tracks are covered, and once
  more with ``--set confirm_hits=1`` too (``*_predicted_confirm_1``), so that a
  track is confirmed, and written, in the frame it is born;
- the ``hamtrack eval`` line (``*_eval``) of every ``hamtrack track`` result
  above, scored against the scene's ground truth at the default IoU threshold
  and at each of ``EVAL_IOUS`` (``*_eval_iou_0.3`` and so on); on these scenes
  0.3 and 0.7 give the default line, and 0 and 0.9 do not;
- the generated inputs (``*_inputs``): the det, gt and embedding files of each
  crossing, of ``occlusion.scn`` as ``hamtrack generate --frames`` writes it
  (then its PPM frames in name order) and of ``schedule_specs()``, small
  scenes at the edges of the generator's occlusion, lead-in and confidence
  regime schedule, and of ``CROWD``, whose 128-d embeddings make each scene
  draw some 10⁵ uniforms, with scalar draws (jitter, merges, fragments,
  confidences) between the per-object and per-false-positive vectors. Each such
  digest is taken over the files' own SHA-256s.

The full set (``--full``, ``full_digests(workdir)``) adds the three scenes of
the benchmark's ``cli_hist_sadf`` workload at each of its seeds ``CLI_SEEDS``
(``cli_hist_sadf_<seed>_<scene>``): the ``hamtrack track`` result with
histograms from the PPM frames and SADF, and its eval lines as above. It takes
longer than the default set, which tier-1 checks.

``tests/identity_digests.json`` holds the recorded digests (the full set's
under ``full_digests``) and the Python, numpy and machine they were recorded
on; ``tests/test_identity.py`` checks the default set. From the repository
root:

    PYTHONPATH=src:tests python tests/identity_corpus.py --check [--full]
    PYTHONPATH=src:tests python tests/identity_corpus.py --write [--full]

``--check`` names each result that differs and exits 1. ``--write`` records
the current digests, the full set's only with ``--full``; only a change meant
to alter output bytes may do so, and it says which digests moved and why.
"""

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from importlib import resources
from io import StringIO
from pathlib import Path

import numpy as np

from hamtrack.cli import main
from hamtrack.core import TrackerConfig
from hamtrack.io_mot import write_embedding_file, write_mot_rows, write_result_file
from hamtrack.synthgen import (ConfidenceRegime, ObjectSpec, OcclusionEvent, ScenarioSpec,
                               generate)
from hamtrack.tracker import run_sequence
from scenario_utils import crossing_spec, line_spec, scenario_inputs

DIGESTS = Path(__file__).with_name("identity_digests.json")
PERFBENCH = Path(__file__).parents[1] / "perfbench"
CROSSING_SEEDS = (1, 2, 3)
CLI_SEEDS = (1, 2, 3)
APPEARANCES = ("embed", "hist", "none")
EVAL_IOUS = ("0", "0.3", "0.7", "0.9")
FILTERS = ("sadf", "const", "none")
LANES = line_spec(n_objects=6, n_frames=30, jitter=1.0, fp_rate=2.0, embed_dim=16)
# Eight objects in four rows, each row's pair crossing mid-scene: false positives at a
# fractional rate, merges, fragments, two occlusions with lead-ins and a confidence shift.
CROWD = ScenarioSpec(
    seed=5, n_frames=40, fp_rate=2.5, merge_prob=0.3, fragment_prob=0.1, jitter_std=1.5,
    embed_dim=128,
    objects=tuple(ObjectSpec(waypoints=((1, x0, y), (40, 640.0 - x0, y)), w=30.0 + 2.0 * k,
                             h=60.0 + 4.0 * k)
                  for k, (x0, y) in enumerate((x0, 80.0 + 100.0 * row)
                                              for row in range(4) for x0 in (40.0, 600.0))),
    events=(OcclusionEvent(obj=1, start=12, end=15, by=0), OcclusionEvent(obj=5, start=20, end=22)),
    regimes=(ConfidenceRegime(1, 40.0, 5.0), ConfidenceRegime(25, 30.0, 6.0)))


def environment() -> dict:
    """What the digests were computed on."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "system": platform.system()}


def schedule_specs() -> dict[str, ScenarioSpec]:
    """Scenes at the edges of the generator's schedule: regimes listed out of start order,
    two sharing a start and none at frame 1; one object with two events whose lead-ins
    overlap, the later-starting one listed first; and lead-ins of 0 frames and of far more
    frames than the scene has, one of them reaching back past frame 1."""
    walkers = tuple(ObjectSpec(waypoints=((1, x, 80.0), (30, x, 400.0)), w=30.0, h=60.0)
                    for x in (60.0, 150.0, 240.0))
    base = ScenarioSpec(seed=11, n_frames=30, fp_rate=0.5, jitter_std=1.0, embed_dim=8,
                        corrupt_frames=4, corrupt_blend=0.6, objects=walkers)
    events = (OcclusionEvent(obj=1, start=3, end=5, by=2), OcclusionEvent(obj=2, start=25, end=28),
              OcclusionEvent(obj=1, start=14, end=15, by=0))
    return {
        "regimes": replace(base, regimes=(
            ConfidenceRegime(12, 60.0, 2.0), ConfidenceRegime(5, 40.0, 5.0),
            ConfidenceRegime(12, 20.0, 1.0), ConfidenceRegime(8, 50.0, 3.0))),
        "lead_ins": replace(base, events=(OcclusionEvent(obj=0, start=20, end=22, by=1),
                                          OcclusionEvent(obj=0, start=16, end=17))),
        "corrupt_0": replace(base, corrupt_frames=0, events=events),
        "corrupt_huge": replace(base, corrupt_frames=10**6, events=events),
    }


def _write_scene(spec: ScenarioSpec, scene: Path):
    """Generate ``spec`` into ``scene`` as det, gt and embedding files; the scenario."""
    scenario = generate(spec)
    scene.mkdir()
    (scene / "det.txt").write_text(write_mot_rows(scenario.det_rows))
    (scene / "gt.txt").write_text(write_mot_rows(scenario.gt_rows))
    (scene / "embeddings.csv").write_text(
        write_embedding_file(spec.embed_dim, scenario.embeddings))
    return scenario


def _inputs(scene: Path) -> bytes:
    """The SHA-256s of a generated scene's files: det, gt, embeddings, then its frames."""
    paths = [scene / "det.txt", scene / "gt.txt", scene / "embeddings.csv",
             *sorted((scene / "frames").glob("*.ppm"))]
    return b"".join(hashlib.sha256(path.read_bytes()).digest() for path in paths)


def _cli(*args: str) -> bytes:
    """What ``hamtrack *args`` prints to stdout."""
    with redirect_stderr(StringIO()) as err, redirect_stdout(StringIO()) as out:
        code = main(list(args))
    if code != 0:
        raise RuntimeError(f"hamtrack {' '.join(args)} exited {code}: {err.getvalue()}")
    return out.getvalue().encode()


def _track(scene: Path, out: Path, *extra: str) -> None:
    _cli("track", "--det", str(scene / "det.txt"), "--out", str(out), *extra)


def _evals(name: str, scene: Path, result: Path) -> dict[str, bytes]:
    """The ``hamtrack eval`` lines of ``result``: at the default IoU and at each of EVAL_IOUS."""
    args = ("eval", "--gt", str(scene / "gt.txt"), "--result", str(result))
    return {f"{name}_eval": _cli(*args),
            **{f"{name}_eval_iou_{iou}": _cli(*args, "--iou", iou) for iou in EVAL_IOUS}}


def _manifest(path: Path, workdir: Path) -> bytes:
    """The manifest at ``path`` without its run time, its paths relative to ``workdir``."""
    manifest = json.loads(path.read_text())
    del manifest["duration_sec"]
    for group in ("inputs", "outputs"):
        manifest[group] = {key: value and str(Path(value).relative_to(workdir))
                           for key, value in manifest[group].items()}
    return json.dumps(manifest, indent=2, sort_keys=True).encode()


def digests(workdir: Path) -> dict[str, str]:
    """``{output name: SHA-256 of its bytes}`` over the whole corpus, built in ``workdir``."""
    results = {}
    for seed in CROSSING_SEEDS:
        spec, scene = crossing_spec(seed), workdir / f"crossing_{seed}"
        scenario = _write_scene(spec, scene)
        results[f"crossing_{seed}_inputs"] = _inputs(scene)
        dets, emb, _ = scenario_inputs(scenario)
        for ham in ("on", "off"):
            name = f"crossing_{seed}_ham_{ham}"
            _track(scene, workdir / f"{name}.txt", "--embeddings", str(scene / "embeddings.csv"),
                   "--ham", ham, "--filter", "none")
            results[name] = (workdir / f"{name}.txt").read_bytes()
            results.update(_evals(name, scene, workdir / f"{name}.txt"))
            cfg = TrackerConfig(filter_mode="none", use_ham=ham == "on")
            tracked = run_sequence(dets, cfg, descriptor_source=lambda f, o: emb[f, o],
                                   n_frames=spec.n_frames)
            results[f"crossing_{seed}_library_ham_{ham}"] = write_result_file(tracked).encode()
    dets, emb, _ = scenario_inputs(generate(LANES))
    tracked = run_sequence(dets, TrackerConfig(filter_mode="none"),
                           descriptor_source=lambda f, o: emb[f, o], n_frames=LANES.n_frames)
    results["lanes_library_ham_on"] = write_result_file(tracked).encode()
    scene = workdir / "occlusion"
    _cli("generate", "--spec", str(resources.files("hamtrack") / "scenarios" / "occlusion.scn"),
         "--out", str(scene), "--frames")
    results["occlusion_inputs"] = _inputs(scene)
    sources = {"embed": ("--embeddings", str(scene / "embeddings.csv")),
               "hist": ("--frames-dir", str(scene / "frames")), "none": ()}
    for appearance in APPEARANCES:
        for mode in FILTERS:
            name = f"occlusion_{appearance}_{mode}"
            out, trace = workdir / f"{name}.txt", workdir / f"{name}.csv"
            _track(scene, out, "--appearance", appearance, *sources[appearance],
                   "--filter", mode, "--trace", str(trace))
            results[name], results[f"{name}_trace"] = out.read_bytes(), trace.read_bytes()
            results[f"{name}_manifest"] = _manifest(Path(f"{out}.manifest.json"), workdir)
            results.update(_evals(name, scene, out))
        for name, extra in ((f"occlusion_{appearance}_predicted", ()),
                            (f"occlusion_{appearance}_predicted_confirm_1",
                             ("--set", "confirm_hits=1"))):
            out = workdir / f"{name}.txt"
            _track(scene, out, "--appearance", appearance, *sources[appearance],
                   "--filter", "none", "--set", "emit_predicted=true", *extra)
            results[name] = out.read_bytes()
            results.update(_evals(name, scene, out))
    for name, spec in schedule_specs().items():
        _write_scene(spec, workdir / f"schedule_{name}")
        results[f"schedule_{name}_inputs"] = _inputs(workdir / f"schedule_{name}")
    _write_scene(CROWD, workdir / "crowd")
    results["crowd_inputs"] = _inputs(workdir / "crowd")
    return {name: hashlib.sha256(data).hexdigest() for name, data in results.items()}


def full_digests(workdir: Path) -> dict[str, str]:
    """``{output name: SHA-256}`` of the full set's extra outputs, built in ``workdir``."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    results = {}
    for seed in CLI_SEEDS:
        workload = workloads.make("cli_hist_sadf")
        workload.setup(seed, workdir / f"cli_hist_sadf_{seed}")
        for k, scene in enumerate(workload.dirs):  # tracked as CliWorkload.track runs them
            name, out = f"cli_hist_sadf_{seed}_{k}", workdir / f"cli_hist_sadf_{seed}_{k}.txt"
            _track(scene, out, "--frames-dir", str(scene / "frames"))
            results[name] = out.read_bytes()
            results.update(_evals(name, scene, out))
    return {name: hashlib.sha256(data).hexdigest() for name, data in results.items()}


def differences(recorded: dict, found: dict[str, str]) -> list[str]:
    """The names whose digest is missing, extra or different."""
    return sorted(name for name in recorded.keys() | found.keys()
                  if recorded.get(name) != found.get(name))


def _main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="compare with the recorded digests")
    action.add_argument("--write", action="store_true", help="record the current digests")
    parser.add_argument("--full", action="store_true",
                        help="the full set too: the cli_hist_sadf scenes")
    args = parser.parse_args(argv)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        found = {"digests": digests(Path(tmp))}
        if args.full:
            found["full_digests"] = full_digests(Path(tmp))
    if args.write:
        DIGESTS.write_text(json.dumps({**recorded, "environment": environment(), **found},
                                      indent=2) + "\n")
        print(f"recorded {sum(map(len, found.values()))} digests in {DIGESTS.name}")
        return 0
    differ = [name for key, digests_found in found.items()
              for name in differences(recorded.get(key, {}), digests_found)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {sum(len(recorded.get(key, {})) for key in found)} results differ "
          f"from the digests recorded on {recorded['environment']}; this is {environment()}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
