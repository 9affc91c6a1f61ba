"""Package-level contracts: the public names, the numpy-only runtime and what the benchmark reads."""

import ast
import dataclasses
import json
import math
import sys
from pathlib import Path

import hamtrack
from hamtrack import tracker

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "AppearanceDescriptor", "BBox", "ConfidenceRegime", "Detection", "EvalReport",
    "FrameResult", "GeneratedScenario", "ObjectSpec", "OcclusionEvent", "ScenarioSpec",
    "Tracker", "TrackerConfig", "evaluate", "generate", "parse_scenario", "run_sequence",
    "validate_config", "validate_scenario",
]


def test_public_names_are_pinned_and_resolve():
    assert hamtrack.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(hamtrack, name) is not None, name


def test_runtime_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    sources = sorted(Path(hamtrack.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # The benchmark's tracer wraps hamtrack's functions by dotted name; a name
    # that is renamed or removed would leave its metric absent from a traced run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    step = tracker.Tracker.step
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert tracer.absent == set()
        assert tracker.Tracker.step is not step
    finally:
        tracer.restore()
    assert tracker.Tracker.step is step


def _reject(constant: str):
    raise ValueError(f"result line holds {constant}, which strict JSON has no value for")


def test_traced_toy_runs_end_in_a_strict_json_line_with_every_metric(monkeypatch, tmp_path):
    # The benchmark's traced run reads names the tracer wraps and FrameDiagnostics
    # fields; one that goes missing leaves a metric absent, and NaN is not JSON.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    monkeypatch.setattr(run, "WORKDIR", tmp_path / "work")
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for name in run.WORKLOADS:
        outcome, info = run.run_workload(name, seed=1, seconds=0.0, traced=True, smoke=True)
        assert (info["absent"], info["problems"]) == ([], []), name
        line = json.loads(run.result_line(outcome), parse_constant=_reject)
        assert line["correct"] and set(line["metrics"]) == per_layer, name
        for metric, m in line["metrics"].items():
            value = m["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value), (name, metric, m)
    read_by_per_layer = {"n_tracks", "n_kept", "n_raw", "total_pairs", "gated_pairs",
                         "appearance_evals"}
    assert read_by_per_layer <= {f.name for f in dataclasses.fields(tracker.FrameDiagnostics)}
