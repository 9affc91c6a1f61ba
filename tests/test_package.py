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


# Reached from tests alone, and kept: ``history_weights`` and ``init_motion`` are the
# single-track reference API that acceptance tests C1-C9 import, and
# ``AppearanceDescriptor.histogram`` is the public twin of ``AppearanceDescriptor.embedding``.
TEST_ONLY = {"appearance.py:history_weights", "kalman.py:init_motion",
             "core.py:AppearanceDescriptor.histogram"}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of each non-dunder
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(name, line) of every name and attribute in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_function_is_reached_outside_the_tests():
    # A function that only tests call is code to delete, with its tests. Names are matched
    # by their last part, so a method counts as reached by any attribute of its name.
    sources = {path.name: ast.parse(path.read_text(), str(path))
               for path in sorted(Path(hamtrack.__file__).parent.glob("*.py"))}
    in_src = [(name, module, line) for module, tree in sources.items()
              for name, line in _references(tree)]
    reached = set(hamtrack.__all__)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reached |= {name for name, _ in _references(tree)}
        reached |= {part for node in ast.walk(tree)  # the tracer's dotted paths
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    for part in node.value.split(".")}
    defined, unreached = set(), []
    for module, tree in sources.items():
        for qualified, node in _definitions(tree):
            name = qualified.rpartition(".")[2]
            defined.add(f"{module}:{qualified}")
            if name in reached or any(
                    ref == name and (where != module or not node.lineno <= line <= node.end_lineno)
                    for ref, where, line in in_src):
                continue
            unreached.append(f"{module}:{qualified}")
    assert TEST_ONLY <= defined, f"allowlisted but gone: {sorted(TEST_ONLY - defined)}"
    extra = sorted(set(unreached) - TEST_ONLY)
    assert not extra, f"reached only by tests: {', '.join(extra)}"


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
