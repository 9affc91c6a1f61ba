"""Package-level contracts: the public names and the numpy-only runtime."""

import ast
import sys
from pathlib import Path

import hamtrack
from hamtrack import tracker

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
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
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
