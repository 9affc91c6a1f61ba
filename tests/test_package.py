"""Package-level contracts: the public names and the numpy-only runtime."""

import ast
import sys
from pathlib import Path

import hamtrack

PUBLIC = [
    "AppearanceDescriptor", "AppearanceMemory", "BBox", "ConfidenceRegime",
    "Detection", "EvalReport", "FrameResult", "GeneratedScenario",
    "ObjectSpec", "OcclusionEvent", "ScenarioSpec", "Tracker", "TrackerConfig",
    "clear_mot", "evaluate", "generate", "ham", "idf1", "parse_scenario",
    "run_sequence", "score_embedding", "score_histogram", "validate_config",
    "validate_scenario",
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
