"""Online multi-object tracking with historical appearance matching,
shape-motion gating, and scene-adaptive detection filtering."""

from .appearance import AppearanceMemory, ham, score_embedding, score_histogram
from .core import AppearanceDescriptor, BBox, Detection, TrackerConfig, validate_config
from .metrics import EvalReport, clear_mot, evaluate, idf1
from .synthgen import (ConfidenceRegime, GeneratedScenario, ObjectSpec,
                       OcclusionEvent, ScenarioSpec, generate, parse_scenario,
                       validate_scenario)
from .tracker import FrameResult, Tracker, run_sequence

__all__ = [
    "AppearanceDescriptor", "AppearanceMemory", "BBox", "ConfidenceRegime",
    "Detection", "EvalReport", "FrameResult", "GeneratedScenario",
    "ObjectSpec", "OcclusionEvent", "ScenarioSpec", "Tracker", "TrackerConfig",
    "clear_mot", "evaluate", "generate", "ham", "idf1", "parse_scenario",
    "run_sequence", "score_embedding", "score_histogram", "validate_config",
    "validate_scenario",
]

__version__ = "0.1.0"
