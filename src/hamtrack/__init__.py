"""Online multi-object tracking with historical appearance matching,
shape-motion gating, and scene-adaptive detection filtering."""

from .core import AppearanceDescriptor, BBox, Detection, TrackerConfig, validate_config
from .metrics import EvalReport, evaluate
from .synthgen import (ConfidenceRegime, GeneratedScenario, ObjectSpec,
                       OcclusionEvent, ScenarioSpec, generate, parse_scenario,
                       validate_scenario)
from .tracker import FrameResult, Tracker, run_sequence

__all__ = [
    "AppearanceDescriptor", "BBox", "ConfidenceRegime", "Detection", "EvalReport",
    "FrameResult", "GeneratedScenario", "ObjectSpec", "OcclusionEvent", "ScenarioSpec",
    "Tracker", "TrackerConfig", "evaluate", "generate", "parse_scenario", "run_sequence",
    "validate_config", "validate_scenario",
]

__version__ = "0.1.0"
