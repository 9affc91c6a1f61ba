"""Online multi-object tracking with historical appearance matching,
shape-motion gating, and scene-adaptive detection filtering."""

from .appearance import (AppearanceMemory, HistoryEntry, baseline_appearance,
                         ham, history_weights, maybe_store_history,
                         score_descriptors, score_embedding, score_histogram,
                         update_histogram)
from .core import (AppearanceDescriptor, BBox, Detection, TrackerConfig,
                   config_from_mapping, parse_kv_text, validate_config)
from .metrics import EvalReport, clear_mot, evaluate, idf1
from .synthgen import (ConfidenceRegime, GeneratedScenario, ObjectSpec,
                       OcclusionEvent, ScenarioSpec, generate, parse_scenario,
                       validate_scenario)
from .tracker import FrameResult, Tracker, run_sequence

__all__ = [
    "AppearanceDescriptor", "AppearanceMemory", "BBox", "ConfidenceRegime",
    "Detection", "EvalReport", "FrameResult", "GeneratedScenario",
    "HistoryEntry", "ObjectSpec", "OcclusionEvent", "ScenarioSpec",
    "Tracker", "TrackerConfig", "baseline_appearance", "clear_mot",
    "config_from_mapping", "evaluate", "generate", "ham", "history_weights",
    "idf1", "maybe_store_history", "parse_kv_text", "parse_scenario",
    "run_sequence", "score_descriptors", "score_embedding",
    "score_histogram", "update_histogram", "validate_config",
    "validate_scenario",
]

__version__ = "0.1.0"
