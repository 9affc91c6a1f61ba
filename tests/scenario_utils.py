"""Shared scenario builders, per-pair reference scores and pipeline glue for the test suite."""

import tracemalloc
from collections import defaultdict

import numpy as np

from hamtrack import (ConfidenceRegime, ObjectSpec, OcclusionEvent,
                      ScenarioSpec, evaluate, generate, run_sequence)
from hamtrack.appearance import history_weight_rows
from hamtrack.core import AppearanceDescriptor, Detection, TrackerConfig


def line_spec(n_objects=1, n_frames=40, seed=3, conf_mean=45.0, conf_std=0.0,
              jitter=0.0, **kwargs) -> ScenarioSpec:
    """Objects moving left to right on parallel lanes; noise-free by default."""
    objects = []
    for k in range(n_objects):
        y = 60.0 + 90.0 * k
        objects.append(ObjectSpec(
            waypoints=((1, 60.0, y), (n_frames, 560.0, y)),
            w=30.0 + 4.0 * k, h=60.0 + 8.0 * k))
    return ScenarioSpec(
        seed=seed, n_frames=n_frames, canvas_h=max(480, 120 + 90 * n_objects),
        objects=tuple(objects), jitter_std=jitter,
        regimes=(ConfidenceRegime(1, conf_mean, conf_std),), **kwargs)


def crossing_spec(seed: int, n_frames: int = 120) -> ScenarioSpec:
    """Two objects meet mid-canvas, vanish behind each other, and bounce back.

    The occlusion window starts two frames before the meeting point and runs
    3..8 frames depending on the seed, so straight-line prediction points at
    the wrong candidate on reappearance. The frame entering the occlusion
    carries a fully corrupted appearance vector.
    """
    meet = 48 + (seed % 9)
    span = 3 + (seed % 6)
    start = meet - 2
    v = 8.0
    ax0 = max(320.0 - v * (meet - 1), -160.0)
    bx0 = min(320.0 + v * (meet - 1), 800.0)
    return ScenarioSpec(
        seed=seed, n_frames=n_frames, canvas_w=640, canvas_h=480,
        objects=(
            ObjectSpec(waypoints=((1, ax0, 240.0), (meet, 316.0, 240.0),
                                  (n_frames, ax0, 240.0)), w=36.0, h=72.0),
            ObjectSpec(waypoints=((1, bx0, 236.0), (meet, 324.0, 236.0),
                                  (n_frames, bx0, 236.0)), w=38.0, h=76.0),
            ObjectSpec(waypoints=((1, 120.0, 100.0), (n_frames, 120.0, 420.0)),
                       w=32.0, h=64.0),
        ),
        events=(OcclusionEvent(obj=0, start=start, end=start + span - 1),
                OcclusionEvent(obj=1, start=start, end=start + span - 1)),
        fp_rate=0.0, jitter_std=1.0, embed_dim=512, embed_noise_std=0.01,
        corrupt_frames=1, corrupt_blend=1.0,
        regimes=(ConfidenceRegime(1, 45.0, 0.0),),
    )


def scenario_inputs(scenario):
    """Split a generated scenario into tracker inputs and evaluator ground truth."""
    emb = {(f, o): AppearanceDescriptor.embedding(v)
           for f, o, v in scenario.embeddings}
    dets = defaultdict(list)
    for frame, _, box, conf in scenario.det_rows:
        dets[frame].append(Detection(frame=frame, bbox=box, confidence=conf))
    gt_by_frame = defaultdict(list)
    for frame, gid, box, _ in scenario.gt_rows:
        gt_by_frame[frame].append((gid, box))
    return dict(dets), emb, dict(gt_by_frame)


def track_scenario(spec: ScenarioSpec, cfg: TrackerConfig):
    """Generate, track, and evaluate one scenario; returns (results, report)."""
    scenario = generate(spec)
    dets, emb, gt_by_frame = scenario_inputs(scenario)
    results = run_sequence(dets, cfg, descriptor_source=lambda f, o: emb[(f, o)],
                           n_frames=spec.n_frames)
    hyp_by_frame = {fr.frame: list(fr.tracks) for fr in results}
    report = evaluate(gt_by_frame, hyp_by_frame, 0.5)
    return results, report


def embedding_reference(a: np.ndarray, b: np.ndarray) -> float:
    """One pair's cosine score mapped onto [0, 1], taken with ``np.dot``."""
    return min(1.0, max(0.0, (1.0 + float(np.dot(a, b))) / 2.0))


def histogram_reference(a: np.ndarray, b: np.ndarray) -> float:
    """One pair's Bhattacharyya coefficient, taken with ``np.dot`` of square roots and clamped."""
    return min(1.0, max(0.0, float(np.dot(np.sqrt(a), np.sqrt(b)))))


def slot_loop_ham_scores(bank, rows, cols, z, scorer, use_ham=True):
    """HAM as the weighted sum of one scorer call per memory slot: a reference for ``ham_scores``.

    The recent slot is scored for every pair, then history slot k for the
    pairs whose track holds more than k entries, and the scores are blended.
    """
    lengths = np.zeros_like(bank.hist_len)
    if use_ham:
        lengths[rows] = np.where(bank.recent_conf[rows] < 1.0, bank.hist_len[rows], 0)
    weights = np.zeros_like(bank.hist_conf)
    weights[lengths > 0] = history_weight_rows(bank.hist_conf[lengths > 0], lengths[lengths > 0])
    order = np.argsort(-lengths[rows], kind="stable")
    r, n, y = rows[order], lengths[rows[order]], z[cols[order]]
    s = scorer(bank.recent[r], y)
    s_hist = np.zeros(len(r))
    for k in range(int(n.max(initial=0))):
        p = int(np.count_nonzero(n > k))
        s_hist[:p] += weights[r[:p], k] * scorer(bank.hist[r[:p], k], y[:p])
    c_r = bank.recent_conf[r]
    scores = np.empty(len(r))
    scores[order] = np.clip(np.where(n > 0, c_r * s + (1.0 - c_r) * s_hist, s), 0.0, 1.0)
    return scores


def sparse_histogram(rng, d: int) -> AppearanceDescriptor:
    """A random histogram with about a third of its bins empty, as patch histograms have."""
    bins = rng.exponential(size=d) * (rng.random(d) < 0.7)
    bins[rng.integers(d)] += 1.0
    return AppearanceDescriptor.histogram(bins, normalize=True)


def peak_bytes(call) -> int:
    """Bytes traced at the peak of ``call()`` above what was allocated before it."""
    call()  # first-call set-up (caches, lazily imported helpers) is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
