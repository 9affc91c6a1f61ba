"""A guard on the work of ``Tracker.step`` that timing cannot give: the Python and C calls one
step makes, counted with ``sys.setprofile`` on a fixed small crowd. The count depends only on
the code paths, not on the host's speed."""

import sys
from collections import Counter

from hamtrack import ConfidenceRegime, ObjectSpec, OcclusionEvent, ScenarioSpec, generate
from hamtrack.tracker import Tracker
from scenario_utils import scenario_inputs

# Ten objects in two rows walking past each other, with clutter, jitter and two occlusions,
# tracked on shape and motion alone: births, matches, misses and deaths in most frames.
CROWD = ScenarioSpec(
    seed=7, n_frames=30, fp_rate=1.0, jitter_std=1.5,
    objects=tuple(ObjectSpec(waypoints=((1, x0, y), (30, 640.0 - x0, y)), w=30.0 + 2.0 * k,
                             h=60.0 + 4.0 * k)
                  for k, (x0, y) in enumerate((40.0 + 110.0 * col + 30.0 * row, 100.0 + 150.0 * row)
                                              for row in range(2) for col in range(5))),
    events=(OcclusionEvent(obj=1, start=8, end=11, by=6), OcclusionEvent(obj=7, start=18, end=20)),
    regimes=(ConfidenceRegime(1, 40.0, 5.0),))

# The calls CROWD's 30 steps made when this bound was set, about 590 a step (numpy 2.4.6,
# Python 3.11.7); with 4 x 4 Kalman covariances they made 21,443, about 715 a step.
CALLS = 17_689


def calls(spec: ScenarioSpec) -> int:
    """The ``call`` and ``c_call`` profile events of every ``step`` over ``spec``, on a fresh
    tracker after one warm-up run, so that no first-call cost is counted."""
    dets, _, _ = scenario_inputs(generate(spec))
    events = Counter()

    def count(frame, event, arg):
        events[event] += 1

    for warm in (True, False):
        tracker = Tracker(use_appearance=False)
        for frame in range(1, spec.n_frames + 1):
            if not warm:
                sys.setprofile(count)
            try:
                tracker.step(frame, dets.get(frame, []))
            finally:
                sys.setprofile(None)
    return events["call"] + events["c_call"]


def test_steps_make_no_more_calls_than_they_did():
    assert calls(CROWD) <= CALLS
