"""Per-module spans and counts, taken by wrapping hamtrack's module-level names.

The tracer swaps a function reachable as ``<module>.<name>`` (or a method as
``<class>.<name>``) for a wrapper, and puts the original back on ``restore``.
It passes every call through unchanged, so traced and untraced runs produce
the same output. Timed wrappers keep a span stack: each span adds its length
to its parent's child time, which gives the self time of ``Tracker.step``.
Hot, cheap calls (one per descriptor comparison) are only counted. A name
that no longer exists is recorded as absent instead of failing the run.
"""

import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)   # outermost time per group
        self.child = defaultdict(float)     # time covered by direct child spans
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent: set[str] = set()
        self._depth = defaultdict(int)
        self._stack: list[list[float]] = []
        self._undo = []
        self.frame_results = []             # what run_sequence returned

    def _target(self, path: str):
        """(owner, attribute, original) for a dotted path, or None if it is gone."""
        module_path, _, attr = path.rpartition(".")
        owner_path = None
        try:
            owner = importlib.import_module(module_path)
        except ImportError:
            module_path, _, owner_path = module_path.rpartition(".")
            try:
                owner = importlib.import_module(module_path)
            except ImportError:
                return None
        if owner_path is not None:
            owner = getattr(owner, owner_path, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            return None
        return owner, attr, original

    def _install(self, path, make_wrapper) -> None:
        target = self._target(path)
        if target is None:
            self.absent.add(path)
            return
        owner, attr, original = target
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((owner, attr, original))

    def time(self, path: str, group: str, on_call=None, on_result=None) -> None:
        """Time calls to ``path`` into ``group``; nested calls of one group count once."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(tracer, *args, **kwargs)
                frame = [0.0]
                tracer._stack.append(frame)
                tracer._depth[group] += 1
                t0 = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - t0
                    tracer._depth[group] -= 1
                    tracer._stack.pop()
                    if tracer._stack:
                        tracer._stack[-1][0] += elapsed
                    if tracer._depth[group] == 0:
                        tracer.seconds[group] += elapsed
                        tracer.child[group] += frame[0]
                    tracer.calls[path] += 1
                if on_result is not None:
                    on_result(tracer, result)
                return result
            return wrapper

        self._install(path, make)

    def count(self, path: str, key: str) -> None:
        """Count calls to ``path`` under ``key`` without timing them."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return wrapper

        self._install(path, make)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _add_bytes(tracer, data, *args, **kwargs):
    tracer.counts["io_mot.bytes_read"] += len(data)


def _collect_results(tracer, results):
    tracer.frame_results.extend(results)


def _count_matches(tracer, assignment):
    matches = getattr(assignment, "matches", None)
    if matches is None:
        tracer.absent.add("hamtrack.tracker.associate.matches")
    else:
        tracer.counts["association.matches"] += len(matches)


def install(tracer: Tracer) -> None:
    """Wrap every boundary the per-module metrics are measured at."""
    t = tracer.time
    t("hamtrack.tracker.Tracker.step", "tracker.step")
    for name in ("observe_frame", "adaptive_cutoff", "threshold"):
        t(f"hamtrack.sadf.{name}", "sadf")
    tracer.count("hamtrack.sadf.adaptive_cutoff", "sadf.cutoff_calls")
    t("hamtrack.kalman.predict", "kalman.predict")
    t("hamtrack.kalman.update", "kalman.update")
    t("hamtrack.tracker.build_sm_matrix", "affinity.sm")
    t("hamtrack.tracker.fuse_appearance", "affinity.fuse")
    tracer.count("hamtrack.appearance.score_embedding", "appearance.compare_calls")
    tracer.count("hamtrack.appearance.score_histogram", "appearance.compare_calls")
    t("hamtrack.tracker.maybe_store_history", "appearance.store")
    t("hamtrack.tracker.decay_confidence", "appearance.store")
    t("hamtrack.tracker.associate", "association", on_result=_count_matches)
    t("hamtrack.cli.parse_det_file", "io_mot.parse", on_call=_add_bytes)
    t("hamtrack.cli.parse_gt_file", "io_mot.parse", on_call=_add_bytes)
    t("hamtrack.cli.read_ppm", "io_mot.descriptor", on_call=_add_bytes)
    t("hamtrack.cli.histogram_from_patch", "io_mot.descriptor")
    t("hamtrack.cli.write_result_file", "io_mot.write")
    t("hamtrack.cli.run_sequence", "cli.run_sequence", on_result=_collect_results)
    t("hamtrack.metrics.clear_mot", "metrics.clear_mot")
    t("hamtrack.metrics.idf1", "metrics.idf1")
    t("hamtrack.synthgen.generate", "synthgen.generate")
