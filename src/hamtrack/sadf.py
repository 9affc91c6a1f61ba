"""Scene-adaptive detection filtering.

Detector confidence distributions vary wildly between scenes and drift within
one, so a fixed confidence cutoff either starves the tracker or floods it.
This module keeps two Gaussian summaries of the observed confidences, a
recent 10-frame window and an all-frames stream, and places the cutoff at the
``p_d`` quantile of their beta-weighted CDF mix. Early on, while samples are
scarce, the cutoff leans on a configured constant and hands over to the
adaptive estimate geometrically.
"""

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .core import TrackerConfig

RECENT_FRAMES = 10

# Largest confidence magnitude the statistics take: deviations stay under 2e100 and squares under
# 4e200, so window and Welford sums of fewer than about 1e107 confidences stay below 1.8e308.
MAX_CONFIDENCE = 1e100

_BISECT_TOL = 1e-9
_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class SadfState:
    """Running confidence statistics.

    ``recent`` holds the raw per-frame confidence lists of at most the last 10
    frames. ``all_count/all_mean/all_m2`` are Welford accumulators over every
    confidence ever observed, pre-filtering, so the estimate never censors
    itself. ``t`` is the index of the last observed frame.
    """

    recent: tuple[tuple[float, ...], ...] = ()
    all_count: int = 0
    all_mean: float = 0.0
    all_m2: float = 0.0
    t: int = 0


def observe_frame(state: SadfState, confidences: Iterable[float], t: int) -> SadfState:
    """Fold one frame's raw confidences into the statistics."""
    if t != state.t + 1:
        raise ValueError(f"frames must be observed in order: got {t} after {state.t}")
    confs = tuple(map(float, confidences))
    count, mean, m2 = state.all_count, state.all_mean, state.all_m2
    for c in confs:
        count += 1
        delta = c - mean
        mean += delta / count
        m2 += delta * (c - mean)
    return replace(state, recent=(state.recent + (confs,))[-RECENT_FRAMES:], all_count=count,
                   all_mean=mean, all_m2=m2, t=t)


def solve_tau_sa(mu10: float, sd10: float, mu_all: float, sd_all: float,
                 beta: float, p_d: float) -> float:
    """Quantile of the mixed CDF: the tau with beta*P10(tau) + (1-beta)*Pall(tau) = p_d.

    Each component's CDF is ``0.5 * erfc((mu - tau) / (sd * sqrt(2)))``, or with sd == 0
    a unit step (1 at and above mu). The mixed CDF is nondecreasing, so the minimizer of
    the squared residual is its root, found by bisection, which converges onto a step's jump.
    """
    if sd10 < 0 or sd_all < 0:
        raise ValueError("standard deviations must be >= 0")
    r10, r_all = sd10 * math.sqrt(2.0), sd_all * math.sqrt(2.0)

    def mixed(tau: float) -> float:
        p10 = 0.5 * math.erfc((mu10 - tau) / r10) if sd10 else float(tau >= mu10)
        p_all = 0.5 * math.erfc((mu_all - tau) / r_all) if sd_all else float(tau >= mu_all)
        return beta * p10 + (1.0 - beta) * p_all

    spread = 10.0 * max(sd10, sd_all)
    lo, hi = min(mu10, mu_all) - spread, max(mu10, mu_all) + spread
    if lo == hi:
        return lo
    if mixed(lo) >= p_d:
        return lo
    if mixed(hi) <= p_d:
        return hi
    for _ in range(_BISECT_MAX_ITER):
        mid = (lo + hi) / 2.0
        r = mixed(mid) - p_d
        if abs(r) <= _BISECT_TOL:
            return mid
        lo, hi = (mid, hi) if r < 0 else (lo, mid)
    return (lo + hi) / 2.0


def adaptive_cutoff(state: SadfState, cfg: TrackerConfig) -> Optional[float]:
    """Scene-adaptive cutoff from the current statistics; None before any sample.

    The recent window falls back to the all-frames summary while it is empty
    (for instance after a stretch of empty frames).
    """
    if state.all_count == 0:
        return None
    mu_all, sd_all = state.all_mean, math.sqrt(max(state.all_m2 / state.all_count, 0.0))
    mu10, sd10 = mu_all, sd_all
    recent = [c for frame in state.recent for c in frame]
    if recent:
        mu10 = sum(recent) / len(recent)
        sd10 = math.sqrt(max(sum([(v - mu10) ** 2 for v in recent]) / len(recent), 0.0))
    return solve_tau_sa(mu10, sd10, mu_all, sd_all, cfg.beta, cfg.p_d)


def threshold(state: SadfState, cfg: TrackerConfig, tau_sa: Optional[float] = None) -> float:
    """Blend of the adaptive and constant cutoffs: (1 - rho^t)*tau_sa + rho^t*tau_const.

    ``tau_sa`` is ``adaptive_cutoff(state, cfg)``, computed here unless the
    caller already has it. Until any confidence has been observed there is
    nothing to adapt to and the constant applies alone.
    """
    if state.all_count == 0:
        return cfg.tau_const
    if tau_sa is None:
        tau_sa = adaptive_cutoff(state, cfg)
    w = cfg.rho ** state.t
    return (1.0 - w) * tau_sa + w * cfg.tau_const
