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
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from .core import TrackerConfig

RECENT_FRAMES = 10

_BISECT_TOL = 1e-9
_BISECT_MAX_ITER = 200


def normal_cdf(x: float, mu: float = 0.0, sd: float = 1.0) -> float:
    """Gaussian CDF via the complementary error function.

    With sd == 0 the distribution is a point mass at ``mu`` and the CDF is a
    unit step (1 at and above ``mu``).
    """
    if sd < 0:
        raise ValueError(f"sd must be >= 0, got {sd}")
    if sd == 0.0:
        return 1.0 if x >= mu else 0.0
    return 0.5 * math.erfc((mu - x) / (sd * math.sqrt(2.0)))


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

    def recent_values(self) -> list[float]:
        return [c for frame in self.recent for c in frame]


def observe_frame(state: SadfState, confidences: Iterable[float], t: int) -> SadfState:
    """Fold one frame's raw confidences into the statistics."""
    if t != state.t + 1:
        raise ValueError(f"frames must be observed in order: got {t} after {state.t}")
    confs = tuple(float(c) for c in confidences)
    ring = deque(state.recent, maxlen=RECENT_FRAMES)
    ring.append(confs)
    count, mean, m2 = state.all_count, state.all_mean, state.all_m2
    for c in confs:
        count += 1
        delta = c - mean
        mean += delta / count
        m2 += delta * (c - mean)
    return replace(state, recent=tuple(ring), all_count=count,
                   all_mean=mean, all_m2=m2, t=t)


def _moments(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(max(var, 0.0))


def all_moments(state: SadfState) -> tuple[float, float]:
    """Mean and population std over every confidence observed so far."""
    if state.all_count == 0:
        raise ValueError("no confidences observed yet")
    return state.all_mean, math.sqrt(max(state.all_m2 / state.all_count, 0.0))


def solve_tau_sa(mu10: float, sd10: float, mu_all: float, sd_all: float,
                 beta: float, p_d: float) -> float:
    """Quantile of the mixed CDF: the tau with beta*P10(tau) + (1-beta)*Pall(tau) = p_d.

    The mixed CDF is nondecreasing, so the minimizer of the squared residual
    is its root, found by bisection. Degenerate sd == 0 components turn into
    unit steps and bisection converges onto the jump instead.
    """
    if sd10 < 0 or sd_all < 0:
        raise ValueError("standard deviations must be >= 0")

    def mixed(tau: float) -> float:
        return (beta * normal_cdf(tau, mu10, sd10)
                + (1.0 - beta) * normal_cdf(tau, mu_all, sd_all))

    spread = 10.0 * max(sd10, sd_all)
    lo = min(mu10, mu_all) - spread
    hi = max(mu10, mu_all) + spread
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
        if r < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def adaptive_cutoff(state: SadfState, cfg: TrackerConfig) -> Optional[float]:
    """Scene-adaptive cutoff from the current statistics; None before any sample.

    The recent window falls back to the all-frames summary while it is empty
    (for instance after a stretch of empty frames).
    """
    if state.all_count == 0:
        return None
    recent = state.recent_values()
    mu_all, sd_all = all_moments(state)
    if recent:
        mu10, sd10 = _moments(recent)
    else:
        mu10, sd10 = mu_all, sd_all
    return solve_tau_sa(mu10, sd10, mu_all, sd_all, cfg.beta, cfg.p_d)


def threshold(state: SadfState, cfg: TrackerConfig) -> float:
    """Blend of the adaptive and constant cutoffs: (1 - rho^t)*tau_sa + rho^t*tau_const.

    Until any confidence has been observed there is nothing to adapt to and
    the constant applies alone.
    """
    tau_sa = adaptive_cutoff(state, cfg)
    if tau_sa is None:
        return cfg.tau_const
    w = cfg.rho ** state.t
    return (1.0 - w) * tau_sa + w * cfg.tau_const

