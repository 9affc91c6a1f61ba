"""Constant-velocity Kalman filtering for track motion and shape.

Each track carries two independent 4-state filters over dt = 1 frame:
motion on the box center [cx, cy, vx, vy] and shape on the box size
[w, h, dw, dh]. Both use the same linear model, so the operations here are
shared; only the initialization differs. Every operation runs on one filter
or on a stack of them, with the noise arguments broadcast over the leading axes.

A filter's 4 x 4 covariance is always two equal 2 x 2 blocks, one per axis, with no cross
terms, as births, Q, R, F and H treat the two axes alike and apart. So a state is means
(..., 4) and (p, c, v) (..., 3): each axis's position variance, position-rate covariance and
rate variance. Every entry is the double the 4 x 4 matrix forms give.

Noise is expressed as standard deviations in pixels. Callers typically scale
them by the current object height so near and far objects behave alike.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from .core import LEAST_NOISE, BBox

# Uninformed velocity prior, as a multiple of object height.
VEL_PRIOR_SCALE = 10.0


class KalmanState(NamedTuple):
    """Means (..., 4) and covariances (..., 3) as (p, c, v), the same on both axes."""

    mean: np.ndarray
    cov: np.ndarray

    def at(self, index) -> "KalmanState":
        """The filters at ``index`` of the leading axes."""
        return KalmanState(self.mean[index], self.cov[index])


def init(observed, scale, pos_std=None) -> KalmanState:
    """New filters on an observed pair (..., 2), with rates at zero.

    ``scale`` (the object height) sets the rate spread, ``VEL_PRIOR_SCALE``
    times it, and the default spread on the pair, a tenth of it.
    """
    observed = np.asarray(observed, dtype=float)
    pos_std = 0.1 * scale if pos_std is None else pos_std
    cov = np.zeros(observed.shape[:-1] + (3,))
    # float_power rounds as Python's float ``**`` (libm pow); x * x can differ in the last bit.
    cov[..., 0], cov[..., 2] = np.float_power(pos_std, 2), np.float_power(VEL_PRIOR_SCALE * scale, 2)
    return KalmanState(np.concatenate([observed, np.zeros_like(observed)], axis=-1), cov)


def init_motion(bbox: BBox, pos_std: float | None = None) -> KalmanState:
    """New motion filter centered on the box; velocity starts at zero."""
    return init(bbox.center(), bbox.h, pos_std)


def predict(state: KalmanState, process_std=0.0) -> KalmanState:
    """One-frame constant-velocity prediction: F x, F P F' + Q.

    ``process_std`` is q: Q adds q² to p, 0 to c and (q/2)² to v. F P F' is a row add, then
    a column add: p' = (p + c) + (c + v), c' = c + v and v' = v. The matrix form's (P + P')/2
    changes none of them, as each entry's two products are one expression.
    """
    mean = np.array(state.mean, dtype=float)
    mean[..., :2] += mean[..., 2:]
    cov = np.array(state.cov, dtype=float)
    cov[..., :2] += cov[..., 1:]
    cov[..., 0] += cov[..., 1]
    cov += np.float_power(np.multiply.outer(process_std, (1.0, 0.0, 0.5)), 2)
    return KalmanState(mean, cov)


def tallest(n_predicts: int, pos_ratio: float, process_ratio: float) -> float:
    """The largest scale (object height) whose filters, started by ``init`` with ``pos_std =
    pos_ratio * scale``, survive ``n_predicts`` predicts with ``process_std = process_ratio *
    scale`` with their variance 32 times below the largest double; for scales of at least 1,
    below which ``Tracker`` takes its process noise from a height of 1. ``Tracker`` bounds a
    box's longer side by it, so that a centre ``x + w/2`` or ``y + h/2`` stays finite too.

    From a birth (p, c, v) = (a², 0, b²), with b = VEL_PRIOR_SCALE * scale, n predicts under
    process noise q make the largest entry, p, a² + n² b² + q² (n + n(n - 1)/8 + n(n - 1)(n -
    2)/12), the largest number predict forms. Every term is a multiple of scale², so the scale
    is the square root of a ratio.
    """
    n = n_predicts
    growth = math.hypot(pos_ratio, VEL_PRIOR_SCALE * n,
                        process_ratio * math.sqrt(n + n * (n - 1) / 8 + n * (n - 1) * (n - 2) / 12))
    return math.sqrt(sys.float_info.max / 32) / growth


def shortest(pos_ratio: float, process_ratio: float) -> float:
    """The least scale (object height) whose updates divide by a normal double, 16 times the
    smallest, or 0 where the process noise alone does; below it the gain overflows. S = p + r²
    holds the process noise ``process_ratio``² (``Tracker`` takes it from a height of at least
    1) plus the measurement noise ``(pos_ratio * scale)``², or without that, at a filter's
    first update, its velocity prior ``(VEL_PRIOR_SCALE * scale)``²."""
    if process_ratio >= LEAST_NOISE:
        return 0.0
    return LEAST_NOISE / (pos_ratio if pos_ratio > 0 else VEL_PRIOR_SCALE)


def update(state: KalmanState, measurement, measurement_std=0.0) -> KalmanState:
    """Correct predicted states with measurements (..., 2) of the observed pair.

    Each axis's innovation variance is S = p + r², and its gain (k1, k2) is (p, c) times 1/S,
    the doubles a matrix solve gives; where S is 0 the pair is exactly known and the gain is
    0, as the pseudo-inverse gives. The Joseph form, PSD for any gain, is formed as
    ((I - KH) P) (I - KH)' + K R K'; (P + P')/2 moves only c, whose two products differ.
    """
    z = np.asarray(measurement, dtype=float)
    if z.shape != state.mean.shape[:-1] + (2,) or not np.isfinite(z).all():
        raise ValueError(f"measurement must be finite pairs matching the state, "
                         f"got {measurement!r}")
    r2 = np.float_power(measurement_std, 2)
    cov = state.cov
    p, c, v = cov.transpose(cov.ndim - 1, *range(cov.ndim - 1)).copy()  # contiguous: faster
    s = p + r2
    inverse = 1.0 / np.where(s == 0.0, np.inf, s)
    k1, k2 = p * inverse, c * inverse
    innovation = z - state.mean[..., :2]
    mean = state.mean.copy()
    mean[..., :2] += k1[..., None] * innovation
    mean[..., 2:] += k2[..., None] * innovation
    a = 1.0 - k1  # (I - KH) is [[a, 0], [-k2, 1]] on each axis
    ap, ac, ck = a * p, a * c, c - k2 * p
    kr1, kr2 = k1 * r2, k2 * r2
    out = np.empty(cov.shape)
    out[..., 0] = ap * a + kr1 * k1
    out[..., 1] = (((ac - ap * k2) + kr1 * k2) + (ck * a + kr2 * k1)) / 2.0
    out[..., 2] = ((v - k2 * c) - ck * k2) + kr2 * k2
    return KalmanState(mean, out)


def position(state: KalmanState) -> np.ndarray:
    return state.mean[..., :2].copy()


def clamped_wh(state: KalmanState) -> np.ndarray:
    """Shape-state size floored at 1 px, since affinities divide by it."""
    return np.maximum(state.mean[..., :2], 1.0)


def predicted_box(motion: KalmanState, shape: KalmanState) -> BBox:
    """Box implied by one track's two filters' current means."""
    cx, cy = position(motion)
    w, h = clamped_wh(shape)
    return BBox(cx - w / 2.0, cy - h / 2.0, w, h)
