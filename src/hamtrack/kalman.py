"""Constant-velocity Kalman filtering for track motion and shape.

Each track carries two independent 4-state filters over dt = 1 frame:
motion on the box center [cx, cy, vx, vy] and shape on the box size
[w, h, dw, dh]. Both use the same linear model, so the operations here are
shared; only the initialization differs. Every operation runs on one filter
or on a stack of them: means (..., 4) and covariances (..., 4, 4), with the
noise arguments broadcast over the leading axes.

Noise is expressed as standard deviations in pixels. Callers typically scale
them by the current object height so near and far objects behave alike.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from .core import BBox

# Uninformed velocity prior, as a multiple of object height.
VEL_PRIOR_SCALE = 10.0


class KalmanState(NamedTuple):
    """Means (..., 4) and symmetric PSD covariances (..., 4, 4)."""

    mean: np.ndarray
    cov: np.ndarray

    def at(self, index) -> "KalmanState":
        """The filters at ``index`` of the leading axes."""
        return KalmanState(self.mean[index], self.cov[index])


def _transpose(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _diag(pair_std, rate_std) -> np.ndarray:
    """Diagonal covariances: ``pair_std`` on the observed pair, ``rate_std`` on the rates."""
    # float_power rounds as Python's float ``**`` (libm pow); x * x can differ in the last bit.
    pair_var, rate_var = np.float_power(pair_std, 2), np.float_power(rate_std, 2)
    var = np.stack(np.broadcast_arrays(pair_var, pair_var, rate_var, rate_var), axis=-1)
    return var[..., None] * np.eye(4)


def init(observed, scale, pos_std=None) -> KalmanState:
    """New filters on an observed pair (..., 2), with rates at zero.

    ``scale`` (the object height) sets the rate spread, ``VEL_PRIOR_SCALE``
    times it, and the default spread on the pair, a tenth of it.
    """
    observed = np.asarray(observed, dtype=float)
    lead = observed.shape[:-1]
    pos_std = 0.1 * scale if pos_std is None else pos_std
    cov = _diag(np.broadcast_to(pos_std, lead), np.broadcast_to(VEL_PRIOR_SCALE * scale, lead))
    return KalmanState(np.concatenate([observed, np.zeros_like(observed)], axis=-1), cov)


def init_motion(bbox: BBox, pos_std: float | None = None) -> KalmanState:
    """New motion filter centered on the box; velocity starts at zero."""
    return init(bbox.center(), bbox.h, pos_std)


def predict(state: KalmanState, process_std=0.0) -> KalmanState:
    """One-frame constant-velocity prediction: F x, F P F' + Q.

    Q is diagonal, ``process_std`` on the observed pair and half of it on the rates.
    F = [[I, I], [0, I]], so F P F' is a row add, then a column add: each entry has at
    most two nonzero terms, so it is the double the matrix product gives.
    """
    mean, cov = np.array(state.mean, dtype=float), np.array(state.cov, dtype=float)
    mean[..., :2] += mean[..., 2:]
    cov[..., :2, :] += cov[..., 2:, :]
    cov[..., :2] += cov[..., 2:]
    cov += _diag(process_std, np.divide(process_std, 2.0))
    return KalmanState(mean, (cov + _transpose(cov)) / 2.0)


def tallest(n_predicts: int, pos_ratio: float, process_ratio: float) -> float:
    """The largest scale (object height) whose filters, started by ``init`` with ``pos_std =
    pos_ratio * scale``, survive ``n_predicts`` predicts with ``process_std = process_ratio *
    scale`` with a factor of 16 to spare; for scales of at least 1, below which ``Tracker``
    takes its process noise from a height of 1. ``Tracker`` bounds a box's longer side by it,
    so that a centre ``x + w/2`` or ``y + h/2`` stays finite too.

    From a birth covariance diag(a², a², b², b²), with b = VEL_PRIOR_SCALE * scale, n predicts
    under Q = diag(q, q, q/4, q/4) make the largest entry, the observed pair's variance,
    a² + n² b² + q (n + n(n - 1)/8 + n(n - 1)(n - 2)/12), and predict forms twice it. Every
    term is a multiple of scale², so the scale is the square root of a ratio.
    """
    n = n_predicts
    growth = math.hypot(pos_ratio, VEL_PRIOR_SCALE * n,
                        process_ratio * math.sqrt(n + n * (n - 1) / 8 + n * (n - 1) * (n - 2) / 12))
    return math.sqrt(sys.float_info.max / 32) / growth


def shortest(pos_ratio: float, process_ratio: float) -> float:
    """The least scale (object height) whose updates divide by a normal double, 16 times the
    smallest, or 0 where the process noise alone does; below it the gain is NaN. An
    innovation variance holds the process noise ``process_ratio``² (``Tracker`` takes it from
    a height of at least 1) plus the measurement noise ``(pos_ratio * scale)``², or without
    that, at a filter's first update, its velocity prior ``(VEL_PRIOR_SCALE * scale)``²."""
    root = math.sqrt(16 * sys.float_info.min)
    if process_ratio >= root:
        return 0.0
    return root / (pos_ratio if pos_ratio > 0 else VEL_PRIOR_SCALE)


def _gain(S: np.ndarray, PHt: np.ndarray) -> np.ndarray:
    """Kalman gain P H' inv(S) for each filter."""
    try:
        return _transpose(np.linalg.solve(_transpose(S), _transpose(PHt)))
    except np.linalg.LinAlgError:
        if S.ndim > 2:
            # Solve the stack filter by filter, so only the singular ones fall back.
            rows = [_gain(s, p) for s, p in zip(S.reshape(-1, 2, 2), PHt.reshape(-1, 4, 2))]
            return np.reshape(rows, PHt.shape)
        # Singular innovation covariance: the state is already exactly known
        # in the measured subspace; the pseudo-inverse yields a zero gain there.
        return PHt @ np.linalg.pinv(S)


def update(state: KalmanState, measurement, measurement_std=0.0) -> KalmanState:
    """Correct predicted states with measurements (..., 2) of the observed pair.

    Uses the Joseph-form covariance update, which stays PSD for any gain and
    keeps the matrix symmetric over long operation sequences. H = [I, 0], so H P H',
    P H', H x and K H = [K, 0] are slices, the doubles the matrix products give.
    """
    z = np.asarray(measurement, dtype=float)
    if z.shape != state.mean.shape[:-1] + (2,) or not np.all(np.isfinite(z)):
        raise ValueError(f"measurement must be finite pairs matching the state, "
                         f"got {measurement!r}")
    R = np.eye(2) * np.float_power(measurement_std, 2)[..., None, None]
    P = state.cov
    S = P[..., :2, :2] + R
    PHt = P[..., :2]
    K = _gain(S, PHt)
    innovation = z - state.mean[..., :2]
    mean = state.mean + (K @ innovation[..., None])[..., 0]
    ikh = np.eye(4) - np.concatenate((K, np.zeros_like(K)), axis=-1)
    cov = ikh @ P @ _transpose(ikh) + K @ R @ _transpose(K)
    return KalmanState(mean, (cov + _transpose(cov)) / 2.0)


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
