import math
import sys

import numpy as np
import pytest

from hamtrack import kalman
from hamtrack.core import BBox


def random_cov(rng, size=()):
    """Random (p, c, v) covariances: p and v positive, c² below p v."""
    p, v = rng.exponential(size=(2, *size)) + 0.05
    return np.stack([p, rng.uniform(-1.0, 1.0, size) * np.sqrt(p * v), v], axis=-1)


def random_state(rng):
    return kalman.KalmanState(rng.normal(size=4) * 20, random_cov(rng))


def full(cov):
    """The 4 x 4 covariances (..., 4, 4) that (p, c, v) covariances (..., 3) stand for."""
    p, c, v = np.moveaxis(np.asarray(cov, dtype=float), -1, 0)
    out = np.zeros(p.shape + (4, 4))
    out[..., 0, 0] = out[..., 1, 1] = p
    out[..., 0, 2] = out[..., 2, 0] = out[..., 1, 3] = out[..., 3, 1] = c
    out[..., 2, 2] = out[..., 3, 3] = v
    return out


def assert_psd(cov):
    """Each (p, c, v) is the 2 x 2 covariance [[p, c], [c, v]] of a PSD matrix, to rounding."""
    p, c, v = np.moveaxis(cov, -1, 0)
    eig = np.linalg.eigvalsh(np.stack([p, c, c, v], axis=-1).reshape(*p.shape, 2, 2))
    assert np.all(eig >= -1e-12 * np.maximum(1.0, np.abs(eig).max(initial=0.0)))


UNIT = np.array([1.0, 0.0, 1.0])  # the identity covariance


class TestInit:
    def test_motion_starts_at_center_with_zero_velocity(self):
        st = kalman.init_motion(BBox(0, 0, 10, 20))
        np.testing.assert_allclose(st.mean, [5.0, 10.0, 0.0, 0.0])

    def test_shape_starts_at_size(self):
        st = kalman.init((10.0, 20.0), 20.0)
        np.testing.assert_allclose(st.mean, [10.0, 20.0, 0.0, 0.0])

    def test_cov_diagonal_psd(self):
        for st in (kalman.init_motion(BBox(3, 4, 17, 31)),
                   kalman.init((17.0, 31.0), 31.0)):
            assert st.cov.shape == (3,) and st.cov[1] == 0.0
            assert_psd(st.cov)

    def test_deterministic(self):
        a = kalman.init_motion(BBox(1, 2, 3, 4))
        b = kalman.init_motion(BBox(1, 2, 3, 4))
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov, b.cov)

    def test_zero_measurement_noise_pins_position(self):
        st = kalman.init_motion(BBox(0, 0, 10, 20), pos_std=0.0)
        assert st.cov[0] == 0.0 and st.cov[2] > 0.0


class TestPredict:
    def test_constant_velocity_moves_mean(self):
        st = kalman.KalmanState(np.array([10.0, 10.0, 2.0, 0.0]), UNIT)
        np.testing.assert_allclose(kalman.position(kalman.predict(st)), [12.0, 10.0])

    def test_zero_velocity_keeps_position(self):
        st = kalman.KalmanState(np.array([7.0, -3.0, 0.0, 0.0]), UNIT)
        np.testing.assert_allclose(kalman.position(kalman.predict(st)), [7.0, -3.0])

    def test_matches_hand_computed_propagation(self):
        # Independent oracle: explicit F P F' + Q on one concrete instance.
        mean = np.array([1.0, 2.0, 0.5, -0.25])
        cov = np.array([4.0, 0.5, 2.0])
        s = 0.7
        F = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], float)
        Q = np.diag([s ** 2, s ** 2, (s / 2) ** 2, (s / 2) ** 2])
        expected_mean = F @ mean
        expected_cov = F @ full(cov) @ F.T + Q
        out = kalman.predict(kalman.KalmanState(mean, cov), s)
        np.testing.assert_allclose(out.mean, expected_mean, atol=1e-12)
        np.testing.assert_allclose(full(out.cov), expected_cov, atol=1e-12)
        assert out.cov[0] + out.cov[2] > cov[0] + cov[2]


class TestTallest:
    @pytest.mark.parametrize("n, pos_ratio, process_ratio", [
        (11, 0.1, 0.05), (1, 0.1, 0.05), (31, 0.5, 2.0), (4, 30.0, 0.0)])
    def test_closed_form_is_the_coasted_variance(self, n, pos_ratio, process_ratio):
        scale = 37.0
        state = kalman.init(np.zeros(2), scale, pos_ratio * scale)
        for _ in range(n):
            state = kalman.predict(state, process_ratio * scale)
        limit = kalman.tallest(n, pos_ratio, process_ratio)
        # The limit is where twice the largest entry reaches the largest double, over 16.
        bound = np.finfo(float).max / 32 * (scale / limit) ** 2
        assert state.cov.max() == state.cov[0] == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("n, pos_ratio, process_ratio", [(11, 0.1, 0.05), (31, 0.5, 2.0)])
    def test_predict_overflows_at_sqrt_32_times_the_limit(self, n, pos_ratio, process_ratio):
        # The factor of 32 to spare on the variance is √32 = 4√2 on the scale.
        limit = kalman.tallest(n, pos_ratio, process_ratio)

        def coast(scale):
            state = kalman.init(np.zeros(2), scale, pos_ratio * scale)
            with np.errstate(over="raise", invalid="raise"):
                for _ in range(n):
                    state = kalman.predict(state, process_ratio * scale)

        coast(math.sqrt(32) * 0.999 * limit)
        with pytest.raises(FloatingPointError):
            coast(math.sqrt(32) * 1.001 * limit)


class TestShortest:
    def test_process_noise_alone_keeps_the_gain_finite(self):
        assert kalman.shortest(0.1, 0.05) == kalman.shortest(0.0, 1.5e-153) == 0.0
        assert kalman.shortest(0.1, 0.0) == math.sqrt(16 * sys.float_info.min) / 0.1

    # Without measurement noise the floor is the first update's velocity prior.
    @pytest.mark.parametrize("pos_ratio", [0.1, 1.0, 30.0, 0.0])
    def test_updates_stay_finite_at_the_limit_and_not_far_below(self, pos_ratio):
        limit = kalman.shortest(pos_ratio, 0.0)

        def finite_after_updates(scale):
            state = kalman.init(np.zeros(2), scale, pos_ratio * scale)
            with np.errstate(all="ignore"):
                for _ in range(100):
                    state = kalman.update(kalman.predict(state), np.zeros(2), pos_ratio * scale)
            return bool(np.isfinite(state.cov).all())

        assert finite_after_updates(limit)
        assert not finite_after_updates(limit / 16)


class TestUpdate:
    def test_zero_innovation_keeps_mean(self):
        st = kalman.KalmanState(np.array([5.0, 6.0, 1.0, 1.0]), UNIT)
        out = kalman.update(st, (5.0, 6.0), 1.0)
        np.testing.assert_allclose(out.mean, st.mean, atol=1e-12)

    def test_zero_noise_snaps_to_measurement(self):
        st = kalman.KalmanState(np.array([5.0, 6.0, 0.0, 0.0]), UNIT)
        out = kalman.update(st, (8.0, 2.0), 0.0)
        np.testing.assert_allclose(kalman.position(out), [8.0, 2.0], atol=1e-12)

    def test_matches_hand_computed_gain(self):
        # Independent oracle: textbook gain/posterior formulas spelled out.
        mean = np.array([2.0, -1.0, 0.3, 0.8])
        cov = full([5.0, 0.5, 3.0])
        z = np.array([2.5, -0.5])
        r = 1.3
        H = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], float)
        R = np.eye(2) * r ** 2
        S = H @ cov @ H.T + R
        K = cov @ H.T @ np.linalg.inv(S)
        expected_mean = mean + K @ (z - H @ mean)
        ikh = np.eye(4) - K @ H
        expected_cov = ikh @ cov @ ikh.T + K @ R @ K.T
        out = kalman.update(kalman.KalmanState(mean, np.array([5.0, 0.5, 3.0])), z, r)
        np.testing.assert_allclose(out.mean, expected_mean, atol=1e-9)
        np.testing.assert_allclose(full(out.cov), expected_cov, atol=1e-9)

    def test_posterior_never_exceeds_prior_in_measured_subspace(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            st = random_state(rng)
            out = kalman.update(st, rng.normal(size=2) * 10, 0.5)
            assert out.cov[0] <= st.cov[0] + 1e-12

    @pytest.mark.parametrize("bad", [(np.nan, 0.0), (np.inf, 1.0), (1.0,)])
    def test_rejects_bad_measurement(self, bad):
        st = kalman.init_motion(BBox(0, 0, 10, 10))
        with pytest.raises(ValueError):
            kalman.update(st, bad, 1.0)


class TestProperties:
    def test_constant_velocity_exact_with_zero_noise(self):
        # With no process or measurement noise, a straight-line target is
        # reproduced exactly from the second frame on.
        v = np.array([3.0, -2.0])
        start = np.array([10.0, 20.0])
        st = kalman.init_motion(BBox(10.0 - 5, 20.0 - 10, 10, 20), pos_std=0.0)
        for k in range(1, 12):
            truth = start + v * k
            st = kalman.predict(st, 0.0)
            st = kalman.update(st, truth, 0.0)
            if k >= 2:
                np.testing.assert_allclose(kalman.position(st), truth, atol=1e-9)
                np.testing.assert_allclose(st.mean[2:], v, atol=1e-9)

    def test_covariance_stays_psd_over_long_sequences(self):
        rng = np.random.default_rng(11)
        st = kalman.init_motion(BBox(0, 0, 30, 60))
        for _ in range(1000):
            st = kalman.predict(st, 1.5)
            if rng.random() < 0.7:
                st = kalman.update(st, rng.normal(size=2) * 50, 2.0)
            assert_psd(st.cov)

    def test_clamped_wh_floors_at_one_pixel(self):
        st = kalman.KalmanState(np.array([0.5, -4.0, 0.0, 0.0]), UNIT)
        np.testing.assert_allclose(kalman.clamped_wh(st), [1.0, 1.0])

    def test_predicted_box_from_filters(self):
        motion = kalman.KalmanState(np.array([50.0, 40.0, 0.0, 0.0]), UNIT)
        shape = kalman.KalmanState(np.array([20.0, 10.0, 0.0, 0.0]), UNIT)
        box = kalman.predicted_box(motion, shape)
        assert (box.x, box.y, box.w, box.h) == (40.0, 35.0, 20.0, 10.0)


def stack(states):
    return kalman.KalmanState(np.array([s.mean for s in states]),
                              np.array([s.cov for s in states]))


def assert_rows_match(batched, singles):
    """Row k of a batched result has the bits of the one-filter result k."""
    for k, single in enumerate(singles):
        for got, want in ((batched.mean[k], single.mean), (batched.cov[k], single.cov)):
            np.testing.assert_array_equal(got, want, strict=True)


class TestBatched:
    """One call over many filters against one call per filter."""

    def test_predict_matches_single_filter_calls(self):
        rng = np.random.default_rng(21)
        states = [random_state(rng) for _ in range(60)]
        stds = rng.uniform(0.0, 3.0, size=60)
        batched = kalman.predict(stack(states), stds)
        assert_rows_match(batched, [kalman.predict(s, float(q)) for s, q in zip(states, stds)])

    def test_update_matches_single_filter_calls(self):
        rng = np.random.default_rng(22)
        states = [random_state(rng) for _ in range(60)]
        z = rng.normal(size=(60, 2)) * 30
        stds = rng.uniform(0.1, 3.0, size=60)
        batched = kalman.update(stack(states), z, stds)
        assert_rows_match(batched, [kalman.update(s, z[k], float(stds[k]))
                                    for k, s in enumerate(states)])

    def test_two_leading_axes(self):
        # The tracker's layout: (tracks, [motion, shape]), one std per track.
        rng = np.random.default_rng(23)
        states = [random_state(rng) for _ in range(60)]
        grid = stack(states)
        grid = kalman.KalmanState(grid.mean.reshape(30, 2, 4), grid.cov.reshape(30, 2, 3))
        stds = rng.uniform(0.1, 3.0, size=(30, 1))
        z = rng.normal(size=(30, 2, 2)) * 30
        updated = kalman.update(kalman.predict(grid, stds), z, stds)
        flat = kalman.KalmanState(updated.mean.reshape(60, 4), updated.cov.reshape(60, 3))
        singles = [kalman.update(kalman.predict(s, float(stds[k // 2, 0])), z[k // 2, k % 2],
                                 float(stds[k // 2, 0]))
                   for k, s in enumerate(states)]
        assert_rows_match(flat, singles)

    def test_zero_innovation_variance_row_keeps_its_mean(self):
        rng = np.random.default_rng(24)
        states = [random_state(rng) for _ in range(50)]
        # Row 7 knows its position exactly; with zero measurement noise its
        # innovation variance is 0, and its gain is 0.
        states[7] = kalman.KalmanState(np.array([3.0, 4.0, 1.0, -1.0]), np.array([0.0, 0.0, 2.0]))
        z = rng.normal(size=(50, 2)) * 30
        stds = np.full(50, 0.0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            batched = kalman.update(stack(states), z, stds)
        singles = [kalman.update(s, z[k], 0.0) for k, s in enumerate(states)]
        assert_rows_match(batched, singles)
        np.testing.assert_array_equal(batched.mean[7], states[7].mean)
        np.testing.assert_array_equal(batched.cov[7], states[7].cov)

    def test_init_over_many_boxes(self):
        boxes = [BBox(3, 4, 17, 31), BBox(100, 50, 40, 90)]
        observed = np.array([b.center() for b in boxes])
        heights = np.array([b.h for b in boxes])
        batched = kalman.init(observed, heights)
        assert_rows_match(batched, [kalman.init_motion(b) for b in boxes])


# The 4 x 4 forms that ``init``, ``predict`` and ``update`` replaced, kept as their reference:
# means (..., 4) and full covariances (..., 4, 4), with the gain from a matrix solve and, where
# the innovation covariance is singular, from its pseudo-inverse, filter by filter.
def _transpose(a):
    return np.swapaxes(a, -1, -2)


def _diag(pair_std, rate_std):
    pair_var, rate_var = np.float_power(pair_std, 2), np.float_power(rate_std, 2)
    var = np.stack(np.broadcast_arrays(pair_var, pair_var, rate_var, rate_var), axis=-1)
    return var[..., None] * np.eye(4)


def reference_init(observed, scale, pos_std):
    lead = np.shape(observed)[:-1]
    return _diag(np.broadcast_to(pos_std, lead),
                 np.broadcast_to(kalman.VEL_PRIOR_SCALE * np.asarray(scale), lead))


def reference_predict(mean, cov, process_std):
    mean, cov = np.array(mean, dtype=float), np.array(cov, dtype=float)
    mean[..., :2] += mean[..., 2:]
    cov[..., :2, :] += cov[..., 2:, :]
    cov[..., :2] += cov[..., 2:]
    cov += _diag(process_std, np.divide(process_std, 2.0))
    return mean, (cov + _transpose(cov)) / 2.0


def _gain(S, PHt):
    try:
        return _transpose(np.linalg.solve(_transpose(S), _transpose(PHt)))
    except np.linalg.LinAlgError:
        if S.ndim > 2:
            rows = [_gain(s, p) for s, p in zip(S.reshape(-1, 2, 2), PHt.reshape(-1, 4, 2))]
            return np.reshape(rows, PHt.shape)
        return PHt @ np.linalg.pinv(S)


def reference_update(mean, P, measurement, measurement_std):
    R = np.eye(2) * np.float_power(measurement_std, 2)[..., None, None]
    K = _gain(P[..., :2, :2] + R, P[..., :2])
    mean = mean + (K @ (np.asarray(measurement) - mean[..., :2])[..., None])[..., 0]
    ikh = np.eye(4) - np.concatenate((K, np.zeros_like(K)), axis=-1)
    cov = ikh @ P @ _transpose(ikh) + K @ R @ _transpose(K)
    return mean, (cov + _transpose(cov)) / 2.0


def assert_same_bits(got, want):
    """``got`` has every bit of ``want``, signed zeros included."""
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def assert_matches_reference(got: kalman.KalmanState, mean, cov):
    # The reference keeps the two equal blocks and zero cross terms (p, c, v) stands for.
    assert np.array_equal(full(cov[..., [0, 0, 2], [0, 2, 2]]), cov)
    assert_same_bits(got.mean, mean)
    assert_same_bits(got.cov, cov[..., [0, 0, 2], [0, 2, 2]])


class TestMatchesMatmulForm:
    """``init``, ``predict`` and ``update`` give every bit of the 4 x 4 forms."""

    def check(self, state, process_std, z, measurement_std):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = kalman.predict(state, process_std), kalman.update(state, z, measurement_std)
        assert_matches_reference(got[0], *reference_predict(state.mean, full(state.cov),
                                                            process_std))
        assert_matches_reference(got[1], *reference_update(state.mean, full(state.cov), z,
                                                           measurement_std))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(1, 80))
        mean = rng.normal(size=(n, 4)) * 20 * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        cov = random_cov(rng, (n,)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        self.check(kalman.KalmanState(mean, cov), rng.uniform(0.0, 5.0, size=n),
                   rng.normal(size=(n, 2)) * 50, rng.uniform(0.0, 5.0, size=n))

    @pytest.mark.parametrize("seed", range(10))
    def test_stacks_where_some_innovation_variances_are_zero(self, seed):
        # A filter with p = 0 and no measurement noise has S = 0: the reference solves the
        # stack filter by filter, and the pseudo-inverse gives those filters a zero gain.
        rng = np.random.default_rng(970 + seed)
        n = int(rng.integers(2, 60))
        cov = random_cov(rng, (n,))
        exact = rng.uniform(size=n) < 0.3
        exact[rng.integers(n)] = True
        cov[exact, :2] = 0.0
        cov[exact & (rng.uniform(size=n) < 0.5), 2] = 0.0
        r = np.where(exact | (rng.uniform(size=n) < 0.3), 0.0, rng.uniform(0.0, 2.0, size=n))
        state = kalman.KalmanState(rng.normal(size=(n, 4)) * 20, cov)
        self.check(state, np.where(rng.uniform(size=n) < 0.5, 0.0, 1.0), rng.normal(size=(n, 2)),
                   r)
        self.check(state, 0.0, rng.normal(size=(n, 2)), 0.0)  # every p > 0 has S > 0

    def test_single_filter(self):
        rng = np.random.default_rng(930)
        self.check(random_state(rng), 0.7, rng.normal(size=2), 1.3)
        self.check(kalman.KalmanState(rng.normal(size=4), np.array([0.0, 0.0, 2.0])), 0.0,
                   rng.normal(size=2), 0.0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("process_noise", [0.05, 0.0])
    def test_tracker_layout_through_a_sequence(self, seed, process_noise):
        # (tracks, [motion, shape]) filters from init, with zero rates, diagonal
        # covariances and the tracker's noise scaled by each track's height.
        rng = np.random.default_rng(940 + seed)
        observed = rng.uniform(10.0, 500.0, size=(40, 2, 2))
        heights = observed[:, 1, 1:]
        state = kalman.init(observed, heights)
        assert_matches_reference(state, np.concatenate([observed, 0 * observed], axis=-1),
                                 reference_init(observed, heights, 0.1 * heights))
        for _ in range(6):
            z = observed + rng.normal(size=observed.shape)
            self.check(state, process_noise * heights, z, 0.1 * heights)
            state = kalman.update(kalman.predict(state, process_noise * heights), z,
                                  0.1 * heights)

    @pytest.mark.parametrize("pos_ratio, process_ratio", [(0.1, 0.05), (0.0, 0.0), (1.0, 0.0),
                                                          (0.1, 0.0), (30.0, 2.0)])
    @pytest.mark.parametrize("end", ["tallest", "shortest"])
    def test_filters_at_the_tallest_and_shortest_heights(self, end, pos_ratio, process_ratio):
        # Filters born at the limits of ``Tracker``'s intake, coasting and matched as the
        # tracker runs them: process noise from a height of at least 1.
        n = 11
        scale = (kalman.tallest(n, pos_ratio, process_ratio) if end == "tallest" else
                 kalman.shortest(pos_ratio, process_ratio) or sys.float_info.min ** 0.25)
        observed = np.array([[0.0, 0.0], [scale, scale]])
        state = kalman.init(observed, scale, pos_ratio * scale)
        assert_matches_reference(state, np.concatenate([observed, 0 * observed], axis=-1),
                                 reference_init(observed, scale, pos_ratio * scale))
        q, r = process_ratio * max(scale, 1.0), pos_ratio * scale
        for k in range(n):
            self.check(state, q, observed, r)
            state = kalman.predict(state, q)
            if k % 3 == 1:
                state = kalman.update(state, observed, r)

    def test_zero_rates_and_exactly_zero_entries(self):
        rng = np.random.default_rng(950)
        cov = random_cov(rng, (30,))
        cov[:10, 1] = 0.0
        cov[10:20] = [0.0, 0.0, 1.5]
        cov[20:, 0] = cov[20:, 1] = 0.0
        mean = rng.normal(size=(30, 4)) * 20
        mean[::2, 2:] = 0.0
        self.check(kalman.KalmanState(mean, cov), np.where(np.arange(30) % 3, 1.0, 0.0),
                   rng.normal(size=(30, 2)), np.where(np.arange(30) % 4, 0.5, 0.0))
