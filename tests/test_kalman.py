import math
import sys

import numpy as np
import pytest

from hamtrack import kalman
from hamtrack.core import BBox


def random_state(rng):
    mean = rng.normal(size=4) * 20
    a = rng.normal(size=(4, 4))
    cov = a @ a.T + np.eye(4) * 0.1
    return kalman.KalmanState(mean, cov)


class TestInit:
    def test_motion_starts_at_center_with_zero_velocity(self):
        st = kalman.init_motion(BBox(0, 0, 10, 20))
        np.testing.assert_allclose(st.mean, [5.0, 10.0, 0.0, 0.0])

    def test_shape_starts_at_size(self):
        st = kalman.init((10.0, 20.0), 20.0)
        np.testing.assert_allclose(st.mean, [10.0, 20.0, 0.0, 0.0])

    def test_cov_symmetric_psd(self):
        for st in (kalman.init_motion(BBox(3, 4, 17, 31)),
                   kalman.init((17.0, 31.0), 31.0)):
            np.testing.assert_allclose(st.cov, st.cov.T)
            assert np.all(np.linalg.eigvalsh(st.cov) >= 0)

    def test_deterministic(self):
        a = kalman.init_motion(BBox(1, 2, 3, 4))
        b = kalman.init_motion(BBox(1, 2, 3, 4))
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov, b.cov)

    def test_zero_measurement_noise_pins_position(self):
        st = kalman.init_motion(BBox(0, 0, 10, 20), pos_std=0.0)
        assert st.cov[0, 0] == 0.0 and st.cov[1, 1] == 0.0
        assert st.cov[2, 2] > 0.0


class TestPredict:
    def test_constant_velocity_moves_mean(self):
        st = kalman.KalmanState(np.array([10.0, 10.0, 2.0, 0.0]), np.eye(4))
        np.testing.assert_allclose(kalman.position(kalman.predict(st)), [12.0, 10.0])

    def test_zero_velocity_keeps_position(self):
        st = kalman.KalmanState(np.array([7.0, -3.0, 0.0, 0.0]), np.eye(4))
        np.testing.assert_allclose(kalman.position(kalman.predict(st)), [7.0, -3.0])

    def test_matches_hand_computed_propagation(self):
        # Independent oracle: explicit F P F' + Q on one concrete instance.
        mean = np.array([1.0, 2.0, 0.5, -0.25])
        cov = np.array([[4.0, 0.5, 0.2, 0.0],
                        [0.5, 3.0, 0.0, 0.1],
                        [0.2, 0.0, 2.0, 0.3],
                        [0.0, 0.1, 0.3, 1.0]])
        s = 0.7
        F = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], float)
        Q = np.diag([s ** 2, s ** 2, (s / 2) ** 2, (s / 2) ** 2])
        expected_mean = F @ mean
        expected_cov = F @ cov @ F.T + Q
        out = kalman.predict(kalman.KalmanState(mean, cov), s)
        np.testing.assert_allclose(out.mean, expected_mean, atol=1e-12)
        np.testing.assert_allclose(out.cov, expected_cov, atol=1e-12)
        assert np.trace(out.cov) > np.trace(cov)


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
        assert state.cov.max() == state.cov[0, 0] == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("n, pos_ratio, process_ratio", [(11, 0.1, 0.05), (31, 0.5, 2.0)])
    def test_predict_overflows_at_four_times_the_limit(self, n, pos_ratio, process_ratio):
        # The factor of 16 to spare on the variance is 4 on the scale.
        limit = kalman.tallest(n, pos_ratio, process_ratio)

        def coast(scale):
            state = kalman.init(np.zeros(2), scale, pos_ratio * scale)
            with np.errstate(over="raise", invalid="raise"):
                for _ in range(n):
                    state = kalman.predict(state, process_ratio * scale)

        coast(4 * 0.999 * limit)
        with pytest.raises(FloatingPointError):
            coast(4 * 1.001 * limit)


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
        st = kalman.KalmanState(np.array([5.0, 6.0, 1.0, 1.0]), np.eye(4))
        out = kalman.update(st, (5.0, 6.0), 1.0)
        np.testing.assert_allclose(out.mean, st.mean, atol=1e-12)

    def test_zero_noise_snaps_to_measurement(self):
        st = kalman.KalmanState(np.array([5.0, 6.0, 0.0, 0.0]), np.eye(4))
        out = kalman.update(st, (8.0, 2.0), 0.0)
        np.testing.assert_allclose(kalman.position(out), [8.0, 2.0], atol=1e-12)

    def test_matches_hand_computed_gain(self):
        # Independent oracle: textbook gain/posterior formulas spelled out.
        mean = np.array([2.0, -1.0, 0.3, 0.8])
        cov = np.array([[5.0, 1.0, 0.5, 0.0],
                        [1.0, 4.0, 0.0, 0.5],
                        [0.5, 0.0, 3.0, 0.2],
                        [0.0, 0.5, 0.2, 2.0]])
        z = np.array([2.5, -0.5])
        r = 1.3
        H = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], float)
        R = np.eye(2) * r ** 2
        S = H @ cov @ H.T + R
        K = cov @ H.T @ np.linalg.inv(S)
        expected_mean = mean + K @ (z - H @ mean)
        ikh = np.eye(4) - K @ H
        expected_cov = ikh @ cov @ ikh.T + K @ R @ K.T
        out = kalman.update(kalman.KalmanState(mean, cov), z, r)
        np.testing.assert_allclose(out.mean, expected_mean, atol=1e-9)
        np.testing.assert_allclose(out.cov, expected_cov, atol=1e-9)

    def test_posterior_never_exceeds_prior_in_measured_subspace(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            st = random_state(rng)
            out = kalman.update(st, rng.normal(size=2) * 10, 0.5)
            assert out.cov[0, 0] <= st.cov[0, 0] + 1e-12
            assert out.cov[1, 1] <= st.cov[1, 1] + 1e-12

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

    def test_covariance_stays_symmetric_over_long_sequences(self):
        rng = np.random.default_rng(11)
        st = kalman.init_motion(BBox(0, 0, 30, 60))
        for _ in range(1000):
            st = kalman.predict(st, 1.5)
            if rng.random() < 0.7:
                st = kalman.update(st, rng.normal(size=2) * 50, 2.0)
            assert np.abs(st.cov - st.cov.T).max() <= 1e-9

    def test_clamped_wh_floors_at_one_pixel(self):
        st = kalman.KalmanState(np.array([0.5, -4.0, 0.0, 0.0]), np.eye(4))
        np.testing.assert_allclose(kalman.clamped_wh(st), [1.0, 1.0])

    def test_predicted_box_from_filters(self):
        motion = kalman.KalmanState(np.array([50.0, 40.0, 0.0, 0.0]), np.eye(4))
        shape = kalman.KalmanState(np.array([20.0, 10.0, 0.0, 0.0]), np.eye(4))
        box = kalman.predicted_box(motion, shape)
        assert (box.x, box.y, box.w, box.h) == (40.0, 35.0, 20.0, 10.0)


def stack(states):
    return kalman.KalmanState(np.array([s.mean for s in states]),
                              np.array([s.cov for s in states]))


def assert_rows_match(batched, singles):
    """Row k of a batched result equals the one-filter result k, to 1e-12 relative."""
    for k, single in enumerate(singles):
        for got, want in ((batched.mean[k], single.mean), (batched.cov[k], single.cov)):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())


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
        grid = kalman.KalmanState(grid.mean.reshape(30, 2, 4), grid.cov.reshape(30, 2, 4, 4))
        stds = rng.uniform(0.1, 3.0, size=(30, 1))
        z = rng.normal(size=(30, 2, 2)) * 30
        updated = kalman.update(kalman.predict(grid, stds), z, stds)
        flat = kalman.KalmanState(updated.mean.reshape(60, 4), updated.cov.reshape(60, 4, 4))
        singles = [kalman.update(kalman.predict(s, float(stds[k // 2, 0])), z[k // 2, k % 2],
                                 float(stds[k // 2, 0]))
                   for k, s in enumerate(states)]
        assert_rows_match(flat, singles)

    def test_singular_innovation_row_falls_back_alone(self):
        rng = np.random.default_rng(24)
        states = [random_state(rng) for _ in range(50)]
        # Row 7 knows its position exactly; with zero measurement noise its
        # innovation covariance is singular.
        states[7] = kalman.KalmanState(np.array([3.0, 4.0, 1.0, -1.0]),
                                       np.diag([0.0, 0.0, 2.0, 2.0]))
        z = rng.normal(size=(50, 2)) * 30
        stds = np.full(50, 0.0)
        batched = kalman.update(stack(states), z, stds)
        singles = [kalman.update(s, z[k], 0.0) for k, s in enumerate(states)]
        assert_rows_match(batched, singles)
        # The pseudo-inverse gives zero gain: the exactly known row stays put.
        np.testing.assert_array_equal(batched.mean[7], states[7].mean)

    def test_init_over_many_boxes(self):
        boxes = [BBox(3, 4, 17, 31), BBox(100, 50, 40, 90)]
        observed = np.array([b.center() for b in boxes])
        heights = np.array([b.h for b in boxes])
        batched = kalman.init(observed, heights)
        assert_rows_match(batched, [kalman.init_motion(b) for b in boxes])


# The generic forms the slices and adds in ``predict`` and ``update`` stand for.
F = np.array([[1.0, 0.0, 1.0, 0.0],
              [0.0, 1.0, 0.0, 1.0],
              [0.0, 0.0, 1.0, 0.0],
              [0.0, 0.0, 0.0, 1.0]])
H = np.array([[1.0, 0.0, 0.0, 0.0],
              [0.0, 1.0, 0.0, 0.0]])


def matmul_predict(state, process_std=0.0):
    cov = F @ state.cov @ F.T + kalman._diag(process_std, np.divide(process_std, 2.0))
    return kalman.KalmanState(state.mean @ F.T, (cov + np.swapaxes(cov, -1, -2)) / 2.0)


def matmul_update(state, measurement, measurement_std=0.0):
    z = np.asarray(measurement, dtype=float)
    R = np.eye(2) * np.float_power(measurement_std, 2)[..., None, None]
    P = state.cov
    K = kalman._gain(H @ P @ H.T + R, P @ H.T)
    mean = state.mean + (K @ (z - state.mean @ H.T)[..., None])[..., 0]
    ikh = np.eye(4) - K @ H
    cov = ikh @ P @ np.swapaxes(ikh, -1, -2) + K @ R @ np.swapaxes(K, -1, -2)
    return kalman.KalmanState(mean, (cov + np.swapaxes(cov, -1, -2)) / 2.0)


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


class TestMatchesMatmulForm:
    """``predict`` and ``update`` give every double of the F and H matrix products."""

    def check(self, state, process_std, z, measurement_std):
        assert_same_bits(kalman.predict(state, process_std), matmul_predict(state, process_std))
        assert_same_bits(kalman.update(state, z, measurement_std),
                         matmul_update(state, z, measurement_std))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(1, 80))
        states = stack([random_state(rng) for _ in range(n)])
        states = kalman.KalmanState(states.mean * 10.0 ** rng.integers(-3, 4, size=(n, 1)),
                                    states.cov * 10.0 ** rng.integers(-3, 4, size=(n, 1, 1)))
        self.check(states, rng.uniform(0.0, 5.0, size=n), rng.normal(size=(n, 2)) * 50,
                   rng.uniform(0.0, 5.0, size=n))

    def test_single_filter(self):
        rng = np.random.default_rng(930)
        self.check(random_state(rng), 0.7, rng.normal(size=2), 1.3)

    @pytest.mark.parametrize("seed", range(5))
    def test_tracker_layout_through_a_sequence(self, seed):
        # (tracks, [motion, shape]) filters from init, with zero rates, diagonal
        # covariances and the tracker's noise scaled by each track's height.
        rng = np.random.default_rng(940 + seed)
        observed = rng.uniform(10.0, 500.0, size=(40, 2, 2))
        state = kalman.init(observed, observed[:, 1, 1:])
        for _ in range(6):
            std = 0.05 * observed[:, 1, 1:]
            z = observed + rng.normal(size=observed.shape)
            self.check(state, std, z, std)
            state = kalman.update(kalman.predict(state, std), z, std)

    def test_zero_rates_and_exactly_zero_entries(self):
        rng = np.random.default_rng(950)
        cov = np.stack([random_state(rng).cov for _ in range(30)])
        cov[:10, :2, 2:] = cov[:10, 2:, :2] = 0.0
        cov[10:20] = np.diag([0.0, 3.0, 0.0, 1.5])
        cov[20:, 0, 0] = 0.0
        mean = rng.normal(size=(30, 4)) * 20
        mean[::2, 2:] = 0.0
        self.check(kalman.KalmanState(mean, cov), np.where(np.arange(30) % 3, 1.0, 0.0),
                   rng.normal(size=(30, 2)), np.where(np.arange(30) % 4, 0.5, 0.0))

    def test_singular_innovation_fallback_row(self):
        rng = np.random.default_rng(960)
        states = [random_state(rng) for _ in range(12)]
        states[5] = kalman.KalmanState(np.array([3.0, 4.0, 1.0, -1.0]),
                                       np.diag([0.0, 0.0, 2.0, 2.0]))
        self.check(stack(states), 0.0, rng.normal(size=(12, 2)) * 30, np.zeros(12))
        self.check(states[5], 0.0, np.array([1.0, 2.0]), 0.0)
