import math

import numpy as np
import pytest
from scipy import stats

from hamtrack.core import BBox, Detection, TrackerConfig
from hamtrack.sadf import SadfState, adaptive_cutoff, observe_frame, solve_tau_sa, threshold
from hamtrack.tracker import Tracker


def observe_stream(frames):
    state = SadfState()
    for t, confs in enumerate(frames, start=1):
        state = observe_frame(state, confs, t)
    return state


class TestNormalCdf:
    """Each component's CDF inside ``solve_tau_sa``, seen through its quantile.

    With ``beta`` at 1 (or 0) the mix is the recent (or global) component alone,
    so the solver's root is that component's Gaussian quantile.
    """

    @staticmethod
    def quantile(mu, sd, p, recent):
        other = (5.0, 3.0)
        if recent:
            return solve_tau_sa(mu, sd, *other, beta=1.0, p_d=p)
        return solve_tau_sa(*other, mu, sd, beta=0.0, p_d=p)

    def test_against_scipy(self):
        for recent in (True, False):
            for p in np.linspace(0.01, 0.99, 99):
                got = self.quantile(0.0, 1.0, float(p), recent)
                assert got == pytest.approx(stats.norm.ppf(p), abs=1e-7), (recent, p)

    def test_location_scale(self):
        for recent in (True, False):
            assert self.quantile(30.0, 10.0, 0.5, recent) == pytest.approx(30.0, abs=1e-7)
            assert self.quantile(30.0, 10.0, float(stats.norm.cdf(1.0)), recent) == \
                pytest.approx(40.0, abs=1e-6)

    def test_degenerate_step(self):
        # sd == 0 is a unit step: every quantile of the step alone is its jump ...
        for p in (0.01, 0.4, 0.99):
            assert solve_tau_sa(30.0, 0.0, 0.0, 1.0, beta=1.0, p_d=p) == pytest.approx(30.0, abs=1e-9)
        # ... and the step is 1 at mu itself: halved with N(30, 5), the mix is 0.25 + 0.5 = 0.75
        # at 30, which is the bracket [-20, 80]'s first midpoint, so the solver stops there.
        assert solve_tau_sa(30.0, 0.0, 30.0, 5.0, beta=0.5, p_d=0.75) == 30.0

    def test_negative_sd_rejected(self):
        for sd10, sd_all in ((-1.0, 5.0), (5.0, -1.0)):
            with pytest.raises(ValueError, match="standard deviations must be >= 0"):
                solve_tau_sa(30.0, sd10, 30.0, sd_all, 0.5, 0.4)


class TestObserveFrame:
    def test_ring_keeps_last_ten_frames(self):
        state = observe_stream([[float(t)] for t in range(1, 12)])
        assert state.recent == tuple((float(t),) for t in range(2, 12))
        assert state.t == 11

    def test_constant_stream_zero_variance(self):
        state = observe_stream([[30.0, 30.0, 30.0]] * 5)
        mean, sd = state.all_mean, math.sqrt(state.all_m2 / state.all_count)
        assert mean == pytest.approx(30.0)
        assert sd == pytest.approx(0.0, abs=1e-12)

    def test_streaming_matches_batch(self):
        rng = np.random.default_rng(17)
        values = rng.normal(40.0, 12.0, size=10_000)
        frames = np.array_split(values, 500)
        state = observe_stream([list(chunk) for chunk in frames])
        mean, sd = state.all_mean, math.sqrt(state.all_m2 / state.all_count)
        assert mean == pytest.approx(float(values.mean()), abs=1e-9)
        assert sd == pytest.approx(float(values.std()), abs=1e-9)

    def test_empty_frames_allowed(self):
        state = observe_stream([[], [5.0], []])
        assert state.all_count == 1
        assert state.t == 3

    def test_out_of_order_rejected(self):
        state = observe_stream([[1.0]])
        with pytest.raises(ValueError):
            observe_frame(state, [2.0], 3)


class TestSolveTauSa:
    def test_pure_global_matches_gaussian_quantile(self):
        got = solve_tau_sa(0.0, 1.0, 30.0, 10.0, beta=0.0, p_d=0.4)
        expected = 30.0 + 10.0 * stats.norm.ppf(0.4)
        assert got == pytest.approx(expected, abs=1e-4)
        assert got == pytest.approx(27.4665, abs=1e-4)

    def test_identical_components_ignore_beta(self):
        values = [solve_tau_sa(25.0, 4.0, 25.0, 4.0, beta=b, p_d=0.3)
                  for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-8)

    def test_symmetric_pair_at_half(self):
        got = solve_tau_sa(20.0, 5.0, 40.0, 5.0, beta=0.5, p_d=0.5)
        assert got == pytest.approx(30.0, abs=1e-6)

    def test_agrees_with_grid_search(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            mu10 = float(rng.uniform(-20, 80))
            sd10 = float(rng.uniform(0.5, 25))
            mu_all = float(rng.uniform(-20, 80))
            sd_all = float(rng.uniform(0.5, 25))
            beta = float(rng.uniform(0, 1))
            p_d = float(rng.uniform(0.05, 0.95))
            got = solve_tau_sa(mu10, sd10, mu_all, sd_all, beta, p_d)

            lo = min(mu10, mu_all) - 10 * max(sd10, sd_all)
            hi = max(mu10, mu_all) + 10 * max(sd10, sd_all)
            grid = np.arange(lo, hi, 1e-3)
            mixed = (beta * stats.norm.cdf(grid, mu10, sd10)
                     + (1 - beta) * stats.norm.cdf(grid, mu_all, sd_all))
            best = grid[int(np.argmin((mixed - p_d) ** 2))]
            assert got == pytest.approx(float(best), abs=1e-3)

    def test_degenerate_sd_converges_to_mean(self):
        assert solve_tau_sa(30.0, 0.0, 30.0, 0.0, 0.5, 0.4) == pytest.approx(30.0)
        got = solve_tau_sa(30.0, 0.0, 30.0, 5.0, 0.5, 0.7)
        assert 25.0 < got < 35.0

    def test_monotone_in_target_quantile(self):
        taus = [solve_tau_sa(20.0, 6.0, 35.0, 12.0, 0.5, p)
                for p in np.linspace(0.05, 0.95, 19)]
        assert all(b >= a - 1e-9 for a, b in zip(taus, taus[1:]))

    @staticmethod
    def per_step_solve(mu10, sd10, mu_all, sd_all, beta, p_d):
        """``solve_tau_sa`` as it was when each bisection step called ``normal_cdf``."""
        def normal_cdf(x, mu, sd):  # the package's, before its formula moved into the solver
            if sd == 0.0:
                return 1.0 if x >= mu else 0.0
            return 0.5 * math.erfc((mu - x) / (sd * math.sqrt(2.0)))

        def mixed(tau):
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
        for _ in range(200):
            mid = (lo + hi) / 2.0
            r = mixed(mid) - p_d
            if abs(r) <= 1e-9:
                return mid
            if r < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    def test_bits_equal_the_per_step_normal_cdf_solve(self):
        rng = np.random.default_rng(25)
        cases = [tuple(float(v) for v in (rng.uniform(-50, 150), rng.uniform(0, 40),
                                          rng.uniform(-50, 150), rng.uniform(0, 40),
                                          rng.uniform(0, 1), rng.uniform(0, 1)))
                 for _ in range(400)]
        cases += [  # degenerate: point masses, one or both, equal or apart, and extreme targets
            (30.0, 0.0, 30.0, 0.0, 0.5, 0.4), (30.0, 0.0, 30.0, 5.0, 0.5, 0.7),
            (30.0, 5.0, 40.0, 0.0, 0.3, 0.4), (10.0, 0.0, 40.0, 0.0, 0.5, 0.5),
            (-0.0, -0.0, 0.0, 0.0, 1.0, 0.0), (25.0, 3.0, 25.0, 3.0, 0.0, 1.0),
            (25.0, 3.0, 60.0, 1e-300, 1.0, 0.5), (25.0, 5e-324, 26.0, 2.0, 0.9, 0.2),
            (1e300, 1.0, -1e300, 1.0, 0.5, 0.5), (40.0, 7.0, 41.0, 7.0, 0.5, 0.0),
        ]
        cases += [(mu, sd, mu + shift, sd2, b, p)
                  for mu, sd, shift, sd2, b, p in rng.uniform(0, 1, size=(100, 6)).tolist()]
        for case in cases:
            got, expected = solve_tau_sa(*case), self.per_step_solve(*case)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), case


class TestThreshold:
    def test_no_samples_yet_uses_constant(self):
        cfg = TrackerConfig(tau_const=30.0)
        assert threshold(SadfState(), cfg) == 30.0

    def test_first_frame_blend(self):
        cfg = TrackerConfig(tau_const=30.0, rho=0.95, beta=0.0)
        state = observe_stream([[50.0, 50.0]])
        tau_sa = adaptive_cutoff(state, cfg)
        expected = 0.05 * tau_sa + 0.95 * 30.0
        assert threshold(state, cfg) == pytest.approx(expected, abs=1e-12)

    def test_constant_weight_vanishes(self):
        cfg = TrackerConfig(tau_const=-100.0, rho=0.95)
        rng = np.random.default_rng(3)
        state = observe_stream([list(rng.normal(30, 10, size=20)) for _ in range(200)])
        tau_sa = adaptive_cutoff(state, cfg)
        # rho^200 ~ 3.5e-5: the constant's pull is below 1e-4 of the gap
        assert abs(threshold(state, cfg) - tau_sa) <= 1e-4 * abs(-100.0 - tau_sa) + 1e-9

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(13)
        cfg = TrackerConfig(tau_const=30.0)
        state = SadfState()
        for t in range(1, 60):
            state = observe_frame(state, rng.normal(55, 7, size=15), t)
            tau_t = threshold(state, cfg)
            tau_sa = adaptive_cutoff(state, cfg)
            assert min(tau_sa, 30.0) - 1e-9 <= tau_t <= max(tau_sa, 30.0) + 1e-9

    def test_empty_recent_window_falls_back_to_global(self):
        cfg = TrackerConfig()
        state = observe_stream([[40.0, 42.0]] + [[]] * 10)
        assert state.recent == ((),) * 10
        assert adaptive_cutoff(state, cfg) is not None

    def test_precomputed_cutoff_gives_the_same_threshold(self):
        cfg = TrackerConfig(tau_const=30.0)
        state = observe_stream([[55.0, 61.0, 48.0], [52.0]])
        tau_sa = adaptive_cutoff(state, cfg)
        assert threshold(state, cfg, tau_sa) == threshold(state, cfg)
        assert threshold(SadfState(), cfg, None) == 30.0

    def test_tracker_solves_for_the_cutoff_once_per_frame(self, monkeypatch):
        calls = []
        monkeypatch.setattr("hamtrack.sadf.adaptive_cutoff",
                            lambda *args: calls.append(1) or adaptive_cutoff(*args))
        trk = Tracker(TrackerConfig(filter_mode="sadf"), use_appearance=False)
        for frame in range(1, 6):
            box = BBox(10.0 * frame, 100.0, 30.0, 60.0)
            out = trk.step(frame, [Detection(frame=frame, bbox=box, confidence=40.0 + frame)])
            assert out.diagnostics.tau_t == threshold(
                trk.sadf_state, trk.cfg, out.diagnostics.tau_sa)
        assert len(calls) == 5


def const_filter(confs, tau):
    """Confidences the tracker's constant filter keeps from one frame, in track-id order."""
    dets = [Detection(frame=1, bbox=BBox(50.0 + 150.0 * k, 100.0, 30.0, 60.0), confidence=c)
            for k, c in enumerate(confs)]
    out = Tracker(TrackerConfig(filter_mode="const", tau_const=tau),
                  use_appearance=False).step(1, dets)
    assert out.diagnostics.tau_t == tau
    assert out.diagnostics.n_kept == out.diagnostics.births == len(out.tracks)
    # every kept detection is born, and ids follow the kept detections' order
    assert [tid for tid, _ in out.tracks] == list(range(1, len(out.tracks) + 1))
    by_x = {d.bbox.x: d.confidence for d in dets}
    return [by_x[box.x] for _, box in out.tracks]


class TestFilterDetections:
    def test_very_low_threshold_keeps_all(self):
        assert const_filter([1.0, -5.0, 100.0], -1e18) == [1.0, -5.0, 100.0]

    def test_all_below_threshold(self):
        assert const_filter([1.0, 2.0], 50.0) == []

    def test_keeps_at_threshold_and_preserves_order(self):
        assert const_filter([10.0, 27.0, 30.0], 27.47) == [30.0]
        assert const_filter([10.0, 27.0, 30.0], 27.0) == [27.0, 30.0]


class TestConvergence:
    def test_stationary_stream_reaches_quantile(self):
        # N(30, 10) stream: tau_t should settle at 30 + 10*ppf(0.4) ~ 27.47
        rng = np.random.default_rng(29)
        cfg = TrackerConfig(tau_const=10.0, beta=0.5, p_d=0.4)
        state = SadfState()
        for t in range(1, 201):
            state = observe_frame(state, rng.normal(30, 10, size=25), t)
        target = 30.0 + 10.0 * stats.norm.ppf(0.4)
        assert threshold(state, cfg) == pytest.approx(target, rel=0.02)
