import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamtrack import appearance
from hamtrack.appearance import (AppearanceMemory, HistoryEntry, MemoryBank, Scorer,
                                 bank_of, decay_confidence, descriptor_rows, ham, ham_scores,
                                 history_weights, maybe_store_history, new_bank,
                                 score_embedding, score_histogram, scorer_for)
from hamtrack.core import AppearanceDescriptor, BBox, Detection, TrackerConfig, validate_config
from hamtrack.tracker import Tracker
from scenario_utils import (embedding_reference, histogram_reference, slot_loop_ham_scores,
                            sparse_histogram)

H = AppearanceDescriptor.histogram
E = AppearanceDescriptor.embedding


def unit(vec):
    return E(vec, normalize=True)


def rows(*descriptors) -> np.ndarray:
    return np.array([x.values for x in descriptors])


def pair(scorer, a, b) -> float:
    """One pair's score through the row-aligned scorer contract."""
    return float(scorer(rows(a), rows(b))[0])


class TestScorers:
    def test_identical_histograms(self):
        assert pair(score_histogram, H([0.5, 0.5]), H([0.5, 0.5])) == pytest.approx(1.0)

    def test_disjoint_histograms(self):
        assert pair(score_histogram, H([1.0, 0.0]), H([0.0, 1.0])) == 0.0

    def test_bhattacharyya_value(self):
        # sqrt(0.2*0.6) + sqrt(0.8*0.4) computed independently
        expected = math.sqrt(0.12) + math.sqrt(0.32)
        got = pair(score_histogram, H([0.2, 0.8]), H([0.6, 0.4]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.9121, abs=5e-5)

    def test_embedding_identical_and_opposite(self):
        a = unit([1.0, 2.0, -1.0])
        b = unit([-1.0, -2.0, 1.0])
        assert pair(score_embedding, a, a) == pytest.approx(1.0)
        assert pair(score_embedding, a, b) == pytest.approx(0.0, abs=1e-12)

    def test_embedding_orthogonal(self):
        assert pair(score_embedding, E([1.0, 0.0]), E([0.0, 1.0])) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            descriptor_rows([H([0.5, 0.5]), H([0.2, 0.3, 0.5])], "histogram", 2)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="kind"):
            descriptor_rows([H([0.5, 0.5]), E([1.0, 0.0])], "histogram", 2)
        # A stream that switches kind fails where the frame's descriptors enter.
        descriptors = {(1, 0): E([1.0, 0.0]), (2, 0): H([0.5, 0.5])}
        tracker = Tracker(TrackerConfig(filter_mode="none"),
                          descriptor_source=lambda f, o: descriptors[f, o])
        box = BBox(10, 10, 30, 60)
        tracker.step(1, [Detection(1, box, 50.0)])
        with pytest.raises(ValueError, match="kind"):
            tracker.step(2, [Detection(2, box, 50.0)])

    def test_dispatch(self, monkeypatch):
        assert scorer_for("histogram") is score_histogram
        assert scorer_for("embedding") is score_embedding
        assert pair(scorer_for("histogram"), H([1.0, 0.0]), H([1.0, 0.0])) == pytest.approx(1.0)
        assert pair(scorer_for("embedding"), E([1.0, 0.0]), E([1.0, 0.0])) == pytest.approx(1.0)
        # The module's own values, even while its name is rebound (as a tracer
        # does); HAM rejects the function the name now holds.
        patched = lambda x, y: np.zeros(len(x))  # noqa: E731
        monkeypatch.setattr(appearance, "score_embedding", patched)
        assert scorer_for("embedding") is score_embedding
        memory = AppearanceMemory(E([1.0, 0.0]))
        assert ham(memory, E([1.0, 0.0]), scorer_for("embedding")) == 1.0
        with pytest.raises(ValueError, match="score_histogram or score_embedding only"):
            ham(memory, E([1.0, 0.0]), patched)

    @pytest.mark.parametrize("scorer", [
        functools.wraps(score_embedding)(lambda *args: score_embedding(*args)),  # a tracer's
        Scorer(lambda a: a, lambda c: c),
        Scorer(np.sqrt, lambda c: (1.0 + c) / 2.0),
    ])
    def test_ham_takes_the_two_built_in_values_only(self, scorer):
        memory = AppearanceMemory(E([1.0, 0.0]))
        with pytest.raises(ValueError, match="^HAM scores with score_histogram or "
                                             "score_embedding only, not "):
            ham(memory, E([1.0, 0.0]), scorer)

    def test_built_in_scorers_are_their_phi_and_link(self):
        x = np.array([[0.36, 0.64], [1.0, 0.0]])
        y = np.array([[0.64, 0.36], [0.0, 1.0]])
        assert score_histogram.phi is np.sqrt
        assert np.array_equal(score_histogram.link(x), x)
        assert np.array_equal(score_embedding.phi(x), x)
        assert np.array_equal(score_embedding.link(np.array([-1.0, 0.0, 1.0])), [0.0, 0.5, 1.0])
        for scorer in (score_histogram, score_embedding):
            phi, link = scorer
            assert np.array_equal(scorer(x, y), np.clip(link(np.vecdot(phi(x), phi(y))), 0, 1))

    @pytest.mark.parametrize("a,b", [(H([0.2, 0.8]), H([0.6, 0.4])),
                                     (E([0.6, 0.8]), E([1.0, 0.0]))])
    def test_dispatch_checks_the_pair_once(self, a, b, monkeypatch):
        checks = []
        original = appearance.descriptor_rows
        monkeypatch.setattr(appearance, "descriptor_rows",
                            lambda *args: checks.append(args) or original(*args))
        memory = AppearanceMemory(recent=a, recent_conf=0.5,
                                  history=(HistoryEntry(b, 0.9, 1), HistoryEntry(a, 0.6, 2)))
        scorer = scorer_for(a.kind)
        got = ham(memory, b, scorer)
        assert len(checks) == 1
        s_hist = 0.9 / 1.5 * pair(scorer, b, b) + 0.6 / 1.5 * pair(scorer, a, b)
        assert got == pytest.approx(0.5 * pair(scorer, a, b) + 0.5 * s_hist, abs=1e-12)

    def test_empty_sequences_give_empty_matrices(self):
        assert score_embedding(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)
        assert score_histogram(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)
        assert descriptor_rows([], "embedding", 3).shape == (0, 3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_scorer_contract(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        x = rows(*(unit(rng.normal(size=8)) for _ in range(n)))
        y = rows(*(unit(rng.normal(size=8)) for _ in range(n)))
        s_xy, s_yx = score_embedding(x, y), score_embedding(y, x)
        assert s_xy.shape == (n,)
        assert np.all((0.0 <= s_xy) & (s_xy <= 1.0))
        np.testing.assert_allclose(s_xy, s_yx, atol=1e-9)
        np.testing.assert_allclose(score_embedding(x, x), 1.0, atol=1e-9)


class TestScorersMatchPerPair:
    """Every gathered pair's score equals the per-pair scalar formula bit for bit."""

    @staticmethod
    def all_pairs(a, b):
        i, j = np.indices((len(a), len(b))).reshape(2, -1)
        return rows(*a)[i], rows(*b)[j]

    @pytest.mark.parametrize("d", [2, 16, 128, 512])
    @pytest.mark.parametrize("n, m", [(1, 1), (3, 7), (11, 15)])
    def test_embedding(self, d, n, m):
        rng = np.random.default_rng(d * 1000 + n * 100 + m)
        a = [unit(rng.normal(size=d)) for _ in range(n)]
        b = [unit(rng.normal(size=d)) for _ in range(m)]
        b[0] = a[0]  # one identical pair, whose dot can round past 1
        reference = [embedding_reference(x.values, y.values) for x in a for y in b]
        assert np.array_equal(score_embedding(*self.all_pairs(a, b)), reference)

    @pytest.mark.parametrize("d", [2, 16, 128, 512])
    @pytest.mark.parametrize("n, m", [(1, 1), (3, 7), (11, 15)])
    def test_histogram(self, d, n, m):
        rng = np.random.default_rng(d * 1000 + n * 100 + m + 7)
        a = [sparse_histogram(rng, d) for _ in range(n)]
        b = [sparse_histogram(rng, d) for _ in range(m)]
        b[0] = a[0]
        reference = [histogram_reference(x.values, y.values) for x in a for y in b]
        assert np.array_equal(score_histogram(*self.all_pairs(a, b)), reference)


def store(bank, z, affinity, frame, row=0, **cfg):
    """``maybe_store_history`` on one matched row."""
    return maybe_store_history(bank, [row], rows(z), z.kind, [affinity], frame,
                               TrackerConfig(**cfg))


class TestUpdateHistogram:
    """The histogram blend of the recent slot when a track is matched."""

    def blend(self, prev, matched, alpha):
        out = store(new_bank(rows(prev)), matched, 0.5, 1, alpha_mode=repr(alpha))
        return out.recent[0]

    def test_alpha_one_replaces(self):
        np.testing.assert_allclose(self.blend(H([0.2, 0.8]), H([0.6, 0.4]), 1.0), [0.6, 0.4])

    def test_alpha_zero_keeps(self):
        np.testing.assert_allclose(self.blend(H([0.2, 0.8]), H([0.6, 0.4]), 0.0), [0.2, 0.8])

    def test_halfway_blend(self):
        np.testing.assert_allclose(self.blend(H([0.2, 0.8]), H([0.6, 0.4]), 0.5), [0.4, 0.6],
                                   atol=1e-12)

    def test_alpha_out_of_range(self):
        cfg = TrackerConfig(alpha_mode="1.2")
        assert any("alpha_mode" in p for p in validate_config(cfg))
        with pytest.raises(ValueError, match="alpha_mode"):
            Tracker(cfg)

    def test_output_normalized(self):
        out = self.blend(H([0.1, 0.9]), H([0.7, 0.3]), 0.37)
        assert abs(float(out.sum()) - 1.0) <= 1e-9

    def test_rows_equal_descriptor_normalisation(self):
        # alpha*z + (1-alpha)*recent over its row sum, row by row, has the bits
        # AppearanceDescriptor.histogram(..., normalize=True) gives one blend.
        rng = np.random.default_rng(4)
        prev = [sparse_histogram(rng, 512) for _ in range(40)]
        matched = [sparse_histogram(rng, 512) for _ in range(40)]
        affinity = rng.uniform(0.0, 1.0, size=40)
        out = maybe_store_history(new_bank(rows(*prev)), np.arange(40), rows(*matched),
                                  "histogram", affinity, 1, TrackerConfig())
        for k, (p, z, a) in enumerate(zip(prev, matched, affinity.tolist())):
            expected = H(a * z.values + (1.0 - a) * p.values, normalize=True).values
            assert np.array_equal(out.recent[k], expected)


class TestHistoryWeights:
    def mem(self, confs):
        entries = tuple(HistoryEntry(unit([1.0, float(k)]), c, k + 1)
                        for k, c in enumerate(confs))
        return AppearanceMemory(recent=unit([1.0, 0.0]), recent_conf=0.5,
                                history=entries)

    def test_single_entry(self):
        np.testing.assert_allclose(history_weights(self.mem([0.7])), [1.0])

    def test_proportional(self):
        np.testing.assert_allclose(history_weights(self.mem([0.5, 1.0])),
                                   [1 / 3, 2 / 3])

    def test_uniform_for_equal_confidences(self):
        np.testing.assert_allclose(history_weights(self.mem([0.6] * 5)), [0.2] * 5)

    def test_empty_history_errors(self):
        with pytest.raises(ValueError, match="empty"):
            history_weights(AppearanceMemory(recent=unit([1.0, 0.0])))

    def test_all_zero_confidences_error(self):
        with pytest.raises(ValueError, match="zero"):
            history_weights(self.mem([0.0, 0.0]))

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=10))
    def test_weights_sum_to_one(self, confs):
        w = history_weights(self.mem(confs))
        assert abs(float(w.sum()) - 1.0) <= 1e-9
        assert np.all(w >= 0) and np.all(w <= 1)

class TestHam:
    def test_returns_a_float(self):
        mem = AppearanceMemory(recent=unit([1.0, 0.0]), recent_conf=0.5,
                               history=(HistoryEntry(unit([0.0, 1.0]), 0.9, 1),))
        assert type(ham(mem, unit([1.0, 1.0]), score_embedding)) is float

    def test_saturated_recent_confidence_ignores_history(self):
        recent, z = unit([1.0, 0.0]), unit([0.0, 1.0])
        hist = HistoryEntry(unit([1.0, 1.0]), 0.9, 1)
        mem = AppearanceMemory(recent=recent, recent_conf=1.0, history=(hist,))
        assert ham(mem, z, score_embedding) == pair(score_embedding, recent, z)

    def test_zero_recent_confidence_uses_history_only(self):
        recent = unit([1.0, 0.0])
        entry = unit([0.0, 1.0])
        mem = AppearanceMemory(recent=recent, recent_conf=0.0,
                               history=(HistoryEntry(entry, 0.8, 1),))
        z = unit([0.0, 1.0])
        assert ham(mem, z, score_embedding) == pytest.approx(
            pair(score_embedding, entry, z))

    def test_worked_example(self):
        # Against z, c_r=0.5, s(recent)=0.8, history confs (0.5, 1.0) scoring (0.2, 0.6)
        # -> 0.5*0.8 + 0.5*(1/3*0.2 + 2/3*0.6) = 0.63333...
        recent, h1, h2, z = (unit([0.6, 0.8]), unit([-0.6, 0.8]),
                             unit([0.2, math.sqrt(0.96)]), unit([1.0, 0.0]))
        mem = AppearanceMemory(recent=recent, recent_conf=0.5,
                               history=(HistoryEntry(h1, 0.5, 1),
                                        HistoryEntry(h2, 1.0, 2)))
        assert ham(mem, z, score_embedding) == pytest.approx(0.5 * 0.8 + 0.5 * (0.2 / 3 + 0.4),
                                                             abs=1e-12)
        assert ham(mem, z, score_embedding) == pytest.approx(0.6333, abs=5e-5)
        detections = [z, recent, h1]
        bank, zs = bank_of([mem], detections)
        pairs = np.zeros(3, dtype=int), np.arange(3)
        np.testing.assert_array_equal(ham_scores(bank, *pairs, zs, score_embedding),
                                      [ham(mem, x, score_embedding) for x in detections])
        # use_ham=False scores the recent row alone.
        np.testing.assert_array_equal(
            ham_scores(bank, *pairs, zs, score_embedding, use_ham=False),
            [pair(score_embedding, recent, x) for x in detections])
        assert pair(score_embedding, recent, z) == pytest.approx(0.8, abs=1e-12)

    def test_empty_history_degrades_to_baseline(self):
        mem = AppearanceMemory(recent=unit([1.0, 0.0]), recent_conf=0.3)
        z = unit([1.0, 1.0])
        assert ham(mem, z, score_embedding) == pair(score_embedding, mem.recent, z)

    def test_monotone_in_recent_score(self):
        # The recent appearance turns from opposite z to z, its score from 0 to 1.
        h1, z = unit([0.0, 1.0]), unit([1.0, 0.0])
        values, recent_scores = [], []
        for angle in np.linspace(math.pi, 0.0, 11):
            recent = unit([math.cos(angle), math.sin(angle)])
            mem = AppearanceMemory(recent=recent, recent_conf=0.4,
                                   history=(HistoryEntry(h1, 0.7, 1),))
            recent_scores.append(pair(score_embedding, recent, z))
            values.append(ham(mem, z, score_embedding))
        assert recent_scores[0] == pytest.approx(0.0) and recent_scores[-1] == pytest.approx(1.0)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_output_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        entries = tuple(
            HistoryEntry(unit(rng.normal(size=6)), float(rng.uniform(0.01, 1.0)), k + 1)
            for k in range(rng.integers(0, 5)))
        mem = AppearanceMemory(recent=unit(rng.normal(size=6)),
                               recent_conf=float(rng.uniform(0, 1)),
                               history=entries)
        out = ham(mem, unit(rng.normal(size=6)), score_embedding)
        assert 0.0 <= out <= 1.0

# The bins the detections of a frame fill: one and two bins, in one lane of
# a pairwise sum, across blocks and at the row's ends, and three to six bins
# spread over lanes and blocks.
DETECTION_BINS = ((7,), (10, 18), (3, 300), (1, 12, 22), (7, 300, 450), (2, 4, 6, 10, 18),
                  (5, 200, 300, 450), (64, 72, 80, 130, 260, 500), (0,), (0, 511))


def shared_bins_frame(rng, width, n_tracks=8, d=512):
    """A sparse histogram bank and frame whose stored entries share 0 to 6 bins with a detection.

    Each stored histogram picks one detection, shares from none to all of
    its bins and fills five bins no detection fills. The last detection
    duplicates the two-bin one across blocks. Track 0 has ``recent_conf ==
    1``, track 1 holds ``width`` entries, and slots past a track's history
    hold histograms too. Returns the bank, every (track, detection) pair and
    the detection rows.
    """
    z = np.zeros((len(DETECTION_BINS) + 1, d))
    for j, bins in enumerate(DETECTION_BINS):
        z[j, list(bins)] = rng.exponential(size=len(bins))
    z[-1] = z[2]
    z /= z.sum(axis=1, keepdims=True)
    outside = np.flatnonzero(~z.any(axis=0))

    def entry():
        bins = DETECTION_BINS[rng.integers(len(DETECTION_BINS))]
        shared = int(rng.integers(0, len(bins) + 1))
        v = np.zeros(d)
        v[rng.choice(bins, shared, replace=False)] = rng.exponential(size=shared)
        v[rng.choice(outside, 5, replace=False)] = rng.exponential(size=5)
        return v / v.sum()

    recent = np.array([entry() for _ in range(n_tracks)])
    hist = np.array([entry() for _ in range(n_tracks * width)]).reshape(n_tracks, width, d)
    lengths = rng.integers(0, width + 1, size=n_tracks)
    recent_conf = rng.uniform(0.05, 0.95, size=n_tracks)
    lengths[1], recent_conf[0] = width, 1.0
    bank = MemoryBank(recent, recent_conf, hist, rng.uniform(0.1, 1.0, size=(n_tracks, width)),
                      np.ones((n_tracks, width), dtype=int), lengths)
    rows, cols = np.indices((n_tracks, len(z))).reshape(2, -1)
    return bank, rows, cols, z


class TestHistogramSupportPath:
    """With ``score_histogram``, ``ham_scores`` equals the slot loop to a few ulp.

    Blending square-root rows before the inner product reorders the slot
    loop's arithmetic, which moves about a third of the scores by 1-4 ulp.
    """

    @pytest.mark.parametrize("use_ham", [True, False])
    @pytest.mark.parametrize("width", range(TrackerConfig().hist_max + 1))
    def test_matches_slot_loop(self, width, use_ham):
        rng = np.random.default_rng(100 + width + 50 * use_ham)
        bank, rows, cols, z = shared_bins_frame(rng, width)
        got = ham_scores(bank, rows, cols, z, score_histogram, use_ham)
        expected = slot_loop_ham_scores(bank, rows, cols, z, score_histogram, use_ham)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-15)


class TestBatchIndependence:
    """A pair's score from one ``ham_scores`` call over many tracks equals, bit for bit,
    ``ham`` of that pair alone on the track's own memory."""

    HIST_MAX = TrackerConfig().hist_max

    @staticmethod
    def memories(rng, make, width, repeats):
        """Every history length from 0 to ``width``, ``repeats`` times; a third of the
        memories at recent_conf 1."""
        lengths = np.repeat(np.arange(width + 1), repeats)
        return [AppearanceMemory(
            recent=make(), recent_conf=1.0 if k % 3 == 0 else float(rng.uniform(0.0, 1.0)),
            history=tuple(HistoryEntry(make(), float(rng.uniform(0.05, 1.0)), e + 1)
                          for e in range(n)))
            for k, n in enumerate(lengths.tolist())]

    @pytest.mark.parametrize("use_ham", [True, False])
    @pytest.mark.parametrize("kind, d", [("embedding", 128), ("histogram", 512)])
    def test_pair_alone_equals_pair_in_batch(self, kind, d, use_ham):
        rng = np.random.default_rng(d + use_ham)
        make = ((lambda: unit(rng.normal(size=d))) if kind == "embedding"
                else (lambda: sparse_histogram(rng, d)))
        memories = self.memories(rng, make, self.HIST_MAX, 6)
        detections = [make() for _ in range(40)]
        detections[3] = memories[-1].history[-1].descriptor  # a perfect match
        bank, z = bank_of(memories, detections)
        # Slots past a row's history hold stale appearances, as evicted slots do.
        stale = np.arange(bank.hist.shape[1]) >= bank.hist_len[:, None]
        bank.hist[stale] = [make().values for _ in range(np.count_nonzero(stale))]
        bank.hist_conf[stale] = rng.uniform(0.05, 1.0, size=np.count_nonzero(stale))
        # Every pair once, in a shuffled order.
        rows, cols = rng.permutation(np.indices((len(memories), len(z))).reshape(2, -1).T).T
        scores = ham_scores(bank, rows, cols, z, scorer_for(kind), use_ham)
        for p, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            alone = memories[i] if use_ham else dataclasses.replace(memories[i], history=())
            assert scores[p] == ham(alone, detections[j], scorer_for(kind)), (i, j)

    @pytest.mark.parametrize("use_ham", [True, False])
    @pytest.mark.parametrize("gate", ["one pair", "every pair", "some pairs"])
    @pytest.mark.parametrize("kind, d, width", [
        ("embedding", 1, 1), ("embedding", 3, 3), ("embedding", 127, 7), ("embedding", 129, 16),
        ("histogram", 5, 1), ("histogram", 33, 5), ("histogram", 255, 9)])
    def test_pairs_equal_ham_alone_on_a_bank_with_spare_rows(self, kind, d, width, gate, use_ham):
        # The tracker's bank is views of arrays whose spare rows, like the slots past each
        # history, hold finite stale values; the blend runs over the whole bank and the
        # products over the gated tracks x every detection.
        rng = np.random.default_rng([d, width, len(gate), use_ham])
        make = ((lambda: unit(rng.normal(size=d))) if kind == "embedding"
                else (lambda: sparse_histogram(rng, d)))
        memories = self.memories(rng, make, width, 3)
        detections = [make() for _ in range(9)]
        bank, z = bank_of(memories, detections)
        stale = np.arange(bank.hist.shape[1]) >= bank.hist_len[:, None]
        bank.hist[stale] = [make().values for _ in range(np.count_nonzero(stale))]
        bank.hist_conf[stale] = rng.uniform(0.05, 1.0, size=np.count_nonzero(stale))
        n, spare = len(memories), 5
        spare_rows = MemoryBank(
            np.array([make().values for _ in range(spare)]), rng.uniform(0.0, 1.0, spare),
            np.array([[make().values for _ in range(width)] for _ in range(spare)]),
            rng.uniform(0.05, 1.0, (spare, width)), rng.integers(1, 99, (spare, width)),
            rng.integers(0, width + 1, spare))
        bank = MemoryBank(*(np.concatenate([a, b])[:n] for a, b in zip(bank, spare_rows)))
        if gate == "one pair":
            rows, cols = rng.integers(0, n, 1), rng.integers(0, len(z), 1)
        else:
            mask = rng.uniform(size=(n, len(z))) < (1.0 if gate == "every pair" else 0.3)
            rows, cols = rng.permutation(np.argwhere(mask)).T
        scores = ham_scores(bank, rows, cols, z, scorer_for(kind), use_ham)
        for p, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            alone = memories[i] if use_ham else dataclasses.replace(memories[i], history=())
            expected = ham(alone, detections[j], scorer_for(kind))
            assert scores[p].tobytes() == np.float64(expected).tobytes(), (i, j)


class ReferenceMemory:
    """One track's memory kept the way a per-track object keeps it, as tuples."""

    def __init__(self, recent):
        self.recent, self.conf, self.history = recent, 1.0, ()

    def store(self, z, affinity, frame, cfg):
        self.conf = min(1.0, max(0.0, affinity))
        self.recent = z
        if affinity > cfg.tau_conf:
            self.history += ((z, self.conf, frame),)
        self.history = tuple(e for e in self.history if frame - e[2] <= cfg.hist_window)
        self.history = self.history[max(0, len(self.history) - cfg.hist_max):]


class TestMaybeStoreHistory:
    def bank(self):
        return new_bank(rows(unit([1.0, 0.0])))

    def test_below_threshold_refreshes_recent_only(self):
        new = unit([0.0, 1.0])
        out = store(self.bank(), new, 0.59, 5)
        assert out.hist_len[0] == 0 and out.hist.shape == (1, 0, 2)
        assert np.array_equal(out.recent[0], new.values)
        assert out.recent_conf[0] == pytest.approx(0.59)

    def test_at_threshold_not_stored(self):
        out = store(self.bank(), unit([0.0, 1.0]), 0.6, 5)
        assert out.hist_len[0] == 0

    def test_above_threshold_stored(self):
        new = unit([0.0, 1.0])
        out = store(self.bank(), new, 0.61, 5)
        assert out.hist_len[0] == 1
        assert out.hist_frame[0, 0] == 5
        assert out.hist_conf[0, 0] == pytest.approx(0.61)
        assert np.array_equal(out.hist[0, 0], new.values)

    def test_size_cap_evicts_oldest(self):
        bank = self.bank()
        for frame in range(1, 12):
            bank = store(bank, unit([1.0, float(frame)]), 0.9, frame, hist_window=100)
        assert bank.hist_len[0] == 10 and bank.hist.shape[1] == 10
        assert bank.hist_frame[0, 0] == 2  # frame-1 entry evicted

    def test_age_window_evicts(self):
        bank = store(self.bank(), unit([0.0, 1.0]), 0.9, 1)
        bank = store(bank, unit([1.0, 1.0]), 0.9, 17)
        frames = bank.hist_frame[0, :bank.hist_len[0]].tolist()
        assert frames == [17]  # the frame-1 entry is 16 frames old, window is 15

    def test_histogram_recent_blended_by_affinity(self):
        out = store(new_bank(rows(H([0.2, 0.8]))), H([0.6, 0.4]), 0.5, 3)
        np.testing.assert_allclose(out.recent[0], [0.4, 0.6], atol=1e-12)

    def test_fixed_alpha_mode(self):
        out = store(new_bank(rows(H([0.2, 0.8]))), H([0.6, 0.4]), 0.9, 3, alpha_mode="1.0")
        np.testing.assert_allclose(out.recent[0], [0.6, 0.4], atol=1e-12)

    def test_random_stimulus_preserves_invariants(self):
        # Random subsets of five rows matched each frame, against per-track
        # tuple memories: unmatched rows stay as they were, the window and the
        # cap evict in that order, and the width is the longest history held
        # so far.
        rng = np.random.default_rng(23)
        for cfg in (TrackerConfig(), TrackerConfig(hist_max=3, hist_window=6, tau_conf=0.3),
                    TrackerConfig(hist_max=0), TrackerConfig(hist_max=10, hist_window=2)):
            start = [unit(rng.normal(size=4)) for _ in range(5)]
            bank = new_bank(rows(*start))
            reference = [ReferenceMemory(d.values) for d in start]
            frame, longest = 0, 0
            for _ in range(1500):
                frame += int(rng.integers(1, 4))
                matched = np.flatnonzero(rng.random(5) < 0.6)
                zs = rng.normal(size=(len(matched), 4))
                zs /= np.linalg.norm(zs, axis=1, keepdims=True)
                affinity = rng.uniform(0, 1, size=len(matched))
                bank = maybe_store_history(bank, matched, zs, "embedding", affinity,
                                           frame, cfg)
                for i, z, a in zip(matched.tolist(), zs, affinity.tolist()):
                    reference[i].store(z, a, frame, cfg)
                longest = max(longest, bank.hist_len.max())
                assert bank.hist.shape[1] == longest
                assert longest <= min(cfg.hist_max, cfg.hist_window + 1)
                for i, ref in enumerate(reference):
                    n = bank.hist_len[i]
                    assert bank.recent_conf[i] == ref.conf
                    assert np.array_equal(bank.recent[i], ref.recent)
                    assert bank.hist_frame[i, :n].tolist() == [e[2] for e in ref.history]
                    assert bank.hist_conf[i, :n].tolist() == [e[1] for e in ref.history]
                    assert np.array_equal(bank.hist[i, :n],
                                          np.array([e[0] for e in ref.history]).reshape(n, 4))

    def test_nonfinite_affinity_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            store(self.bank(), unit([0.0, 1.0]), math.nan, 5)


class TestDecayConfidence:
    def test_decay(self):
        bank = store(new_bank(rows(unit([1.0, 0.0]), unit([0.0, 1.0]))),
                     unit([1.0, 1.0]), 0.8, 1)
        before = bank._make(a.copy() for a in bank)
        out = decay_confidence(bank, [0], 0.9)
        assert out.recent_conf[0] == pytest.approx(0.72)
        assert out.recent_conf[1] == 1.0
        for name in ("recent", "hist", "hist_conf", "hist_frame", "hist_len"):
            assert np.array_equal(getattr(out, name), getattr(before, name)), name

    def test_floor_at_zero(self):
        bank = new_bank(rows(unit([1.0, 0.0])))
        bank.recent_conf[0] = 1e-300
        assert decay_confidence(bank, [0], 0.0).recent_conf[0] == 0.0
