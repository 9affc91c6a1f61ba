import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamtrack import appearance
from hamtrack.appearance import (AppearanceMemory, HistoryEntry, MemoryBank, bank_of,
                                 decay_confidence, descriptor_rows, ham, ham_scores,
                                 history_weight_rows, history_weights,
                                 maybe_store_history, new_bank, score_embedding,
                                 score_histogram, scorer_for)
from hamtrack.core import AppearanceDescriptor, BBox, Detection, TrackerConfig, validate_config
from hamtrack.tracker import Tracker
from scenario_utils import embedding_reference, histogram_reference, sparse_histogram

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
        assert pair(scorer_for("histogram"), H([1.0, 0.0]), H([1.0, 0.0])) == pytest.approx(1.0)
        assert pair(scorer_for("embedding"), E([1.0, 0.0]), E([1.0, 0.0])) == pytest.approx(1.0)
        # Looked up when called, so a wrapped module function is the one used.
        monkeypatch.setattr(appearance, "score_embedding", lambda x, y: np.zeros(len(x)))
        assert pair(scorer_for("embedding"), E([1.0, 0.0]), E([1.0, 0.0])) == 0.0

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

    def test_rows_total_like_a_1d_sum(self):
        # Every length up to a 30-slot width, with lengths mixed across rows:
        # each row's weights have the bits of c / c.sum() on its own entries.
        rng = np.random.default_rng(12)
        lengths = np.repeat(np.arange(31), 6)
        conf = rng.uniform(0.6, 1.0, size=(len(lengths), 30))
        weights = history_weight_rows(conf, lengths)
        for k, n in enumerate(lengths.tolist()):
            c = np.array(conf[k, :n].tolist())
            assert np.array_equal(weights[k, :n], c / c.sum() if n else c)
            assert np.all(weights[k, n:] == 0.0)


class StubScorer:
    """Scores each stored row by a fixed value looked up by its bytes, for arithmetic-oracle tests.

    Each stored descriptor scores the same against every candidate.
    """

    def __init__(self, table):
        self.table = {d.values.tobytes(): v for d, v in table}

    def __call__(self, x, y):
        return np.array([self.table[row.tobytes()] for row in x])


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
        # c_r=0.5, score(recent)=0.8, history confs (0.5, 1.0) scoring (0.2, 0.6)
        # -> 0.5*0.8 + 0.5*(1/3*0.2 + 2/3*0.6) = 0.63333...
        recent, h1, h2, z = (unit([1.0, 0.0]), unit([0.0, 1.0]),
                             unit([1.0, 1.0]), unit([1.0, 2.0]))
        scorer = StubScorer([(recent, 0.8), (h1, 0.2), (h2, 0.6)])
        mem = AppearanceMemory(recent=recent, recent_conf=0.5,
                               history=(HistoryEntry(h1, 0.5, 1),
                                        HistoryEntry(h2, 1.0, 2)))
        assert ham(mem, z, scorer) == pytest.approx(0.5 * 0.8 + 0.5 * (0.2 / 3 + 0.4),
                                                    abs=1e-12)
        assert ham(mem, z, scorer) == pytest.approx(0.6333, abs=5e-5)
        bank, zs = bank_of([mem], [z, recent, h1])
        pairs = np.zeros(3, dtype=int), np.arange(3)
        np.testing.assert_array_equal(ham_scores(bank, *pairs, zs, scorer),
                                      [ham(mem, z, scorer)] * 3)
        np.testing.assert_array_equal(ham_scores(bank, *pairs, zs, scorer, use_ham=False),
                                      [0.8] * 3)

    def test_empty_history_degrades_to_baseline(self):
        mem = AppearanceMemory(recent=unit([1.0, 0.0]), recent_conf=0.3)
        z = unit([1.0, 1.0])
        assert ham(mem, z, score_embedding) == pair(score_embedding, mem.recent, z)

    def test_monotone_in_recent_score(self):
        recent, h1, z = unit([1.0, 0.0]), unit([0.0, 1.0]), unit([1.0, 1.0])
        mem = AppearanceMemory(recent=recent, recent_conf=0.4,
                               history=(HistoryEntry(h1, 0.7, 1),))
        values = []
        for s in np.linspace(0.0, 1.0, 11):
            scorer = StubScorer([(recent, float(s)), (h1, 0.5)])
            values.append(ham(mem, z, scorer))
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

    def test_one_call_per_slot_and_only_gated_pairs(self):
        # Rows holding 0, 2 and 3 entries: the recent slot plus three history
        # slots, each scored once over exactly the pairs whose row reaches it.
        rng = np.random.default_rng(8)
        memories = [AppearanceMemory(
            recent=unit(rng.normal(size=4)), recent_conf=0.5,
            history=tuple(HistoryEntry(unit(rng.normal(size=4)), 0.9, k + 1)
                          for k in range(n))) for n in (0, 2, 3)]
        bank, zs = bank_of(memories, [unit(rng.normal(size=4)) for _ in range(4)])
        pair_rows, pair_cols = np.array([0, 1, 2, 2]), np.array([3, 0, 1, 3])
        calls = []

        def scorer(x, y):
            calls.append(len(x))
            return score_embedding(x, y)

        got = ham_scores(bank, pair_rows, pair_cols, zs, scorer)
        assert calls == [4, 3, 3, 2]
        for p, (i, j) in enumerate(zip(pair_rows, pair_cols)):
            assert got[p] == ham(memories[i], AppearanceDescriptor("embedding", zs[j]),
                                 score_embedding)


def slot_loop_ham_scores(bank, rows, cols, z, scorer, use_ham=True):
    """HAM with one scorer call per slot on full rows: the reference for the support path."""
    lengths = np.zeros_like(bank.hist_len)
    if use_ham:
        lengths[rows] = np.where(bank.recent_conf[rows] < 1.0, bank.hist_len[rows], 0)
    weights = history_weight_rows(bank.hist_conf, lengths)
    order = np.argsort(-lengths[rows], kind="stable")
    r, n, y = rows[order], lengths[rows[order]], z[cols[order]]
    s = scorer(bank.recent[r], y)
    s_hist = np.zeros(len(r))
    for k in range(int(n.max(initial=0))):
        p = int(np.count_nonzero(n > k))
        s_hist[:p] += weights[r[:p], k] * scorer(bank.hist[r[:p], k], y[:p])
    c_r = bank.recent_conf[r]
    scores = np.empty(len(r))
    scores[order] = np.clip(np.where(n > 0, c_r * s + (1.0 - c_r) * s_hist, s), 0.0, 1.0)
    return scores


# The bins the detections of a frame fill. A sum over 512 bins adds each lane
# of 8 in a 128-bin block on its own and then joins lanes and blocks pairwise.
# The one- and two-bin detections, one of them in lane 2's column (10, 18),
# one across blocks (3, 300) and two at the row's ends (0,) and (0, 511), are
# scored on their own bins. The larger ones take the slot loop. Each of them
# puts bins where a pairwise sum joins the last two terms first: lanes 1, 4
# and 6 of block 0; blocks 0, 2 and 3; lanes 2, 4 and 6 of block 0 with 10
# and 18 in lane 2's column; one bin in each of four blocks; and lane 0's
# column of block 0 with bins of later blocks.
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


def entry_products(bank, rows, cols, z, use_ham=True):
    """Each pair's products with its recent and every history slot, their term counts, and
    which (pair, slot) entries HAM uses."""
    products = np.concatenate([bank.recent[:, None], bank.hist], axis=1)[rows] * z[cols][:, None]
    n = np.where(use_ham & (bank.recent_conf[rows] < 1.0), bank.hist_len[rows], 0)
    held = np.arange(bank.hist.shape[1] + 1) <= n[:, None]
    return products, np.count_nonzero(products, axis=2), held


class TestHistogramSupportPath:
    """With ``score_histogram``, ``ham_scores`` equals the slot loop on full rows bit for bit."""

    @staticmethod
    def counted(monkeypatch):
        """A counting ``score_histogram``, also installed as the module's own."""
        calls, original = [], appearance.score_histogram
        monkeypatch.setattr(appearance, "score_histogram",
                            lambda x, y: calls.append(len(x)) or original(x, y))
        return appearance.score_histogram, calls

    @pytest.mark.parametrize("use_ham", [True, False])
    @pytest.mark.parametrize("width", range(TrackerConfig().hist_max + 1))
    def test_matches_slot_loop(self, width, use_ham, monkeypatch):
        rng = np.random.default_rng(100 + width + 50 * use_ham)
        bank, rows, cols, z = shared_bins_frame(rng, width)
        scorer, calls = self.counted(monkeypatch)
        got = ham_scores(bank, rows, cols, z, scorer, use_ham)
        expected = slot_loop_ham_scores(bank, rows, cols, z, score_histogram, use_ham)
        assert np.array_equal(got, expected)
        # The scorer saw each entry of the pairs whose detection fills 3+ bins, and no other.
        _, _, held = entry_products(bank, rows, cols, z, use_ham)
        assert sum(calls) == np.count_nonzero(held[np.count_nonzero(z, axis=1)[cols] > 2])

    def test_frames_hold_every_overlap_and_a_reordered_sum_would_show(self):
        bank, rows, cols, z = shared_bins_frame(np.random.default_rng(7), 10)
        products, terms, held = entry_products(bank, rows, cols, z)
        small = np.count_nonzero(z, axis=1)[cols] <= 2
        assert set(terms[held & small[:, None]].tolist()) == {0, 1, 2}
        assert set(np.minimum(terms[held & ~small[:, None]], 4).tolist()) == {0, 1, 2, 3, 4}
        # Added in bin order, as a sum over the frame's bins adds them, some
        # entries of three or more terms miss the full row's sum by a bit.
        roots = np.sqrt(products[terms >= 3])
        in_bin_order = [functools.reduce(operator.add, row[row > 0].tolist()) for row in roots]
        assert np.any(np.array(in_bin_order) != roots.sum(axis=1))

    def test_many_two_bin_detections_skip_the_scorer(self, monkeypatch):
        rng = np.random.default_rng(11)
        bank, rows, cols, _ = shared_bins_frame(rng, 4)
        # Forty two-bin detections fill 80 bins between them.
        z = np.zeros((40, 512))
        z[np.repeat(np.arange(40), 2), rng.permutation(512)[:80]] = rng.uniform(0.1, 1.0, 80)
        z /= z.sum(axis=1, keepdims=True)
        assert np.count_nonzero(z.any(axis=0)) == 80
        rows, cols = np.indices((len(bank.recent), len(z))).reshape(2, -1)
        scorer, calls = self.counted(monkeypatch)
        got = ham_scores(bank, rows, cols, z, scorer)
        assert calls == [0]  # the slot loop's recent-slot call, over no pairs
        assert np.array_equal(got, slot_loop_ham_scores(bank, rows, cols, z, score_histogram))


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
