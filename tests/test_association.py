import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from hamtrack.affinity import AffinityMatrix
from hamtrack.association import (FIRST_STEP_BLOCK, Assignment, _solve_min, associate,
                                  hungarian_max)


def reference_solve_min(cost):
    """The plain scalar solver: every Dijkstra step walks all columns twice.

    ``_solve_min`` must return exactly this column list, ties included.
    """
    n, m = cost.shape
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    assigned_row = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        assigned_row[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = assigned_row[j0]
            delta = INF
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[assigned_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if assigned_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            assigned_row[j0] = assigned_row[j1]
            j0 = j1
    out = [-1] * n
    for j in range(1, m + 1):
        if assigned_row[j]:
            out[assigned_row[j] - 1] = j - 1
    return out


def brute_force_max(mat):
    n, m = mat.shape
    best = -np.inf
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            best = max(best, sum(mat[i, perm[i]] for i in range(n)))
    else:
        for perm in itertools.permutations(range(n), m):
            best = max(best, sum(mat[perm[j], j] for j in range(m)))
    return best


def total(mat, pairs):
    return sum(mat[i, j] for i, j in pairs)


def cost_grids(kind, count, seed):
    """``count`` seeded (n <= m) cost matrices of one kind."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        if kind == "sparse_crowd":
            n, m = 150, 170
        else:
            n = int(rng.integers(1, 10))
            m = int(rng.integers(n, 13))
        if kind == "ints":
            yield rng.integers(0, 3, size=(n, m)).astype(float)
        elif kind == "zeros":
            yield np.zeros((n, m))
        elif kind == "max_heavy":
            cost = rng.random((n, m))
            cost[rng.random((n, m)) < 0.6] = cost.max()
            yield cost
        elif kind == "milli":
            yield rng.random((n, m)) * 1e-3
        else:
            affinity = rng.random((n, m))
            affinity[rng.random((n, m)) < 0.7] = 0.0
            yield affinity.max() - affinity


def matrix(values, tau=0.0):
    vals = np.asarray(values, dtype=float)
    return AffinityMatrix(values=vals, gate_mask=vals > tau)


class TestHungarianMax:
    def test_two_by_two(self):
        mat = np.array([[0.9, 0.1], [0.2, 0.8]])
        pairs = hungarian_max(mat)
        assert pairs == [(0, 0), (1, 1)]
        assert total(mat, pairs) == pytest.approx(1.7)

    def test_one_by_one(self):
        assert hungarian_max([[0.42]]) == [(0, 0)]

    def test_empty(self):
        assert hungarian_max(np.zeros((0, 3))) == []
        assert hungarian_max(np.zeros((3, 0))) == []

    def test_rectangular_leaves_surplus_unmatched(self):
        mat = np.array([[0.9, 0.1, 0.5]])
        assert hungarian_max(mat) == [(0, 0)]
        tall = np.array([[0.9], [0.95], [0.1]])
        assert hungarian_max(tall) == [(1, 0)]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            hungarian_max([[np.nan]])

    @pytest.mark.parametrize("seed", range(20))
    def test_optimal_on_random_squares(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        mat = rng.random((n, n))
        pairs = hungarian_max(mat)
        assert len(pairs) == n
        assert total(mat, pairs) == pytest.approx(brute_force_max(mat), abs=1e-9)

    @pytest.mark.parametrize("seed", range(20, 40))
    def test_optimal_on_random_rectangles(self, seed):
        rng = np.random.default_rng(seed)
        n, m = (int(v) for v in rng.integers(1, 7, size=2))
        mat = rng.random((n, m))
        pairs = hungarian_max(mat)
        assert len(pairs) == min(n, m)
        assert total(mat, pairs) == pytest.approx(brute_force_max(mat), abs=1e-9)

    def test_label_invariance(self):
        rng = np.random.default_rng(77)
        mat = rng.random((5, 6))
        pairs = dict(hungarian_max(mat))
        rp = rng.permutation(5)
        cp = rng.permutation(6)
        permuted = mat[np.ix_(rp, cp)]
        pairs_perm = dict(hungarian_max(permuted))
        # mapping back must give the same matching (generic values, no ties)
        back = {int(rp[i]): int(cp[j]) for i, j in pairs_perm.items()}
        assert back == {int(k): int(v) for k, v in pairs.items()}

    def test_determinism(self):
        rng = np.random.default_rng(123)
        mat = rng.random((6, 6))
        assert hungarian_max(mat) == hungarian_max(mat.copy())


class TestSolveMinMatchesReference:
    @pytest.mark.parametrize("kind,count,seed", [
        ("ints", 1000, 1),
        ("zeros", 200, 2),
        ("max_heavy", 1000, 3),
        ("milli", 1000, 4),
        ("sparse_crowd", 3, 5),
    ])
    def test_same_columns(self, kind, count, seed):
        for k, cost in enumerate(cost_grids(kind, count, seed)):
            assert _solve_min(cost) == reference_solve_min(cost), f"{kind} grid {k}"

    @pytest.mark.parametrize("kind,seed", [("ints", 6), ("max_heavy", 7), ("milli", 8)])
    def test_totals_match_scipy(self, kind, seed):
        for k, cost in enumerate(cost_grids(kind, 300, seed)):
            affinity = cost.max() - cost
            for mat in (affinity, affinity.T):
                rows, cols = linear_sum_assignment(mat, maximize=True)
                assert total(mat, hungarian_max(mat)) == pytest.approx(
                    mat[rows, cols].sum(), abs=1e-9), f"{kind} grid {k}"


def crowd_cost(rng, n=150, m=170, zero_share=0.85):
    """A cost grid like a 150-object crowd's: most pairs have zero affinity."""
    affinity = rng.random((n, m))
    affinity[rng.random((n, m)) < zero_share] = 0.0
    return affinity.max() - affinity


class TestBatchedFirstStep:
    """Grids on which the first step of many rows lands on a taken column, or ties."""

    @pytest.mark.parametrize("seed", range(10))
    def test_every_row_prefers_one_column(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 15))
        cost = 1.0 + rng.random((n, int(rng.integers(n, 18))))
        cost[:, int(rng.integers(cost.shape[1]))] = rng.random(n) * 1e-3
        assert _solve_min(cost) == reference_solve_min(cost)
        cost[:, 0] = 0.0  # and every row ties on it
        assert _solve_min(cost) == reference_solve_min(cost)

    @pytest.mark.parametrize("seed", range(20))
    def test_duplicate_rows_and_columns(self, seed):
        rng = np.random.default_rng(400 + seed)
        base = rng.integers(0, 4, size=(6, 8)).astype(float) if seed % 2 else rng.random((6, 8))
        n = int(rng.integers(1, 10))
        rows = rng.integers(0, 6, size=n)
        cols = rng.integers(0, 8, size=int(rng.integers(n, 14)))
        cost = base[np.ix_(rows, cols)]
        assert _solve_min(cost) == reference_solve_min(cost)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 40])
    def test_single_row(self, m):
        rng = np.random.default_rng(m)
        for cost in (rng.random((1, m)), rng.integers(0, 2, size=(1, m)).astype(float),
                     np.zeros((1, m))):
            assert _solve_min(cost) == reference_solve_min(cost)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
    def test_square(self, n):
        rng = np.random.default_rng(50 + n)
        for cost in (rng.random((n, n)), rng.integers(0, 3, size=(n, n)).astype(float),
                     crowd_cost(rng, n, n)):
            assert _solve_min(cost) == reference_solve_min(cost)

    @pytest.mark.parametrize("seed", range(3))
    def test_crowd_grids(self, seed):
        cost = crowd_cost(np.random.default_rng(500 + seed))
        assert _solve_min(cost) == reference_solve_min(cost)


class TestAssociate:
    def test_zero_matrix_everything_unmatched(self):
        out = associate(matrix(np.zeros((2, 3))), tau_asc=0.05)
        assert out.matches == ()
        assert out.unmatched_tracks == (0, 1)
        assert out.unmatched_detections == (0, 1, 2)

    def test_clean_diagonal(self):
        out = associate(matrix([[0.9, 0.0], [0.0, 0.8]]), tau_asc=0.05)
        assert [(i, j) for i, j, _ in out.matches] == [(0, 0), (1, 1)]
        assert out.unmatched_tracks == ()
        assert out.unmatched_detections == ()

    def test_below_threshold_demoted(self):
        out = associate(matrix([[0.04]]), tau_asc=0.05)
        assert out.matches == ()
        assert out.unmatched_tracks == (0,)
        assert out.unmatched_detections == (0,)

    def test_at_threshold_kept(self):
        out = associate(matrix([[0.05]]), tau_asc=0.05)
        assert [(i, j) for i, j, _ in out.matches] == [(0, 0)]

    def test_match_carries_affinity(self):
        out = associate(matrix([[0.73]]), tau_asc=0.0)
        assert out.matches[0][2] == pytest.approx(0.73)

    @pytest.mark.parametrize("seed", range(25))
    def test_partition_invariant(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n, m = (int(v) for v in rng.integers(0, 9, size=2))
        vals = rng.random((n, m)) if n and m else np.zeros((n, m))
        out = associate(matrix(vals), tau_asc=0.3)
        seen_tracks = [i for i, _, _ in out.matches] + list(out.unmatched_tracks)
        seen_dets = [j for _, j, _ in out.matches] + list(out.unmatched_detections)
        assert sorted(seen_tracks) == list(range(n))
        assert sorted(seen_dets) == list(range(m))

    def test_demotion_frees_both_sides(self):
        vals = np.array([[0.9, 0.0], [0.0, 0.02]])
        out = associate(matrix(vals), tau_asc=0.05)
        assert [(i, j) for i, j, _ in out.matches] == [(0, 0)]
        assert out.unmatched_tracks == (1,)
        assert out.unmatched_detections == (1,)

    def test_zero_threshold_keeps_only_gated_pairs(self):
        vals = np.array([[0.0, 0.0], [0.0, 0.6]])
        gate = np.array([[False, False], [False, True]])
        out = associate(AffinityMatrix(values=vals, gate_mask=gate), tau_asc=0.0)
        assert [(i, j) for i, j, _ in out.matches] == [(1, 1)]
        assert out.unmatched_tracks == (0,)
        assert out.unmatched_detections == (0,)


def block_starts(n, search_rows, block):
    """Where each first-step block starts when the rows in ``search_rows`` search.

    A block is ``block`` rows long, but a search ends it early: the next block
    then starts on the row after the searching one.
    """
    starts, s = [], 0
    while s < n:
        starts.append(s)
        hits = [r for r in sorted(search_rows) if s <= r < s + block]
        s = hits[0] + 1 if hits else s + block
    return starts


def collision_grid(rng, n, search_rows):
    """A cost grid on which exactly the rows in ``search_rows`` start a search.

    Every other row has its own cheap column; a searching row's cheap column
    is one that an earlier row already holds, a different one each time. The
    spare columns are cheaper than any other row's cheap column, so no search
    takes a column that a later row wants.
    """
    search_rows = sorted(search_rows)
    spare = len(search_rows) + 2
    m = n - len(search_rows) + spare
    cost = 10.0 + rng.random((n, m))
    cost[:, n - len(search_rows):] = 5.0 + rng.random((n, spare))
    owned, taken = [], set()
    for r in range(n):
        if r in search_rows:
            j = int(rng.choice([c for c in owned if c not in taken]))
            taken.add(j)
        else:
            j = len(owned)
            owned.append(j)
        cost[r, j] = 0.1 * rng.random()
    return cost


class TestFirstStepBlocks:
    """Searches that start on a block's first or last row, and zero-delta steps."""

    B = FIRST_STEP_BLOCK

    @pytest.mark.parametrize("search_rows", [
        # first row of the second block, then the last rows of the next two, then
        # a first row again, and two searches in a row
        lambda b: [b, 2 * b, 3 * b, 3 * b + 1, 3 * b + 2],
        # every block ends on a search at its last row
        lambda b: [b - 1, 2 * b - 1, 3 * b - 1, 4 * b - 1],
        # a search on every row of a whole block
        lambda b: list(range(b, 2 * b)),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_searches_on_block_edges(self, search_rows, seed):
        rows = search_rows(self.B)
        n = max(rows) + self.B + 3
        starts = block_starts(n, rows, self.B)
        assert len(starts) >= 3
        assert set(rows) <= set(starts) | {s + self.B - 1 for s in starts}
        cost = collision_grid(np.random.default_rng(600 + seed), n, rows)
        assert _solve_min(cost) == reference_solve_min(cost)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_searches_over_many_blocks(self, seed):
        rng = np.random.default_rng(650 + seed)
        n = int(rng.integers(3 * self.B, 6 * self.B))
        rows = []
        for r in range(1, n):  # a search needs an earlier row's column that no search took
            if r > 2 * len(rows) and rng.random() < 0.3:
                rows.append(r)
        cost = collision_grid(rng, n, rows)
        assert _solve_min(cost) == reference_solve_min(cost)

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_delta_steps(self, seed):
        # Pairs of rows share a zero-cost column, and the first of each pair has a
        # second zero-cost column: searches then take steps of delta exactly 0.0
        # among steps whose deltas are not zero.
        rng = np.random.default_rng(700 + seed)
        n = 4 * self.B + int(rng.integers(0, self.B))
        cost = rng.integers(1, 4, size=(n, n + 6)).astype(float) + 0.5 * rng.random((n, n + 6))
        for r in rng.choice(n - 1, size=n // 3, replace=False):
            j = int(rng.integers(n + 6))
            cost[r, j] = cost[r + 1, j] = 0.0
            cost[r, (j + 1) % (n + 6)] = 0.0
        assert _solve_min(cost) == reference_solve_min(cost)

    @pytest.mark.parametrize("seed", range(6))
    def test_small_integer_costs_over_many_blocks(self, seed):
        rng = np.random.default_rng(750 + seed)
        n = int(rng.integers(3 * self.B, 5 * self.B))
        cost = rng.integers(0, 3, size=(n, n + int(rng.integers(0, 8)))).astype(float)
        assert _solve_min(cost) == reference_solve_min(cost)


def quantised_crowd_cost(rng, n, m, zero_share, step=0.125):
    """A crowd grid with affinities rounded to ``step``: long runs of steps whose delta
    is exactly 0.0, and new reduced costs that tie the minv they are compared with."""
    affinity = np.round(rng.random((n, m)) / step) * step
    affinity[rng.random((n, m)) < zero_share] = 0.0
    return affinity.max() - affinity


def ladder_cost(rng, k, extra_rows=0):
    """A grid on which row ``k``'s search climbs a chain of ``k`` tree rows to one free
    column F, and each tree row lowers F's minv strictly, ties it or leaves it.

    Row r < k holds column r at cost 0 and offers the next chain column at 0, 1/2 or
    1 (the step's delta). The searching row k wants column 0. Every value is a
    multiple of 1/8, so the arithmetic is exact and each tie is a true tie. The
    columns are then permuted, and ``extra_rows`` quantised rows search after.
    """
    big = 10.0 * k + 50.0
    f = k  # the free column
    cost = np.full((k + 1, k + 3 + extra_rows), big)
    minv_f = 4.0 * k + 10.5
    cost[k, 0], cost[k, f] = 0.0, minv_f
    delta = 0.0
    for r in range(k):
        cost[r, r] = 0.0
        minv_f -= delta
        offer = minv_f + rng.choice([-1.0, -0.125, 0.0, 2.0])  # lower, tie or leave
        cost[r, f] = offer
        minv_f = min(minv_f, offer)
        if r < k - 1:
            delta = float(rng.choice([0.0, 0.5, 1.0]))
            cost[r, r + 1] = delta
    cost = cost[:, rng.permutation(cost.shape[1])]
    if extra_rows:
        cost = np.vstack([cost, quantised_crowd_cost(rng, extra_rows, cost.shape[1], 0.5)])
    return cost


class TestStepsWithoutWayArray:
    """Grids that stress a step's ``np.minimum`` and the path's replayed previous columns."""

    @pytest.mark.parametrize("zero_share", [0.3, 0.6, 0.85])
    @pytest.mark.parametrize("seed", range(3))
    def test_quantised_crowd_grids(self, zero_share, seed):
        rng = np.random.default_rng(800 + seed)
        for n, m in ((150, 170), (40, 40), (int(rng.integers(1, 30)), 33)):
            cost = quantised_crowd_cost(rng, n, m, zero_share)
            assert _solve_min(cost) == reference_solve_min(cost), (n, m)

    @pytest.mark.parametrize("step", [0.5, 0.25, 1 / 16])
    def test_coarse_and_fine_quantised_grids(self, step):
        rng = np.random.default_rng(int(1 / step))
        for _ in range(40):
            n = int(rng.integers(1, 25))
            cost = quantised_crowd_cost(rng, n, n + int(rng.integers(0, 6)), 0.6, step)
            assert _solve_min(cost) == reference_solve_min(cost)

    @pytest.mark.parametrize("k", [2, 3, 7, FIRST_STEP_BLOCK, 40])
    @pytest.mark.parametrize("seed", range(6))
    def test_path_columns_lowered_by_several_tree_rows(self, k, seed):
        rng = np.random.default_rng(850 + seed)
        for extra_rows in (0, 10):
            cost = ladder_cost(rng, k, extra_rows)
            assert _solve_min(cost) == reference_solve_min(cost), extra_rows

    @pytest.mark.parametrize("seed", range(10))
    def test_transposes(self, seed):
        # n > m: hungarian_max solves the transpose and gives the pairs back by row.
        rng = np.random.default_rng(870 + seed)
        for cost in (quantised_crowd_cost(rng, 20, 26, 0.6), ladder_cost(rng, 9, 4),
                     rng.random((7, 12)), np.zeros((3, 5))):
            want = sorted((j, i) for i, j in enumerate(reference_solve_min(cost)))
            got = hungarian_max((cost.max() - cost).T)
            assert got == want
            assert all(type(i) is int and type(j) is int for i, j in got)


def loop_associate(matrix, tau_asc):
    """``associate`` as a loop over the matched pairs, reading one cell at a time."""
    matches = []
    matched_tracks, matched_dets = ([False] * k for k in matrix.values.shape)
    for i, j in hungarian_max(matrix.values):
        value = float(matrix.values[i, j])
        if matrix.gate_mask[i, j] and value >= tau_asc:
            matches.append((i, j, value))
            matched_tracks[i] = matched_dets[j] = True
    return Assignment(
        matches=tuple(matches),
        unmatched_tracks=tuple(i for i, hit in enumerate(matched_tracks) if not hit),
        unmatched_detections=tuple(j for j, hit in enumerate(matched_dets) if not hit),
    )


class TestAssociateMatchesLoop:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_gated_matrices(self, seed):
        rng = np.random.default_rng(880 + seed)
        n, m = (int(v) for v in rng.integers(0, 12, size=2))
        tau = float(rng.choice([0.0, 0.25, 0.5]))
        values = np.round(rng.random((n, m)) * 4) / 4  # many cells equal tau
        gate = rng.random((n, m)) < 0.7
        if seed % 3 == 0:
            values = np.where(gate, values, 0.0)
        matrix_ = AffinityMatrix(values=values, gate_mask=gate)
        got = associate(matrix_, tau)
        assert got == loop_associate(matrix_, tau)
        assert all(type(x) is int for i, j, _ in got.matches for x in (i, j))
        assert all(type(v) is float for _, _, v in got.matches)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0), (1, 1), (4, 6), (6, 4)])
    @pytest.mark.parametrize("tau", [0.0, 0.3])
    def test_empty_and_all_zero(self, shape, tau):
        for gate in (np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)):
            matrix_ = AffinityMatrix(values=np.zeros(shape), gate_mask=gate)
            assert associate(matrix_, tau) == loop_associate(matrix_, tau)

    def test_values_equal_to_tau_are_kept(self):
        values = np.array([[0.3, 0.0], [0.0, 0.3], [0.29, 0.0]])
        matrix_ = AffinityMatrix(values=values, gate_mask=values > 0.0)
        got = associate(matrix_, 0.3)
        assert got == loop_associate(matrix_, 0.3)
        assert got.matches == ((0, 0, 0.3), (1, 1, 0.3))
        assert got.unmatched_tracks == (2,)
