import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoreseq import (
    ExtremalSummary,
    IntervalParams,
    NotAnInteger,
    OracleBudgetExceeded,
    ScoreSequence,
    SweepReport,
    enumerate_extremes,
    interval_test,
    moon_test,
    sweep,
    verify_realization,
)
from scoreseq import oracle
from scoreseq.core import MAX_MAGNITUDE, ceil_div

from dfs_reference import walk_extremes
from golden import SCORES_SIX


def tiny_sequences(max_n=4, max_d=4):
    return st.lists(st.integers(0, max_d), min_size=2, max_size=max_n).map(
        lambda xs: ScoreSequence(tuple(sorted(xs)))
    )


class TestEnumerateExtremes:
    def test_unique_realization(self):
        r = enumerate_extremes(ScoreSequence((0, 1)), pair_cap=1)
        assert r.realizable
        assert r.count == 1
        assert r.min_F == r.max_G == 1
        assert r.witness.entries == ((0, 0), (1, 0))

    def test_three_ones(self):
        r = enumerate_extremes(ScoreSequence((1, 1, 1)), pair_cap=2)
        assert r.count == 8  # each player picks one of two opponents
        assert r.min_F == 1
        assert r.max_G == 1
        assert r.min_E == 1

    def test_regular_four_player_count(self):
        # independent count: each row splits 3 points over 3 opponents in
        # C(5,2) = 10 ways, and every combination keeps pair totals <= 6
        r = enumerate_extremes(ScoreSequence((3, 3, 3, 3)), pair_cap=6)
        assert r.count == 10**4

    def test_paper_scale_is_rejected(self):
        with pytest.raises(OracleBudgetExceeded):
            enumerate_extremes(ScoreSequence(SCORES_SIX), pair_cap=14)

    def test_too_many_players_rejected(self):
        with pytest.raises(OracleBudgetExceeded):
            enumerate_extremes(ScoreSequence((0,) * 7), pair_cap=1)

    def test_runtime_budget_interrupts(self):
        # the estimate is 8, so only the 9 memo states of the search exceed 8
        D = ScoreSequence((1, 1, 1))
        with pytest.raises(OracleBudgetExceeded, match="visited more than 8 pair"):
            enumerate_extremes(D, pair_cap=2, budget=8)
        assert enumerate_extremes(D, pair_cap=2, budget=9).count == 8

    @pytest.mark.parametrize("pair_cap, a_floor", [(2, 0), (-1, 0), (1, 2)])
    def test_negative_budget_is_refused_first(self, monkeypatch, pair_cap, a_floor):
        # the budget is checked before the window, the player count and the
        # state estimate (8 for 1,1,1 at cap 2), and no search starts
        def refused(*args, **kwargs):
            raise AssertionError("enumerate_extremes searched")

        monkeypatch.setattr(oracle, "_frontier", refused)
        with pytest.raises(ValueError, match="^oracle budget -1 must be nonnegative$"):
            enumerate_extremes(THREE_ONES, pair_cap, a_floor, budget=-1)
        with pytest.raises(ValueError, match="^oracle budget -1 must be nonnegative$"):
            enumerate_extremes(ScoreSequence((0,) * 7), pair_cap, a_floor, budget=-1)

    def test_six_player_count_beyond_a_walk(self):
        # independent count: the cap never binds, so row i splits d_i points
        # over 5 opponents in C(d_i + 4, 4) ways; a walk one realization at a
        # time would visit more than 10**8 pair states
        r = enumerate_extremes(ScoreSequence((2, 2, 2, 2, 3, 3)), pair_cap=6)
        assert r.count == 15**4 * 35**2 == 62015625

    def test_empty_window(self):
        r = enumerate_extremes(ScoreSequence((0, 0)), pair_cap=2, a_floor=1)
        assert not r.realizable
        assert r.count == 0
        assert r.min_F is None and r.max_G is None

    def test_floor_restricts_space(self):
        free = enumerate_extremes(ScoreSequence((2, 2, 2)), pair_cap=4)
        floored = enumerate_extremes(ScoreSequence((2, 2, 2)), pair_cap=4, a_floor=2)
        assert floored.count < free.count
        assert floored.realizable

    @given(tiny_sequences())
    @settings(max_examples=40, deadline=None)
    def test_witness_is_a_realization(self, D):
        r = enumerate_extremes(D, pair_cap=2 * D.scores[-1] if D.scores[-1] else 0)
        assert r.realizable  # the one-cycle construction always fits
        report = verify_realization(
            r.witness, D, IntervalParams(0, max(2 * D.scores[-1], 0))
        )
        assert report.valid


class TestClassicalChecks:
    # Landau's theorem is Moon's at one point per match
    def test_landau_accepts_cyclic_triangle(self):
        assert moon_test(ScoreSequence((1, 1, 1)), 1)

    def test_landau_accepts_transitive_triangle(self):
        assert moon_test(ScoreSequence((0, 1, 2)), 1)

    def test_landau_rejects_starved_prefix(self):
        assert not moon_test(ScoreSequence((0, 0, 3)), 1)

    def test_moon_accepts_doubled_round_robin(self):
        assert moon_test(ScoreSequence((2, 2, 2)), 2)

    def test_moon_accepts_spread_doubled(self):
        assert moon_test(ScoreSequence((1, 2, 3)), 2)

    def test_moon_rejects_starved_prefix(self):
        assert not moon_test(ScoreSequence((0, 1, 5)), 2)

    def test_moon_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            moon_test(ScoreSequence((1, 1, 1)), 0)

    @given(tiny_sequences(max_n=6, max_d=8), st.integers(1, 3))
    def test_moon_matches_diagonal_window(self, D, c):
        assert moon_test(D, c) == interval_test(D, IntervalParams(c, c))


class TestSweep:
    def test_two_player_unit_range(self):
        report = sweep(2, 1)
        assert report.sequences == 3
        assert report.by_length == {2: 3}
        assert report.clean

    def test_three_player_range(self):
        report = sweep(3, 2)
        assert report.by_length == {2: 6, 3: 10}
        assert report.sequences == 16
        assert report.clean
        assert report.comparisons > report.sequences

    def test_one_frontier_walk_per_sequence(self, monkeypatch):
        # one frontier walk answers f, g, e and every window of a sequence,
        # so sweep(3, 2) walks 16 times and never runs a per-window search
        walks = 0
        frontier = oracle._frontier

        def counting(*args, **kwargs):
            nonlocal walks
            walks += 1
            return frontier(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("sweep ran a per-window search")

        monkeypatch.setattr(oracle, "_frontier", counting)
        monkeypatch.setattr(oracle, "enumerate_extremes", refused)
        report = sweep(3, 2)
        assert walks == 16
        assert report == SweepReport(
            sequences=16, by_length={2: 6, 3: 10}, comparisons=307
        )

    def test_each_window_is_built_once(self, monkeypatch):
        # one shared table: the 21 windows with b <= 5, the largest cap of
        # sweep(3, 2), plus the three diagonal windows (1,1), (2,2), (3,3)
        built = 0

        class Counting(IntervalParams):
            def __init__(self, a, b):
                nonlocal built
                built += 1
                super().__init__(a, b)

        monkeypatch.setattr(oracle, "IntervalParams", Counting)
        assert sweep(3, 2).clean
        assert built == 21 + 3

    @pytest.mark.parametrize("n_max, d_max", [(3, 2), (2, 3)])
    def test_windows_in_table_order(self, monkeypatch, n_max, d_max):
        # every 0 <= a <= b <= 2h+1 in b-then-a order, then the diagonals,
        # (1, 1) once for both Landau's check and moon_test(1)
        seen = {}
        fast = oracle.interval_test

        def recording(D, params):
            seen.setdefault(D.scores, []).append((params.a, params.b))
            return fast(D, params)

        monkeypatch.setattr(oracle, "interval_test", recording)
        assert sweep(n_max, d_max).clean
        expected = {}
        for n in range(2, n_max + 1):
            for seq in itertools.combinations_with_replacement(range(d_max + 1), n):
                cap = 2 * ceil_div(seq[-1], n - 1) + 1
                windows = [(a, b) for b in range(cap + 1) for a in range(b + 1)]
                expected[seq] = windows + [(1, 1), (2, 2), (3, 3)]
        assert seen == expected

    def test_budget_counts_frontier_states(self):
        # sweep(3, 2) creates 40 frontier states over all its 16 sequences
        with pytest.raises(OracleBudgetExceeded, match="visited more than 39 pair"):
            sweep(3, 2, budget=39)
        assert sweep(3, 2, budget=40).clean

    def test_seven_players_rejected_before_any_walk(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("sweep walked a sequence")

        monkeypatch.setattr(oracle, "_frontier", refused)
        with pytest.raises(OracleBudgetExceeded, match="7 players"):
            sweep(7, 0)

    def test_d_max_beyond_magnitude_rejected_before_any_walk(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("sweep walked a sequence")

        # refusing the grid too keeps a regression from building a pool of
        # 10**9 scores before it fails
        monkeypatch.setattr(oracle, "_frontier", refused)
        monkeypatch.setattr(itertools, "combinations_with_replacement", refused)
        with pytest.raises(ValueError, match="exceeds supported magnitude"):
            sweep(2, MAX_MAGNITUDE + 1)

    @pytest.mark.parametrize("n_max, d_max", [(1, 2), (0, 0), (3, -1)])
    def test_empty_grid_is_rejected(self, n_max, d_max):
        with pytest.raises(ValueError, match="n_max >= 2 and d_max >= 0"):
            sweep(n_max, d_max)

    def test_negative_moon_c_max_is_rejected(self):
        with pytest.raises(ValueError, match="moon_c_max -1 must be nonnegative"):
            sweep(3, 2, moon_c_max=-1)

    @pytest.mark.parametrize(
        "n_max, d_max, moon_c_max", [(2, 1, 3), (1, -1, 3), (3, 2, -1), (7, 0, 3)]
    )
    def test_negative_budget_is_refused_first(
        self, monkeypatch, n_max, d_max, moon_c_max
    ):
        # the budget is checked before the grid, moon_c_max and the player
        # count, and no sequence is walked
        def refused(*args, **kwargs):
            raise AssertionError("sweep walked a sequence")

        monkeypatch.setattr(oracle, "_frontier", refused)
        with pytest.raises(ValueError, match="^oracle budget -1 must be nonnegative$"):
            sweep(n_max, d_max, moon_c_max, budget=-1)


class TestSweepMismatches:
    """Each check of sweep names the sequence and the check that disagrees."""

    def test_empty_frontier_is_reported_and_skipped(self, monkeypatch):
        # nothing under the cap 2h, so no other check runs on the sequence
        monkeypatch.setattr(oracle, "_frontier", lambda *args: (0, []))
        assert sweep(2, 1).mismatches == (
            "(0, 0): no realization under the evenly-spread cap 0",
            "(0, 1): no realization under the evenly-spread cap 2",
            "(1, 1): no realization under the evenly-spread cap 2",
        )

    def test_extremes_against_a_wrong_summary(self, monkeypatch):
        # the raised e also raises the cap, which leaves the frontier exact
        fast = oracle.extremal_summary

        def off_by_one(D):
            s = fast(D)
            return ExtremalSummary(
                s.e + 1, s.f + 1, s.g + 1, s.f_search_lo, s.f_search_hi + 2
            )

        monkeypatch.setattr(oracle, "extremal_summary", off_by_one)
        assert sweep(2, 1).mismatches == (
            "(0, 0): exhaustive min F 0 != f 1",
            "(0, 0): exhaustive max G 0 != g 1",
            "(0, 0): exhaustive min E 0 != e 1",
            "(0, 1): exhaustive min F 1 != f 2",
            "(0, 1): exhaustive max G 1 != g 2",
            "(0, 1): exhaustive min E 1 != e 2",
            "(1, 1): exhaustive min F 2 != f 3",
            "(1, 1): exhaustive max G 2 != g 3",
            "(1, 1): exhaustive min E 1 != e 2",
        )

    def test_windows_and_diagonals_against_a_wrong_interval_test(self, monkeypatch):
        fast = oracle.interval_test
        monkeypatch.setattr(oracle, "interval_test", lambda D, p: not fast(D, p))
        assert sweep(2, 0, moon_c_max=2).mismatches == (
            "(0, 0): window (0,0) exhaustive True != interval_test False",
            "(0, 0): window (0,1) exhaustive True != interval_test False",
            "(0, 0): window (1,1) exhaustive False != interval_test True",
            "(0, 0): Landau (moon_test at c = 1) disagrees with window (1,1)",
            "(0, 0): moon_test(1) disagrees with window (1,1)",
            "(0, 0): moon_test(2) disagrees with window (2,2)",
        )

    @pytest.mark.parametrize("moon_c_max, moon_lines", [(0, 0), (1, 1), (2, 2)])
    def test_diagonals_against_a_wrong_moon_test(
        self, monkeypatch, moon_c_max, moon_lines
    ):
        # (1, 1) is always probed for Landau; Moon's lines stop at moon_c_max
        fast = oracle.moon_test
        monkeypatch.setattr(oracle, "moon_test", lambda D, c: not fast(D, c))
        report = sweep(2, 0, moon_c_max=moon_c_max)
        assert report.mismatches == (
            "(0, 0): Landau (moon_test at c = 1) disagrees with window (1,1)",
            "(0, 0): moon_test(1) disagrees with window (1,1)",
            "(0, 0): moon_test(2) disagrees with window (2,2)",
        )[: 1 + moon_lines]
        assert not report.clean


THREE_ONES = ScoreSequence((1, 1, 1))


class _Index:
    """An integer that is no int, as operator.index accepts it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestIntegerContract:
    @pytest.mark.parametrize(
        "func, args, kwargs, name",
        [
            (enumerate_extremes, (THREE_ONES, True), {}, "pair_cap"),
            (enumerate_extremes, (THREE_ONES, 2.0), {}, "pair_cap"),
            (enumerate_extremes, (THREE_ONES, 2), {"a_floor": True}, "a_floor"),
            (enumerate_extremes, (THREE_ONES, 2), {"budget": 10.5}, "budget"),
            (sweep, (2.0, 1), {}, "n_max"),
            (sweep, (2, 2.0), {}, "d_max"),
            (sweep, (3, True), {}, "d_max"),
            (sweep, (2, 1), {"moon_c_max": 1.0}, "moon_c_max"),
            (sweep, (2, 1), {"budget": True}, "budget"),
            (moon_test, (THREE_ONES, 1.0), {}, "c"),
            (moon_test, (THREE_ONES, True), {}, "c"),
        ],
    )
    def test_bools_and_non_integers_are_refused(self, func, args, kwargs, name):
        with pytest.raises(NotAnInteger, match=rf"^{name} "):
            func(*args, **kwargs)

    def test_integers_that_are_no_int_are_accepted(self):
        two = _Index(2)
        assert enumerate_extremes(THREE_ONES, two, _Index(0), _Index(9)).count == 8
        assert sweep(_Index(3), two, _Index(3), _Index(40)) == sweep(3, 2)
        assert moon_test(ScoreSequence((2, 2, 2)), two)


class TestFrontier:
    def test_memo_states_on_larger_frontiers(self):
        memo = {}
        oracle._frontier(
            ScoreSequence((2, 2, 2, 2, 3, 3)), 6, memo, oracle.DEFAULT_BUDGET
        )
        assert len(memo) == 2714
        fives = ScoreSequence((4,) * 5)
        memo = {}
        count, _ = oracle._frontier(fives, 6, memo, oracle.DEFAULT_BUDGET, a_floor=2)
        assert (len(memo), count) == (1938, 219)
        assert enumerate_extremes(fives, 6, a_floor=2).witness.entries == (
            (0, 0, 0, 2, 2),
            (2, 0, 0, 0, 2),
            (2, 2, 0, 0, 0),
            (0, 2, 2, 0, 0),
            (0, 0, 2, 2, 0),
        )

    def test_matches_per_window_search(self):
        # slow cross-check against the reference walk, independent of
        # interval_test and of the frontier: the frontier count and extremes
        # against a full walk, and every window read off the frontier against
        # its own walk, which enumerate_extremes must equal field by field,
        # whose witness must verify and whose min E the frontier points
        # inside the window must reach
        memo = {}
        for n in range(2, 5):
            for seq in itertools.combinations_with_replacement(range(4), n):
                D = ScoreSequence(seq)
                cap = 2 * ceil_div(D.scores[-1], D.n - 1) + 1
                count, points = oracle._frontier(D, cap, memo, oracle.DEFAULT_BUDGET)
                full = walk_extremes(D, cap)
                assert count == full.count, seq
                assert min(F for F, _, _ in points) == full.min_F, seq
                assert max(G for _, G, _ in points) == full.max_G, seq
                assert min(E for _, _, E in points) == full.min_E, seq
                reach = oracle._reach(points, cap)
                for b in range(cap + 1):
                    for a in range(b + 1):
                        window = walk_extremes(D, pair_cap=b, a_floor=a)
                        assert enumerate_extremes(D, b, a) == window, (seq, a, b)
                        found = a <= reach[b]
                        assert found == window.realizable, (seq, a, b)
                        inside = [E for F, G, E in points if F <= b and G >= a]
                        assert min(inside, default=None) == window.min_E, (seq, a, b)
                        if found:
                            report = verify_realization(
                                window.witness, D, IntervalParams(a, b)
                            )
                            assert report.valid, (seq, a, b)

    @pytest.mark.parametrize("pair_cap, a_floor", [(-1, 0), (2, 3), (2, -1)])
    def test_bad_window_raises_like_the_walk(self, pair_cap, a_floor):
        D = ScoreSequence((1, 1, 1))
        with pytest.raises(ValueError) as walked:
            walk_extremes(D, pair_cap, a_floor)
        with pytest.raises(ValueError) as searched:
            enumerate_extremes(D, pair_cap, a_floor)
        assert str(searched.value) == str(walked.value)

    def test_points_are_mutually_undominated(self):
        _, points = oracle._frontier(
            ScoreSequence((2, 3, 3, 4)), 5, {}, oracle.DEFAULT_BUDGET
        )
        for p in points:
            for q in points:
                if p != q:
                    assert not (q[0] <= p[0] and q[1] >= p[1] and q[2] <= p[2])
