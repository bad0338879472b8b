import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoreseq import (
    IntervalParams,
    ScoreSequence,
    extremal_summary,
    interval_test,
)
from scoreseq import analysis
from scoreseq.core import MAX_MAGNITUDE, ceil_div

import f_reference
from f_reference import max_g_by_search, min_f_by_loss_table, min_f_by_search
from golden import SCORES_SIX

SIX = ScoreSequence(SCORES_SIX)
ZEROS_FORTIES = ScoreSequence((0, 0, 0, 40, 40, 40))


def sequences(max_n=10, max_d=50):
    return st.lists(st.integers(0, max_d), min_size=2, max_size=max_n).map(
        lambda xs: ScoreSequence(tuple(sorted(xs)))
    )


@st.composite
def long_sequences(draw, max_n=300, max_d=MAX_MAGNITUDE):
    # n is drawn first, since plain lists rarely grow past 20 entries, and
    # the scores share a band: a narrow band binds a deep top set (equal
    # scores bind the whole field), a wide one a top set of a few players
    n = draw(st.integers(2, max_n))
    lo = draw(st.integers(0, max_d))
    xs = st.integers(lo, draw(st.integers(lo, max_d)))
    return ScoreSequence(tuple(sorted(draw(st.lists(xs, min_size=n, max_size=n)))))


@st.composite
def narrow_windows(draw, max_n=400):
    # scores below 2(n - 1) make h <= 2, so f's window [lo, 2h] is at most
    # two wide
    n = draw(st.integers(2, max_n))
    xs = st.lists(st.integers(0, 2 * (n - 1)), min_size=n, max_size=n)
    return ScoreSequence(tuple(sorted(draw(xs))))


def _interval_test_written_out(D, a, b):
    """The realizability inequalities with every table spelled out in full."""
    n = D.n
    S = [sum(D.scores[:k]) for k in range(n + 1)]
    B = [k * (k - 1) // 2 for k in range(n + 1)]
    L = [max(0, *(b * B[j] - S[j] for j in range(k + 1))) for k in range(n + 1)]
    return all(
        a * B[k] <= S[k] <= b * B[n] - L[k] - (n - k) * D.scores[k - 1]
        for k in range(1, n + 1)
    )


def _paper_interval_test(D, params):
    """The loop with B_k, S_k and the loss table as the paper states them."""
    a, b = params.a, params.b
    scores = D.scores
    n = len(scores)
    b_total = b * (n * (n - 1) // 2)
    B = 0
    S = 0
    L = 0
    for k, d in enumerate(scores, start=1):
        B += k - 1
        S += d
        if a * B > S:
            return False
        bonus = b * B - S
        if bonus > L:
            L = bonus
        if S > b_total - L - (n - k) * d:
            return False
    return True


class TestLossTable:
    """The paper's loss table L_k, which interval_test's top-set form replaces."""

    def test_all_ones(self):
        # L stays 0 at b = 1, so the cyclic triangle fits under that cap
        D = ScoreSequence((1, 1, 1))
        assert interval_test(D, IntervalParams(0, 1))
        assert _interval_test_written_out(D, 0, 1)

    def test_zeros_forties(self):
        # the three 40s hold 120 points and take part in 12 pairs (3 among
        # themselves, 9 against the zeros), so b = 10 is tight and b = 9
        # fails; the written-out test finds the same through L_3 = 3b
        assert interval_test(ZEROS_FORTIES, IntervalParams(0, 10))
        assert not interval_test(ZEROS_FORTIES, IntervalParams(0, 9))
        assert _interval_test_written_out(ZEROS_FORTIES, 0, 10)
        assert not _interval_test_written_out(ZEROS_FORTIES, 0, 9)

    def test_zero_bound_gives_zero_table(self):
        # with L = 0 at b = 0 only the all-zero sequence fits
        assert not interval_test(SIX, IntervalParams(0, 0))
        assert interval_test(ScoreSequence((0, 0, 0)), IntervalParams(0, 0))

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            interval_test(SIX, IntervalParams(0, -1))

    @given(sequences(), st.integers(0, 30))
    def test_running_max_form(self, D, a):
        # every cap from a to one past the evenly-spread bound, so the caps
        # where the loss term decides are always among them
        for b in range(a, max(a, 2 * ceil_div(D.scores[-1], D.n - 1)) + 2):
            expected = _interval_test_written_out(D, a, b)
            assert interval_test(D, IntervalParams(a, b)) == expected, b


class TestIntervalTest:
    def test_six_players_zero_to_nine(self):
        assert interval_test(SIX, IntervalParams(0, 9)) is True

    def test_six_players_nine_nine(self):
        assert interval_test(SIX, IntervalParams(9, 9)) is False

    def test_six_players_eight_nine(self):
        assert interval_test(SIX, IntervalParams(8, 9)) is True

    def test_two_zeros_cannot_take_a_mandatory_point(self):
        assert interval_test(ScoreSequence((0, 0)), IntervalParams(1, 1)) is False

    @given(sequences(), st.integers(0, 30), st.integers(0, 30))
    def test_monotone_in_the_window(self, D, a, b):
        if a > b:
            a, b = b, a
        base = interval_test(D, IntervalParams(a, b))
        if base:
            assert interval_test(D, IntervalParams(max(a - 1, 0), b))
            assert interval_test(D, IntervalParams(a, b + 1))

    @given(sequences())
    def test_evenly_spread_window_is_always_feasible(self, D):
        assert interval_test(D, IntervalParams(0, 2 * ceil_div(D.scores[-1], D.n - 1)))


class TestAgainstPaperLoop:
    """interval_test's top-set form against the paper's loop."""

    def test_every_small_window(self):
        windows = [IntervalParams(a, b) for b in range(16) for a in range(b + 1)]
        for n in range(2, 6):
            for seq in itertools.combinations_with_replacement(range(8), n):
                D = ScoreSequence(seq)
                for params in windows:
                    expected = _paper_interval_test(D, params)
                    assert interval_test(D, params) == expected, (seq, params)

    @settings(max_examples=150, deadline=None)
    @given(long_sequences(), st.data())
    def test_large_scores_with_a_floor(self, D, data):
        # a >= 1 runs the a-side; b near f puts the b-side on its boundary,
        # and b up to MAX_MAGNITUDE**2 takes b * B_n past 2**64
        s = extremal_summary(D)
        f, g = s.f, s.g
        a = data.draw(st.integers(1, g + 1), label="a")
        near = st.integers(max(a, f - 1), max(a, f + 1))
        b = data.draw(st.one_of(near, st.integers(a, MAX_MAGNITUDE**2)), label="b")
        params = IntervalParams(a, b)
        assert interval_test(D, params) == _paper_interval_test(D, params)

    @settings(max_examples=150, deadline=None)
    @given(long_sequences(), st.data())
    def test_large_scores_without_a_floor(self, D, data):
        # a = 0, as on every probe of the f search, so the b-side alone
        # decides; b in {f-1, f, f+1} sits on the boundary it must find
        f = extremal_summary(D).f
        near = st.integers(max(0, f - 1), f + 1)
        b = data.draw(st.one_of(near, st.integers(0, MAX_MAGNITUDE**2)), label="b")
        params = IntervalParams(0, b)
        assert interval_test(D, params) == _paper_interval_test(D, params)


class TestBoundE:
    def test_six_players(self):
        assert extremal_summary(SIX).e == 7

    def test_zeros(self):
        assert extremal_summary(ScoreSequence((0, 0, 0))).e == 0

    def test_zeros_forties(self):
        assert extremal_summary(ZEROS_FORTIES).e == 8


def _window(D):
    s = extremal_summary(D)
    return s.f_search_lo, s.f_search_hi


class TestFSearchInterval:
    def test_zeros_forties(self):
        assert _window(ZEROS_FORTIES) == (8, 16)

    def test_six_players(self):
        # the average pair total ceil(131 / 15) = 9 sets the floor
        assert _window(SIX) == (9, 14)

    def test_two_zeros(self):
        D = ScoreSequence((0, 0))
        assert _window(D) == (0, 0)

    def test_top_row_bound_sets_the_floor(self):
        # the average pair total is 1, but the top row's 10 points over 4
        # opponents force an entry of 3, and f's top set {5} reaches it
        s = extremal_summary(ScoreSequence((0, 0, 0, 0, 10)))
        assert (s.e, s.f, s.g) == (3, 3, 0)
        assert (s.f_search_lo, s.f_search_hi) == (3, 6)

    @given(sequences())
    def test_floor_is_the_larger_of_average_and_top_row_bound(self, D):
        n, scores = D.n, D.scores
        e = ceil_div(scores[-1], n - 1)
        average = ceil_div(sum(scores), n * (n - 1) // 2)
        s = extremal_summary(D)
        assert s.e == e
        assert (s.f_search_lo, s.f_search_hi) == (max(average, e), 2 * e)


class TestMinF:
    def test_six_players(self):
        assert extremal_summary(SIX).f == 9

    def test_zeros_forties(self):
        assert extremal_summary(ZEROS_FORTIES).f == 10

    def test_all_ones(self):
        assert extremal_summary(ScoreSequence((1, 1, 1))).f == 1

    @given(sequences())
    def test_is_smallest_feasible_cap(self, D):
        f = extremal_summary(D).f
        assert interval_test(D, IntervalParams(0, f))
        if f > 0:
            assert not interval_test(D, IntervalParams(0, f - 1))

    @given(sequences())
    def test_lies_in_search_window(self, D):
        s = extremal_summary(D)
        assert s.f_search_lo <= s.f <= s.f_search_hi


class TestMaxG:
    def test_six_players(self):
        assert extremal_summary(SIX).g == 8

    def test_zeros_forties(self):
        assert extremal_summary(ZEROS_FORTIES).g == 0

    def test_all_ones(self):
        assert extremal_summary(ScoreSequence((1, 1, 1))).g == 1

    @given(sequences())
    def test_is_largest_feasible_floor(self, D):
        s = extremal_summary(D)
        f, g = s.f, s.g
        assert 0 <= g <= f
        assert interval_test(D, IntervalParams(g, f))
        assert not interval_test(D, IntervalParams(g + 1, max(f, g + 1)))


class TestClosedFormCrossChecks:
    def test_loss_table_f_on_named_cases(self):
        assert min_f_by_loss_table(SIX) == 9
        assert min_f_by_loss_table(ZEROS_FORTIES) == 10
        assert min_f_by_loss_table(ScoreSequence((1, 1, 1))) == 1

    @given(sequences(max_n=12, max_d=100))
    def test_f_agrees_with_loss_table_and_search(self, D):
        f = extremal_summary(D).f
        assert min_f_by_loss_table(D) == f
        assert min_f_by_search(D) == f

    @given(sequences(max_n=12, max_d=100))
    def test_g_search_agrees_with_closed_form(self, D):
        s = extremal_summary(D)
        assert max_g_by_search(D, s.f) == s.g


def _proof_inputs():
    # the drawn inputs take f at the window floor, just past the floor of a
    # narrow window and inside a wide one, so the certificates cover every
    # kind of window that extremal_summary hands out
    return st.one_of(long_sequences(max_n=400, max_d=10**6), narrow_windows())


def _window_kind(s):
    lo, hi = s.f_search_lo, s.f_search_hi
    return "floor" if s.f == lo else "narrow" if hi - lo <= 2 else "wide"


def test_f_is_proved_on_every_branch():
    # f is feasible, and a top set that cannot fit under f - 1 shows it
    kinds = set()

    @settings(max_examples=150, deadline=None)
    @given(_proof_inputs())
    def check(D):
        s = extremal_summary(D)
        f = s.f
        assert interval_test(D, IntervalParams(0, f))
        # the top n - j players score S_n - S_j and take part in B_n - B_j
        # pairs, so no cap below that ceiled average fits them
        n, scores = D.n, D.scores
        S_n, B_n = sum(scores), n * (n - 1) // 2
        bounds = [
            ceil_div(S_n - sum(scores[:j]), B_n - j * (j - 1) // 2) for j in range(n)
        ]
        j_star = max(range(n), key=bounds.__getitem__)
        assert bounds[j_star] == f
        assert min_f_by_search(D) == f
        assert min_f_by_loss_table(D) == f
        kinds.add(_window_kind(s))

    check()
    assert kinds == {"floor", "narrow", "wide"}


def test_g_is_proved_on_every_branch():
    # g is feasible under f, and a bottom set that cannot reach g + 1 shows it
    kinds = set()

    @settings(max_examples=150, deadline=None)
    @given(_proof_inputs())
    def check(D):
        s = extremal_summary(D)
        f, g = s.f, s.g
        assert interval_test(D, IntervalParams(g, f))
        if g < f:
            assert not interval_test(D, IntervalParams(g + 1, f))
        # the bottom k players' B_k pairs among themselves score at least
        # a each, out of their own S_k, so no floor above S_k // B_k fits
        scores = D.scores
        bounds = {k: sum(scores[:k]) // (k * (k - 1) // 2) for k in range(2, D.n + 1)}
        k_star = min(bounds, key=bounds.__getitem__)
        assert bounds[k_star] == g
        assert max_g_by_search(D, f) == g
        kinds.add(_window_kind(s))

    check()
    assert kinds == {"floor", "narrow", "wide"}


def test_f_and_g_make_no_interval_test_probe(monkeypatch):
    probes = []

    def probe(D, params):
        probes.append(params)
        return interval_test(D, params)

    monkeypatch.setattr(analysis, "interval_test", probe)
    for n in range(2, 6):
        for seq in itertools.combinations_with_replacement(range(7), n):
            D = ScoreSequence(seq)
            extremal_summary(D)
            assert probes == [], seq


def test_search_probes_are_pinned(monkeypatch):
    # every window the bisections hand to interval_test, in order, with its
    # answer, over all n <= 5, d <= 6 sequences
    probes = hashlib.sha256()

    def probe(D, params):
        answer = interval_test(D, params)
        probes.update(repr((D.scores, params.a, params.b, answer)).encode())
        return answer

    monkeypatch.setattr(f_reference, "interval_test", probe)
    for n in range(2, 6):
        for seq in itertools.combinations_with_replacement(range(7), n):
            D = ScoreSequence(seq)
            max_g_by_search(D, min_f_by_search(D))
    assert probes.hexdigest() == (
        "30cdda0774b5fe10e48a33f6cbabe7a92f47f14825efa23092529cc25b07fda2"
    )


class TestExtremalSummary:
    def test_six_players(self):
        s = extremal_summary(SIX)
        assert (s.e, s.f, s.g) == (7, 9, 8)
        assert (s.f_search_lo, s.f_search_hi) == (9, 14)

    def test_two_zeros(self):
        s = extremal_summary(ScoreSequence((0, 0)))
        assert (s.e, s.f, s.g) == (0, 0, 0)

    def test_zeros_forties(self):
        s = extremal_summary(ZEROS_FORTIES)
        assert (s.e, s.f, s.g) == (8, 10, 0)
        assert (s.f_search_lo, s.f_search_hi) == (8, 16)

    def test_two_players_window_collapses(self):
        s = extremal_summary(ScoreSequence((3, 8)))
        assert s.f == s.g == 11

    @given(sequences())
    def test_average_total_sits_between_g_and_f(self, D):
        s = extremal_summary(D)
        average = sum(D.scores) // (D.n * (D.n - 1) // 2)
        assert s.g <= average <= s.f
        assert s.e <= s.f
