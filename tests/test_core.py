import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoreseq import (
    InputTooShort,
    IntervalParams,
    NegativeScore,
    NotAnInteger,
    PointMatrix,
    ScoreSequence,
    ShapeMismatch,
    TournamentError,
    matrix_stats,
    naive_construct,
    normalize_sequence,
    verify_realization,
)
from scoreseq.core import _validate_scores, ceil_div

from golden import SCORES_SIX, TABLE_BALANCED, TABLE_UNBALANCED, TABLE_WIDE

score_lists = st.lists(st.integers(0, 50), min_size=2, max_size=12)


class TestNormalizeSequence:
    def test_sorts_and_returns_origin_positions(self):
        D, perm = normalize_sequence([3, 1, 2])
        assert D.scores == (1, 2, 3)
        assert perm == (1, 2, 0)

    def test_identity_on_sorted_input(self):
        D, perm = normalize_sequence([0, 0])
        assert D.scores == (0, 0)
        assert perm == (0, 1)

    def test_six_player_scores(self):
        D, perm = normalize_sequence([9, 34, 9, 19, 32, 20])
        assert D.scores == SCORES_SIX
        assert tuple(sorted(perm)) == (0, 1, 2, 3, 4, 5)
        raw = [9, 34, 9, 19, 32, 20]
        assert tuple(raw[i] for i in perm) == D.scores

    def test_too_short(self):
        with pytest.raises(InputTooShort):
            normalize_sequence([5])

    def test_negative(self):
        with pytest.raises(NegativeScore):
            normalize_sequence([3, -1])

    def test_magnitude_guard(self):
        with pytest.raises(ValueError):
            normalize_sequence([0, 10**9 + 1])

    def test_length_guard(self):
        # a range has a length and ends but stores no elements, so this
        # reaches the guard without building 10**9 + 1 scores; the entry
        # points copy their input into a tuple and must not be given it
        with pytest.raises(ValueError) as info:
            _validate_scores(range(10**9 + 1), ordered=True)
        assert type(info.value) is ValueError
        assert str(info.value) == "sequence length exceeds supported magnitude"

    @pytest.mark.parametrize(
        "raw, error, text",
        [
            ([3, -1, -5], NegativeScore, "score -5 is negative"),
            ([10**10, -1], NegativeScore, "score -1 is negative"),
            ([0, 10**9 + 1], ValueError, "exceeds supported magnitude"),
            ([5], InputTooShort, "got 1"),
            ([], InputTooShort, "got 0"),
        ],
    )
    def test_bad_input_fails_like_naive_construct(self, raw, error, text):
        # one check path: the same class and message whichever entry point
        with pytest.raises(error) as sorted_info:
            normalize_sequence(raw)
        with pytest.raises(error) as naive_info:
            naive_construct(raw)
        assert type(sorted_info.value) is type(naive_info.value)
        assert str(sorted_info.value) == str(naive_info.value)
        assert text in str(naive_info.value)

    @pytest.mark.parametrize("make", [list, tuple, iter])
    def test_two_scores_give_pairs(self, make):
        # the gather returns a bare value for one index; two must stay a pair
        D, perm = normalize_sequence(make([7, 3]))
        assert D.scores == (3, 7) and type(D.scores) is tuple
        assert perm == (1, 0) and type(perm) is tuple

    def test_takes_no_alias_of_its_input(self):
        raw = [5, 1, 5, 0, 3, 1]
        D, perm = normalize_sequence(raw)
        assert raw == [5, 1, 5, 0, 3, 1]
        raw.sort()
        raw[0] = 99
        raw.append(7)
        assert D.scores == (0, 1, 1, 3, 5, 5)
        assert perm == (3, 1, 5, 4, 0, 2)

    @pytest.mark.parametrize("make", [list, tuple, lambda xs: (x for x in xs)])
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 3000),
        st.integers(1, 40),
        st.sampled_from([0, 7, 1]),
        st.randoms(use_true_random=False),
    )
    def test_large_inputs_sort_stably(self, make, n, distinct, wrap_every, rnd):
        # n in the benchmark's range, with heavy ties and some _Index entries;
        # a list, a tuple and a generator of the same scores sort alike
        values = [rnd.randrange(distinct) for _ in range(n)]
        raw = [
            _Index(v) if wrap_every and i % wrap_every == 0 else v
            for i, v in enumerate(values)
        ]
        D, perm = normalize_sequence(make(raw))
        assert D.scores == tuple(sorted(values))
        assert perm == tuple(sorted(range(n), key=lambda i: (values[i], i)))
        assert type(D.scores) is tuple and type(perm) is tuple
        assert all(type(s) is int for s in D.scores)
        assert all(type(i) is int for i in perm)

    @pytest.mark.parametrize(
        "scores", [range(3000), range(2999, -1, -1), range(5, 3005, 3)]
    )
    def test_range_input_sorts_like_its_list(self, scores):
        assert normalize_sequence(scores) == normalize_sequence(list(scores))

    @given(score_lists)
    def test_idempotent(self, raw):
        D, _ = normalize_sequence(raw)
        again, perm = normalize_sequence(D.scores)
        assert again.scores == D.scores
        assert perm == tuple(range(len(raw)))

    @given(score_lists, st.data())
    def test_result_is_the_checked_constructors_value(self, raw, data):
        # normalize_sequence fills the value without ScoreSequence's re-scan;
        # nothing may tell the two apart, _Index entries included
        wrap = data.draw(st.lists(st.booleans(), min_size=len(raw), max_size=len(raw)))
        D, _ = normalize_sequence([_Index(v) if w else v for v, w in zip(raw, wrap)])
        ref = ScoreSequence(tuple(sorted(raw)))
        for value in (D, pickle.loads(pickle.dumps(D)), copy.deepcopy(D)):
            assert type(value) is ScoreSequence
            assert value == ref and ref == value
            assert hash(value) == hash(ref)
            assert repr(value) == repr(ref)
            assert value._asdict() == ref._asdict()
            assert type(value.scores) is tuple
            assert all(type(s) is int for s in value.scores)

    @given(score_lists)
    def test_stable_ties(self, raw):
        _, perm = normalize_sequence(raw)
        for a, b in zip(perm, perm[1:]):
            if raw[a] == raw[b]:
                assert a < b


class TestScoreSequence:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ScoreSequence((2, 1))

    def test_sequence_protocol(self):
        D = ScoreSequence((1, 2, 3))
        assert D.n == 3
        assert D.scores == (1, 2, 3)

    def test_sorted_path_builds_the_same_value(self):
        # every sequence of sweep(4, 3)'s grid: n from 2 to 4, scores up to 3
        for n in range(2, 5):
            for seq in itertools.combinations_with_replacement(range(4), n):
                D = ScoreSequence._from_sorted(seq)
                ref = ScoreSequence(seq)
                assert D == ref and hash(D) == hash(ref)
                assert repr(D) == repr(ref)
                assert pickle.loads(pickle.dumps(D)) == ref


class TestPointMatrix:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            PointMatrix.from_rows([[1, 0], [0, 0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PointMatrix.from_rows([[0, -1], [0, 0]])

    def test_rejects_ragged(self):
        with pytest.raises(ShapeMismatch):
            PointMatrix.from_rows([[0, 1], [1, 0, 2]])

    def test_rejects_single_player(self):
        with pytest.raises(InputTooShort):
            PointMatrix.from_rows([[0]])

    def test_row_sums(self):
        assert PointMatrix.from_rows(TABLE_WIDE).row_sums() == SCORES_SIX

    def test_from_rows_accepts_generators(self):
        M = PointMatrix.from_rows((v for v in row) for row in TABLE_WIDE)
        assert M == PointMatrix(TABLE_WIDE)

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_from_rows_rejects_non_integer_entries(self, bad):
        with pytest.raises(NotAnInteger):
            PointMatrix.from_rows([[0, bad], [1, 0]])

    def test_int_rows_path_keeps_the_structural_checks(self):
        # the library's own matrices skip only the type scan
        with pytest.raises(ShapeMismatch):
            PointMatrix._from_int_rows([[0, 1], [1, 0, 2]])
        with pytest.raises(ValueError, match="diagonal entry"):
            PointMatrix._from_int_rows([[0, 1], [1, 3]])
        with pytest.raises(ValueError, match="is negative"):
            PointMatrix._from_int_rows([[0, 1], [-2, 0]])
        with pytest.raises(InputTooShort):
            PointMatrix._from_int_rows([[0]])
        M = PointMatrix._from_int_rows([[0, 1], [2, 0]])
        assert M == PointMatrix.from_rows([[0, 1], [2, 0]])
        assert M.entries == ((0, 1), (2, 0))


class _Index:
    """An integer-like value that is not an int, accepted via __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


non_integers = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.decimals(allow_nan=False),
    st.fractions(),
    st.text(max_size=3),
    st.none(),
)


class TestIntegerContract:
    def test_float_scores_are_rejected_not_truncated(self):
        with pytest.raises(NotAnInteger):
            ScoreSequence((1.5, 2.9))

    def test_bool_score_is_rejected(self):
        with pytest.raises(NotAnInteger):
            ScoreSequence((True, 2))

    def test_float_matrix_entries_are_rejected(self):
        with pytest.raises(NotAnInteger):
            PointMatrix([[0, 1.7], [0.2, 0]])

    def test_float_window_is_rejected(self):
        with pytest.raises(NotAnInteger):
            IntervalParams(1.5, 2.5)

    def test_error_is_a_type_error_and_a_tournament_error(self):
        with pytest.raises(NotAnInteger) as info:
            normalize_sequence([2, 1.0])
        assert isinstance(info.value, TypeError)
        assert isinstance(info.value, TournamentError)

    def test_index_types_are_accepted_as_plain_ints(self):
        D = ScoreSequence((_Index(1), 2))
        assert D.scores == (1, 2)
        assert all(type(s) is int for s in D.scores)
        M = PointMatrix([[0, _Index(1)], [2, 0]])
        assert M.entries == ((0, 1), (2, 0))
        assert IntervalParams(_Index(0), _Index(3)) == IntervalParams(0, 3)

    @given(score_lists, st.data())
    def test_no_invalid_value_round_trips(self, raw, data):
        bad = data.draw(non_integers)
        pos = data.draw(st.integers(0, len(raw) - 1))
        raw[pos] = bad
        with pytest.raises(NotAnInteger):
            normalize_sequence(raw)
        with pytest.raises(NotAnInteger):
            naive_construct(raw)
        with pytest.raises(NotAnInteger):
            ScoreSequence(tuple(raw))
        rows = [[0] * len(raw) for _ in raw]
        rows[pos][(pos + 1) % len(raw)] = bad
        with pytest.raises(NotAnInteger):
            PointMatrix.from_rows(rows)
        with pytest.raises(NotAnInteger):
            IntervalParams(bad, 10**6)


class TestMatrixStats:
    def test_unbalanced_table(self):
        stats = matrix_stats(PointMatrix.from_rows(TABLE_UNBALANCED))
        assert stats.max_entry == 10
        assert stats.max_pair_total == 10
        assert stats.min_pair_total == 2
        assert stats.row_sums == SCORES_SIX

    def test_balanced_table(self):
        stats = matrix_stats(PointMatrix.from_rows(TABLE_BALANCED))
        assert stats.max_pair_total == 9
        assert stats.min_pair_total == 8
        assert stats.row_sums == SCORES_SIX

    def test_zero_matrix(self):
        stats = matrix_stats(PointMatrix.from_rows([[0, 0], [0, 0]]))
        assert stats.max_entry == stats.max_pair_total == stats.min_pair_total == 0
        assert stats.row_sums == (0, 0)

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_extreme_ordering(self, rows):
        for i in range(len(rows)):
            rows[i][i] = 0
        stats = matrix_stats(PointMatrix.from_rows(rows))
        assert stats.min_pair_total <= stats.max_pair_total
        assert stats.max_entry <= stats.max_pair_total


class TestIntervalParams:
    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            IntervalParams(3, 2)

    def test_rejects_negative_floor(self):
        with pytest.raises(ValueError):
            IntervalParams(-1, 2)


class TestVerifyRealization:
    def test_wide_table_within_wide_window(self):
        report = verify_realization(
            PointMatrix.from_rows(TABLE_WIDE),
            ScoreSequence(SCORES_SIX),
            IntervalParams(2, 10),
        )
        assert report.valid
        assert report.failures == ()

    def test_balanced_table_within_tight_window(self):
        report = verify_realization(
            PointMatrix.from_rows(TABLE_BALANCED),
            ScoreSequence(SCORES_SIX),
            IntervalParams(8, 9),
        )
        assert report.valid

    def test_perturbed_row_sum_fails(self):
        rows = [list(r) for r in TABLE_BALANCED]
        rows[0][1] += 1
        report = verify_realization(
            PointMatrix.from_rows(rows),
            ScoreSequence(SCORES_SIX),
            IntervalParams(8, 10),
        )
        assert not report.valid
        assert not report.row_sums_match

    def test_window_violation_reported(self):
        report = verify_realization(
            PointMatrix.from_rows(TABLE_WIDE),
            ScoreSequence(SCORES_SIX),
            IntervalParams(3, 10),
        )
        assert not report.valid
        assert not report.pair_totals_in_window
        assert any("pair (0,1)" in f for f in report.failures)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            verify_realization(
                PointMatrix.from_rows([[0, 1], [1, 0]]),
                ScoreSequence((1, 1, 1)),
                IntervalParams(0, 2),
            )

    def test_player_order_is_irrelevant(self):
        perm = [5, 4, 3, 2, 1, 0]
        rows = [[TABLE_WIDE[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
        report = verify_realization(
            PointMatrix.from_rows(rows),
            ScoreSequence(SCORES_SIX),
            IntervalParams(2, 10),
        )
        assert report.valid

    @pytest.mark.parametrize("stats_first", [True, False])
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        ),
        st.data(),
    )
    def test_agrees_with_pair_listing(self, stats_first, rows, data):
        n = len(rows)
        for i in range(n):
            rows[i][i] = 0
        totals = [(i, j, rows[i][j] + rows[j][i]) for i in range(n) for j in range(i + 1, n)]
        lo, hi = min(t for *_, t in totals), max(t for *_, t in totals)
        sums = sorted(map(sum, rows))
        scores = sums[:-1] + [sums[-1] + data.draw(st.integers(0, 1), label="bump")]
        # windows inside, across and outside the range of pair totals
        a = data.draw(st.integers(max(0, lo - 2), hi + 2), label="a")
        b = data.draw(st.integers(a, hi + 2), label="b")

        M = PointMatrix.from_rows(rows)
        D, params = ScoreSequence(scores), IntervalParams(a, b)
        if stats_first:
            stats = matrix_stats(M)
            report = verify_realization(M, D, params)
        else:
            report = verify_realization(M, D, params)
            stats = matrix_stats(M)
        assert matrix_stats(M) == stats
        assert matrix_stats(M) == stats

        assert stats.max_entry == max(map(max, rows))
        assert stats.max_pair_total == hi
        assert stats.min_pair_total == lo
        assert stats.row_sums == tuple(map(sum, rows))
        failures = [
            f"pair ({i},{j}) total {t} outside [{a},{b}]"
            for i, j, t in totals
            if not a <= t <= b
        ]
        assert report.zero_diagonal
        assert report.pair_totals_in_window == (not failures)
        assert report.row_sums_match == (scores == sums)
        if scores != sums:
            failures.insert(0, f"sorted row sums {tuple(sums)} != scores {tuple(scores)}")
        assert report.failures == tuple(failures)
        assert report.valid == (not failures)


def test_ceil_div():
    assert ceil_div(0, 5) == 0
    assert ceil_div(10, 5) == 2
    assert ceil_div(11, 5) == 3
    assert ceil_div(-3, 2) == -1
