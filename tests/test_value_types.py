"""Behaviour of the eight immutable value types, pinned type by type.

Each type compares, hashes and prints over its fields in declaration order,
refuses assignment and deletion, and survives pickle and deepcopy.
"""

import copy
import pickle

import pytest

from scoreseq import (
    ExtremalSummary,
    IntervalParams,
    MatrixStats,
    OracleResult,
    PointMatrix,
    RealizationReport,
    ScoreSequence,
    SweepReport,
    matrix_stats,
)

WITNESS = PointMatrix(((0, 2), (1, 0)))

# (type, field values in declaration order, repr)
CASES = [
    (ScoreSequence, ((1, 2, 3),), "ScoreSequence(scores=(1, 2, 3))"),
    (PointMatrix, (((0, 2), (1, 0)),), "PointMatrix(entries=((0, 2), (1, 0)))"),
    (IntervalParams, (1, 4), "IntervalParams(a=1, b=4)"),
    (
        MatrixStats,
        (2, 3, 3, (2, 1)),
        "MatrixStats(max_entry=2, max_pair_total=3, min_pair_total=3, "
        "row_sums=(2, 1))",
    ),
    (
        ExtremalSummary,
        (1, 2, 1, 2, 3),
        "ExtremalSummary(e=1, f=2, g=1, f_search_lo=2, f_search_hi=3)",
    ),
    (
        RealizationReport,
        (True, False, True, ("sums differ",)),
        "RealizationReport(zero_diagonal=True, row_sums_match=False, "
        "pair_totals_in_window=True, failures=('sums differ',))",
    ),
    (
        OracleResult,
        (True, 1, 3, 3, 2, WITNESS),
        "OracleResult(realizable=True, count=1, min_F=3, max_G=3, min_E=2, "
        "witness=PointMatrix(entries=((0, 2), (1, 0))))",
    ),
    (
        SweepReport,
        (3, {2: 3}, 10, ("(1, 1): mismatch",)),
        "SweepReport(sequences=3, by_length={2: 3}, comparisons=10, "
        "mismatches=('(1, 1): mismatch',))",
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]

# a second value of each type that differs in at least one field
OTHERS = {
    ScoreSequence: ((1, 2, 4),),
    PointMatrix: (((0, 1), (2, 0)),),
    IntervalParams: (1, 5),
    MatrixStats: (2, 3, 2, (2, 1)),
    ExtremalSummary: (1, 2, 0, 2, 3),
    RealizationReport: (True, True, True, ()),
    OracleResult: (True, 2, 3, 3, 2, WITNESS),
    SweepReport: (3, {2: 3}, 11, ()),
}


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
class TestValueType:
    def test_repr(self, cls, values, text):
        assert repr(cls(*values)) == text

    def test_equality(self, cls, values, text):
        value = cls(*values)
        assert value == cls(*values)
        assert not value != cls(*values)
        assert value != cls(*OTHERS[cls])
        assert value != values

    def test_other_type_with_equal_fields_is_unequal(self, cls, values, text):
        Other = type("Other", (cls,), {})
        assert cls(*values) != Other(*values)
        assert Other(*values) != cls(*values)

    def test_hash(self, cls, values, text):
        value = cls(*values)
        if cls is SweepReport:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(cls(*values)) == hash(values)

    def test_assignment_and_deletion_raise(self, cls, values, text):
        value = cls(*values)
        field = text[len(cls.__name__) + 1 :].split("=", 1)[0]
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(value, field, values[0])
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert value == cls(*values)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, cls, values, text, protocol):
        value = cls(*values)
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls
        assert back == value
        assert repr(back) == text

    def test_deepcopy_round_trip(self, cls, values, text):
        value = cls(*values)
        back = copy.deepcopy(value)
        assert type(back) is cls
        assert back == value
        assert repr(back) == text
        assert copy.copy(value) == value


class TestPointMatrixWithCachedStats:
    """matrix_stats keeps its result on the matrix, outside the fields."""

    VALUES, TEXT = CASES[1][1], CASES[1][2]

    def cached(self):
        M = PointMatrix(*self.VALUES)
        matrix_stats(M)
        return M

    def test_equality_hash_and_repr(self):
        M, fresh = self.cached(), PointMatrix(*self.VALUES)
        assert M == fresh and fresh == M
        assert hash(M) == hash(fresh) == hash(self.VALUES)
        assert repr(M) == self.TEXT
        assert M._asdict() == {"entries": self.VALUES[0]}

    PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy]
        + [lambda M, p=p: pickle.loads(pickle.dumps(M, p)) for p in PROTOCOLS],
        ids=["copy", "deepcopy"] + [f"pickle{p}" for p in PROTOCOLS],
    )
    def test_copy_computes_its_own_stats(self, round_trip):
        M = self.cached()
        back = round_trip(M)
        assert type(back) is PointMatrix
        assert back == M and repr(back) == self.TEXT
        stats = matrix_stats(back)
        assert stats == matrix_stats(M) and stats is not matrix_stats(M)

    def test_assignment_and_deletion_raise(self):
        M = self.cached()
        for name in ("entries", "_stats", "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(M, name, None)
        for name in ("entries", "_stats"):
            with pytest.raises(AttributeError):
                delattr(M, name)
        assert M == PointMatrix(*self.VALUES)


@pytest.mark.parametrize(
    "cls, values, message",
    [
        (ExtremalSummary, (3, 2, 1, 2, 3), "inconsistent summary e=3, f=2, g=1"),
        (ExtremalSummary, (1, 4, 1, 2, 3), r"f=4 outside its search window \[2, 3\]"),
        (OracleResult, (True, 0, 3, 3, 2, WITNESS), "realizable must mean count > 0"),
        (OracleResult, (True, 1, None, 3, 2, WITNESS), "extremes must be present"),
    ],
)
def test_inconsistent_fields_are_refused(cls, values, message):
    with pytest.raises(ValueError, match=message):
        cls(*values)


def test_defaults_of_the_trailing_fields():
    assert RealizationReport(True, True, True).failures == ()
    assert SweepReport(1, {2: 1}, 4).mismatches == ()


def test_keyword_construction():
    assert IntervalParams(b=4, a=1) == IntervalParams(1, 4)
    assert ExtremalSummary(
        e=1, f=2, g=1, f_search_lo=2, f_search_hi=3
    ) == ExtremalSummary(1, 2, 1, 2, 3)
