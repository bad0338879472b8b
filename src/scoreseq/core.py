"""Domain types and shared helpers for interval-tournament score sequences.

An interval tournament on n players is a loopless directed multigraph in
which every unordered pair of players exchanges between ``a`` and ``b``
points in total.  Its point matrix holds ``m[i][j]``, the points player i
won against player j, with a zero diagonal; the row sums are the players'
scores.  A score sequence is the nondecreasing vector of those scores.

Everything here is exact integer arithmetic on immutable values.  All
operations are pure functions and safe to call concurrently: the one write,
``matrix_stats`` caching its result on a ``PointMatrix``, is idempotent, so
racing calls store equal values.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

# Sizes above this would make b * B_n products astronomically large and are
# far outside anything the algorithms are meant for.
MAX_MAGNITUDE = 10**9


class TournamentError(Exception):
    """Base class for errors raised by this package."""


class InputTooShort(TournamentError, ValueError):
    """A score sequence needs at least two players."""


class NegativeScore(TournamentError, ValueError):
    """Scores are counts of points won and cannot be negative."""


class ShapeMismatch(TournamentError, ValueError):
    """A matrix and a score sequence disagree on the number of players."""


class NotAnInteger(TournamentError, TypeError):
    """Scores, matrix entries and window bounds must be integers, not bools."""


class InfeasiblePrefix(TournamentError, RuntimeError):
    """The slicing step was handed a prefix it cannot settle.

    This indicates a caller bug: the reconstruction only ever passes
    prefixes that already passed the realizability test.
    """


class OracleBudgetExceeded(TournamentError, RuntimeError):
    """The exhaustive search would exceed its state budget."""


class _Value:
    """Immutable value over its ``__slots__`` fields.

    Equality (same class only), hash and repr run over the fields in slot
    order; ``__reduce__`` rebuilds through ``__init__``, so pickle and
    deepcopy never assign to a field.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def ceil_div(num: int, den: int) -> int:
    """Exact ceiling of num/den for integers, den > 0."""
    return -((-num) // den)


def _as_int(value, what: str) -> int:
    """value as a plain int if operator.index accepts it and it is no bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise NotAnInteger(f"{what} {value!r} is a {type(value).__name__}, not an integer")


def _as_ints(values: Iterable, what: str) -> tuple[int, ...]:
    values = tuple(values)
    if set(map(type, values)) <= {int}:  # fast path: already plain ints
        return values
    return tuple(_as_int(v, what) for v in values)


def _validate_scores(scores: Sequence[int], ordered: bool = False) -> None:
    """Check n >= 2 and 0 <= d <= MAX_MAGNITUDE, naming the most extreme bad score."""
    if len(scores) < 2:
        raise InputTooShort(f"need at least 2 scores, got {len(scores)}")
    # nondecreasing (``ordered``) scores have their extremes at their ends
    lowest, highest = (scores[0], scores[-1]) if ordered else (min(scores), max(scores))
    if lowest < 0:
        raise NegativeScore(f"score {lowest} is negative")
    if highest > MAX_MAGNITUDE:
        raise ValueError(f"score {highest} exceeds supported magnitude {MAX_MAGNITUDE}")
    if len(scores) > MAX_MAGNITUDE:
        raise ValueError("sequence length exceeds supported magnitude")


class ScoreSequence(_Value):
    """Nondecreasing nonnegative integer scores d_1 <= ... <= d_n, n >= 2."""

    __slots__ = ("scores",)

    def __init__(self, scores: Iterable[int]) -> None:
        s = _as_ints(scores, "score")
        _validate_scores(s)
        if not all(map(operator.le, s, s[1:])):
            raise ValueError(
                "scores must be nondecreasing; use normalize_sequence first"
            )
        self._fill(s)

    @classmethod
    def _from_sorted(cls, scores: tuple[int, ...]) -> "ScoreSequence":
        """``ScoreSequence(scores)`` for plain ints the library has already
        sorted and range-checked: no type, order or range scan."""
        D = cls.__new__(cls)
        D._fill(scores)
        return D

    @property
    def n(self) -> int:
        return len(self.scores)


class _StatsSlot(_Value):
    """Holds the ``MatrixStats`` of a matrix once ``matrix_stats`` has run.

    The slot is declared here, not in the subclass's ``__slots__``, so the
    field-wise equality, hash, repr, ``_asdict`` and pickling of ``_Value``
    never see it; a copy starts without it and computes its own.
    """

    __slots__ = ("_stats",)


class PointMatrix(_StatsSlot):
    """Square nonnegative integer matrix of match results, zero diagonal.

    ``entries[i][j]`` is the number of points player i won against player j
    (0-based indices).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        self._check_and_fill(tuple(_as_ints(row, "matrix entry") for row in entries))

    def _check_and_fill(self, rows: tuple[tuple[int, ...], ...]) -> None:
        """Check the shape, zero diagonal and signs of rows of plain ints, then store them."""
        n = len(rows)
        if n < 2:
            raise InputTooShort(f"need at least 2 players, got {n}")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ShapeMismatch(f"row {i} has length {len(row)}, expected {n}")
            if row[i] != 0:
                raise ValueError(f"diagonal entry [{i}][{i}] = {row[i]} must be 0")
            if min(row) < 0:
                j = next(j for j, v in enumerate(row) if v < 0)
                raise ValueError(f"entry [{i}][{j}] = {row[j]} is negative")
        self._fill(rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "PointMatrix":
        return cls(rows)

    @classmethod
    def _from_int_rows(cls, rows: Iterable[Iterable[int]]) -> "PointMatrix":
        """``from_rows`` for rows the library built from plain ints: no type scan."""
        M = cls.__new__(cls)
        M._check_and_fill(tuple(map(tuple, rows)))
        return M


class IntervalParams(_Value):
    """Per-pair point window: every pair total must lie in [a, b]."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        if type(a) is not int or type(b) is not int:
            a, b = _as_int(a, "a"), _as_int(b, "b")
        if not 0 <= a <= b:
            raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
        object.__setattr__(self, "a", a)  # no _fill: sweep builds many windows
        object.__setattr__(self, "b", b)


class MatrixStats(_Value):
    """Extremes of a point matrix: largest entry, largest and smallest pair total."""

    __slots__ = ("max_entry", "max_pair_total", "min_pair_total", "row_sums")

    def __init__(
        self,
        max_entry: int,
        max_pair_total: int,
        min_pair_total: int,
        row_sums: tuple[int, ...],
    ) -> None:
        self._fill(max_entry, max_pair_total, min_pair_total, row_sums)


class ExtremalSummary(_Value):
    """The three optimum parameters of a score sequence.

    e: smallest achievable largest single entry over all realizations.
    f: smallest achievable largest pair total.
    g: largest achievable smallest pair total.
    f_search_lo/hi: the window that was guaranteed to contain f.
    """

    __slots__ = ("e", "f", "g", "f_search_lo", "f_search_hi")

    def __init__(self, e: int, f: int, g: int, f_search_lo: int, f_search_hi: int):
        if not (0 <= g <= f and e <= f):
            raise ValueError(f"inconsistent summary e={e}, f={f}, g={g}")
        if not f_search_lo <= f <= f_search_hi:
            raise ValueError(
                f"f={f} outside its search window [{f_search_lo}, {f_search_hi}]"
            )
        self._fill(e, f, g, f_search_lo, f_search_hi)


class RealizationReport(_Value):
    """Outcome of checking a matrix against a score sequence and a pair window."""

    __slots__ = ("zero_diagonal", "row_sums_match", "pair_totals_in_window", "failures")

    def __init__(
        self,
        zero_diagonal: bool,
        row_sums_match: bool,
        pair_totals_in_window: bool,
        failures: tuple[str, ...] = (),
    ) -> None:
        self._fill(zero_diagonal, row_sums_match, pair_totals_in_window, failures)

    @property
    def valid(self) -> bool:
        return self.zero_diagonal and self.row_sums_match and self.pair_totals_in_window


def normalize_sequence(raw: Sequence[int]) -> tuple[ScoreSequence, tuple[int, ...]]:
    """Sort raw scores nondecreasingly and report where each one came from.

    Returns the sorted sequence and a permutation ``perm`` such that
    ``sorted[k] == raw[perm[k]]`` (stable: ties keep their original order).

    Raises InputTooShort, NegativeScore or NotAnInteger for invalid input,
    and ValueError for a score above ``MAX_MAGNITUDE``.
    """
    raw = _as_ints(raw, "score")
    # keyed on a list copy: list.__getitem__ is a plain builtin method, which
    # the sort calls faster than the tuple's slot wrapper; the keys are the same
    order = tuple(sorted(range(len(raw)), key=list(raw).__getitem__))
    # one C-level gather; itemgetter returns a bare value for one index and
    # fails on none, so short input, sorted as it is, goes straight to the check
    scores = operator.itemgetter(*order)(raw) if len(raw) > 1 else raw
    _validate_scores(scores, ordered=True)
    return ScoreSequence._from_sorted(scores), order


def matrix_stats(M: PointMatrix) -> MatrixStats:
    """Largest entry, largest/smallest pair total (over i<j), and row sums.

    Computed once per matrix: the result is kept on M and returned again.
    """
    try:
        return M._stats
    except AttributeError:
        pass
    n = M.n
    rows = M.entries
    max_total = min_total = rows[0][1] + rows[1][0]
    for i in range(n):
        for j in range(i + 1, n):
            t = rows[i][j] + rows[j][i]
            if t > max_total:
                max_total = t
            elif t < min_total:
                min_total = t
    stats = MatrixStats(
        max_entry=max(map(max, rows)),
        max_pair_total=max_total,
        min_pair_total=min_total,
        row_sums=M.row_sums(),
    )
    object.__setattr__(M, "_stats", stats)
    return stats


def verify_realization(
    M: PointMatrix, D: ScoreSequence, params: IntervalParams
) -> RealizationReport:
    """Check that M realizes D within the pair window of params.

    Row sums are compared after sorting, so matrices whose players are in a
    different order than the (sorted) score sequence still verify.

    Raises ShapeMismatch when M and D disagree on the player count.
    """
    if M.n != D.n:
        raise ShapeMismatch(f"matrix has {M.n} players, sequence has {D.n}")
    failures: list[str] = []
    stats = matrix_stats(M)
    sums = tuple(sorted(stats.row_sums))
    sums_ok = sums == D.scores
    if not sums_ok:
        failures.append(f"sorted row sums {sums} != scores {D.scores}")

    # every pair total lies in [a, b] exactly when both extremes do; only a
    # matrix that fails needs the pairs listed
    a, b = params.a, params.b
    window_ok = a <= stats.min_pair_total and stats.max_pair_total <= b
    if not window_ok:
        entries = M.entries
        for i, row in enumerate(entries):
            for j in range(i + 1, len(row)):
                t = row[j] + entries[j][i]
                if not a <= t <= b:
                    failures.append(f"pair ({i},{j}) total {t} outside [{a},{b}]")
    return RealizationReport(
        zero_diagonal=True,  # every PointMatrix is checked for it on construction
        row_sums_match=sums_ok,
        pair_totals_in_window=window_ok,
        failures=tuple(failures),
    )
