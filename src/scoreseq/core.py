"""Domain types and shared helpers for interval-tournament score sequences.

An interval tournament on n players is a loopless directed multigraph in
which every unordered pair of players exchanges between ``a`` and ``b``
points in total.  Its point matrix holds ``m[i][j]``, the points player i
won against player j, with a zero diagonal; the row sums are the players'
scores.  A score sequence is the nondecreasing vector of those scores.

Everything here is exact integer arithmetic on immutable values.  All
operations are pure functions and safe to call concurrently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _validate_scores(scores: Sequence[int]) -> None:
    """Check n >= 2 and 0 <= d <= MAX_MAGNITUDE, naming the most extreme bad score."""
    if len(scores) < 2:
        raise InputTooShort(f"need at least 2 scores, got {len(scores)}")
    lowest, highest = min(scores), max(scores)
    if lowest < 0:
        raise NegativeScore(f"score {lowest} is negative")
    if highest > MAX_MAGNITUDE:
        raise ValueError(f"score {highest} exceeds supported magnitude {MAX_MAGNITUDE}")
    if len(scores) > MAX_MAGNITUDE:
        raise ValueError("sequence length exceeds supported magnitude")


@dataclass(frozen=True)
class ScoreSequence:
    """Nondecreasing nonnegative integer scores d_1 <= ... <= d_n, n >= 2."""

    scores: tuple[int, ...]

    def __post_init__(self) -> None:
        s = _as_ints(self.scores, "score")
        object.__setattr__(self, "scores", s)
        _validate_scores(s)
        if not all(map(operator.le, s, s[1:])):
            raise ValueError(
                "scores must be nondecreasing; use normalize_sequence first"
            )

    @property
    def n(self) -> int:
        return len(self.scores)

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self):
        return iter(self.scores)

    def __getitem__(self, i):
        return self.scores[i]


@dataclass(frozen=True)
class PointMatrix:
    """Square nonnegative integer matrix of match results, zero diagonal.

    ``entries[i][j]`` is the number of points player i won against player j
    (0-based indices).
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(_as_ints(row, "matrix entry") for row in self.entries)
        object.__setattr__(self, "entries", rows)
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

    @property
    def n(self) -> int:
        return len(self.entries)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "PointMatrix":
        return cls(tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class IntervalParams:
    """Per-pair point window: every pair total must lie in [a, b]."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if type(self.a) is not int or type(self.b) is not int:
            object.__setattr__(self, "a", _as_int(self.a, "a"))
            object.__setattr__(self, "b", _as_int(self.b, "b"))
        if not 0 <= self.a <= self.b:
            raise ValueError(f"need 0 <= a <= b, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class MatrixStats:
    """Extremes of a point matrix: largest entry, largest and smallest pair total."""

    max_entry: int
    max_pair_total: int
    min_pair_total: int
    row_sums: tuple[int, ...]


@dataclass(frozen=True)
class ExtremalSummary:
    """The three optimum parameters of a score sequence.

    e: smallest achievable largest single entry over all realizations.
    f: smallest achievable largest pair total.
    g: largest achievable smallest pair total.
    f_search_lo/hi: the window that was guaranteed to contain f.
    """

    e: int
    f: int
    g: int
    f_search_lo: int
    f_search_hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.g <= self.f and self.e <= self.f):
            raise ValueError(f"inconsistent summary e={self.e}, f={self.f}, g={self.g}")
        if not self.f_search_lo <= self.f <= self.f_search_hi:
            raise ValueError(
                f"f={self.f} outside its search window "
                f"[{self.f_search_lo}, {self.f_search_hi}]"
            )


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of checking a matrix against a score sequence and a pair window."""

    zero_diagonal: bool
    row_sums_match: bool
    pair_totals_in_window: bool
    failures: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return self.zero_diagonal and self.row_sums_match and self.pair_totals_in_window


def normalize_sequence(raw: Sequence[int]) -> tuple[ScoreSequence, tuple[int, ...]]:
    """Sort raw scores nondecreasingly and report where each one came from.

    Returns the sorted sequence and a permutation ``perm`` such that
    ``sorted[k] == raw[perm[k]]`` (stable: ties keep their original order).

    Raises InputTooShort, NegativeScore or NotAnInteger for invalid input.
    """
    raw = _as_ints(raw, "score")
    order = tuple(sorted(range(len(raw)), key=raw.__getitem__))
    return ScoreSequence(tuple(map(raw.__getitem__, order))), order


def matrix_stats(M: PointMatrix) -> MatrixStats:
    """Largest entry, largest/smallest pair total (over i<j), and row sums."""
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
    return MatrixStats(
        max_entry=max(map(max, rows)),
        max_pair_total=max_total,
        min_pair_total=min_total,
        row_sums=M.row_sums(),
    )


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

    diag_ok = True  # PointMatrix construction already enforces the diagonal

    sums = sorted(M.row_sums())
    sums_ok = tuple(sums) == D.scores
    if not sums_ok:
        failures.append(f"sorted row sums {tuple(sums)} != scores {D.scores}")

    window_ok = True
    entries = M.entries
    a, b = params.a, params.b
    for i, row in enumerate(entries):
        for j in range(i + 1, len(row)):
            t = row[j] + entries[j][i]
            if not a <= t <= b:
                window_ok = False
                failures.append(f"pair ({i},{j}) total {t} outside [{a},{b}]")
    return RealizationReport(
        zero_diagonal=diag_ok,
        row_sums_match=sums_ok,
        pair_totals_in_window=window_ok,
        failures=tuple(failures),
    )
