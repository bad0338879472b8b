"""Exhaustive ground truth for small instances, plus classical cross-checks.

``enumerate_extremes`` counts every point matrix with the given score
sequence whose pair totals lie in [a_floor, pair_cap], takes its exact
extremes and keeps the first one, with the unordered pairs placed in
lexicographic order, totals in ascending order and, for each total,
ascending splits.  ``sweep`` instead computes the Pareto frontier of
(F, G, E): largest pair total, smallest pair total and largest entry, with
F and E as small and G as large as possible.  Both read one memoized
search, described below; a depth-first walk in the tests referees it.

Any realization has every pair total at most d_{n-1} + d_n, so pair_cap =
2 * d_n makes the searched space the whole realization space.  The sweep
uses the cheaper cap C = 2h + 1, where h = ceil(d_n/(n-1)) = e, and stays
exact anyway:

* the evenly-spread construction has F <= 2h, so a realization attaining the
  optimum f has every total below C and lives inside the space; the smallest
  F found is f (the sweep reports a mismatch if none is at most 2h);
* a realization attaining e = h has F <= 2e < C, so the smallest E found is e;
* for the largest min-pair-total, points exchanged among the bottom k
  players come out of their own scores, so B_k * G <= S_k for every
  realization; when the capped maximum reaches min_k floor(S_k / B_k) it
  is therefore the unconstrained maximum g as well;
* a window [a, b] with b <= C is realizable exactly when some realization has
  F <= b and G >= a, all of which lie inside the space; a frontier point
  dominating such a realization meets both bounds, so the frontier answers
  every such window.

Each sequence reduces its frontier to a reach list: reach[b] is the largest
G of a point with F <= b (-1 if none), so window [a, b] is realizable exactly
when a <= reach[b].  The windows themselves come from one table per sweep,
(a, b, IntervalParams(a, b)) ordered by b and then a, so the windows with
b <= C are exactly its first (C + 1)(C + 2)/2 rows.  The table grows a row
of b at a time when a sequence needs a larger C, so it is never larger than
the window loop of the sequence that needed it.

The search is a memoized dynamic programme.  Its state is (pair index k,
remaining scores), and its value covers the state's completions: the ways
to place pairs k, k+1, ... with totals in [a_floor, pair_cap] so that every
row is spent.  The value holds their count, the sum of the children's
counts; their Pareto set of (F, G, E); and the first placement, in the order
above, that has a completion.  Placing pair (i, j) with split (m_ij, m_ji)
and total t maps each point of the child state to (max(F, t), min(G, t),
max(E, m_ij, m_ji)).  That map is monotone in each coordinate, so a
dominated child point stays dominated after it, and keeping only Pareto
sets loses nothing.  Row i closes at its pair (i, n-1), which must spend
it, so at the last pair every other row is spent: that state has the one
completion (r_{n-1}, r_n), with point (t, t, max(r_{n-1}, r_n)) for t =
r_{n-1} + r_n, when a_floor <= t <= pair_cap and none otherwise, and the
search answers it in that closed form.  Following the first placements
from the root builds the first realization.  The value depends on the
state, the pair cap and a_floor alone, so one memo keyed by (pair cap, pair
index, remaining scores) serves every sequence of a sweep, all at a_floor
0, and the budget counts the states it holds.

``moon_test`` is Moon's classical characterization of score sequences of
c-point-per-match round robins, and at c = 1 it is Landau's theorem for
ordinary (one point per match) tournaments; the general interval test must
agree with it on the diagonal windows (c,c).  A sweep builds those windows
once, and one probe of (1,1) and one ``moon_test(D, 1)`` answer both the
Landau and the c = 1 Moon check, which still count as two comparisons.
"""

from __future__ import annotations

import itertools
from math import comb

from .analysis import extremal_summary, interval_test
from .core import (
    IntervalParams,
    OracleBudgetExceeded,
    PointMatrix,
    ScoreSequence,
    _as_int,
    _validate_scores,
    _Value,
)

DEFAULT_BUDGET = 10**8
# Also a recursion bound: _frontier recurses once per pair, so its walk is
# n(n-1)/2 = 15 deep; lifting the limit needs n <= 45 or an iterative walk.
MAX_ORACLE_PLAYERS = 6


class OracleResult(_Value):
    """What exhaustion found: realizability, counts, and exact extremes.

    min_F / max_G / min_E may come from different witnesses; they are the
    exact optima over every realization inside the searched window.
    """

    __slots__ = ("realizable", "count", "min_F", "max_G", "min_E", "witness")

    def __init__(
        self,
        realizable: bool,
        count: int,
        min_F: int | None,
        max_G: int | None,
        min_E: int | None,
        witness: PointMatrix | None,
    ) -> None:
        if realizable != (count > 0):
            raise ValueError("realizable must mean count > 0")
        if realizable and (min_F is None or max_G is None):
            raise ValueError("extremes must be present for realizable input")
        self._fill(realizable, count, min_F, max_G, min_E, witness)


def _estimated_states(D: ScoreSequence, pair_cap: int) -> int:
    """Upper-level cost estimate: product over rows of the ways to split d_i
    into n-1 bounded parts."""
    n = D.n
    est = 1
    for d in D.scores:
        est *= comb(min(d, (n - 1) * pair_cap) + n - 2, n - 2)
        if est > 10**18:
            break
    return est


def enumerate_extremes(
    D: ScoreSequence,
    pair_cap: int,
    a_floor: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Exhaust all realizations of D with pair totals in [a_floor, pair_cap].

    Counts them, takes their exact extremes and keeps the first one as
    witness, in the order of pairs lexicographic, totals ascending and
    splits ascending.
    A pair_cap below ceil(d_n/(n-1)) leaves no room for the top row, so the
    searched space is empty and the result is (correctly) not realizable;
    for exact f/g/e extraction call with pair_cap = 2 * d_n, which contains
    every realization.

    Raises OracleBudgetExceeded before any search when D has more than six
    players or the state estimate exceeds the budget, and during the search
    once the memo holds more than ``budget`` states.  A bool or non-integer
    pair_cap, a_floor or budget raises NotAnInteger; a negative budget raises
    ValueError before any other check.
    """
    pair_cap, a_floor = _as_int(pair_cap, "pair_cap"), _as_int(a_floor, "a_floor")
    budget = _as_int(budget, "budget")
    if budget < 0:
        raise ValueError(f"oracle budget {budget} must be nonnegative")
    n = D.n
    if pair_cap < 0:
        raise ValueError(f"pair_cap {pair_cap} must be nonnegative")
    if not 0 <= a_floor <= pair_cap:
        raise ValueError(f"need 0 <= a_floor <= pair_cap, got {a_floor}, {pair_cap}")
    if n > MAX_ORACLE_PLAYERS:
        raise OracleBudgetExceeded(f"{n} players is beyond exhaustive reach")
    estimate = _estimated_states(D, pair_cap)
    if estimate > budget:
        raise OracleBudgetExceeded(f"state estimate {estimate} exceeds budget {budget}")

    memo: dict = {}
    count, points = _frontier(D, pair_cap, memo, budget, a_floor)
    witness = None
    if count:
        # every state on the way has a completion, so each holds its first
        # placement that leads to one
        grid = [[0] * n for _ in range(n)]
        rem = D.scores
        for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
            grid[i][j], grid[j][i], rem = memo[pair_cap, k, rem][2]
        witness = PointMatrix._from_int_rows(grid)
    min_F, max_G, min_E = _extremes(points)
    return OracleResult(count > 0, count, min_F, max_G, min_E, witness)


def _frontier(
    D: ScoreSequence, pair_cap: int, memo: dict, budget: int, a_floor: int = 0
) -> tuple[int, list[tuple[int, int, int]]]:
    """The number of realizations of D with pair totals in [a_floor,
    pair_cap], and their Pareto set of (F, G, E): F and E as small, G as
    large as possible.

    ``memo`` maps (pair_cap, pair index, remaining scores) to that state's
    completions: their count, their frontier and the first placement, in
    ascending total and then split, that has a completion, as (m_ij, m_ji,
    child scores).  A last-pair state is answered in closed form, as the
    module docstring shows, and stored like any other.  The memo may be
    shared by many sequences with the same a_floor; once it holds more than
    ``budget`` states, OracleBudgetExceeded is raised.
    """
    n = D.n
    pairs = list(itertools.combinations(range(n), 2))
    last = len(pairs) - 1
    spent = (0,) * n

    def solve(k: int, rem: tuple[int, ...]) -> tuple:
        key = (pair_cap, k, rem)
        value = memo.get(key)
        if value is not None:
            return value
        i, j = pairs[k]
        ri, rj = rem[i], rem[j]
        if k == last:
            # every other row closed at its pair with n-1, so the one
            # completion places ri and rj, if their total lies in the window
            total = ri + rj
            if a_floor <= total <= pair_cap:
                value = 1, [(total, total, ri if ri > rj else rj)], (ri, rj, spent)
            else:
                value = 0, [], None
        else:
            head, mid, tail = rem[:i], rem[i + 1 : j], rem[j + 1 :]
            count = 0
            first = None
            found: set[tuple[int, int, int]] = set()
            for total in range(a_floor, min(pair_cap, ri + rj) + 1):
                # row i closes at its pair (i, n-1), so it must be spent there
                lo = ri if j == n - 1 else max(0, total - rj)
                for mij in range(lo, min(total, ri) + 1):
                    mji = total - mij
                    child = (*head, ri - mij, *mid, rj - mji, *tail)
                    ways, child_points, _ = solve(k + 1, child)
                    if not ways:
                        continue
                    if not count:
                        first = mij, mji, child
                    count += ways
                    entry = mij if mij > mji else mji
                    for F, G, E in child_points:
                        found.add((
                            F if F > total else total,
                            G if G < total else total,
                            E if E > entry else entry,
                        ))
            # keep the points no other dominates; sorted by (F, -G, E), every
            # point comes after its dominators, and F is already no larger
            points: list[tuple[int, int, int]] = []
            for F, G, E in sorted(found, key=lambda p: (p[0], -p[1], p[2])):
                if not any(g >= G and e <= E for _, g, e in points):
                    points.append((F, G, E))
            value = count, points, first
        memo[key] = value
        if len(memo) > budget:
            raise OracleBudgetExceeded(f"visited more than {budget} pair states")
        return value

    count, points, _ = solve(0, D.scores)
    return count, points


def _extremes(
    points: list[tuple[int, int, int]],
) -> tuple[int | None, int | None, int | None]:
    """(min F, max G, min E) over a frontier, all None when it is empty."""
    if not points:
        return None, None, None
    Fs, Gs, Es = zip(*points)
    return min(Fs), max(Gs), min(Es)


def _reach(points: list[tuple[int, int, int]], cap: int) -> list[int]:
    """reach[b] for 0 <= b <= cap: the largest G of a point with F <= b, or -1
    when there is none, over a frontier computed at pair cap ``cap``.

    Window [a, b] needs a point with F <= b and G >= a, so, as a >= 0, it is
    realizable exactly when a <= reach[b].
    """
    best = [-1] * (cap + 1)
    for F, G, _ in points:
        if G > best[F]:
            best[F] = G
    return list(itertools.accumulate(best, max))


def moon_test(D: ScoreSequence, c: int) -> bool:
    """Moon's c-points-per-match round robin check, Landau's one-point check
    at c = 1: S_n = c*B_n and S_k >= c*B_k."""
    if type(c) is not int:
        c = _as_int(c, "c")
    if c < 1:
        raise ValueError(f"points per match c={c} must be at least 1")
    n = D.n
    if sum(D.scores) != c * (n * (n - 1) // 2):
        return False
    S = list(itertools.accumulate(D.scores, initial=0))
    return all(S[k] >= c * (k * (k - 1) // 2) for k in range(1, n))


class SweepReport(_Value):
    """Outcome of comparing the fast formulas against exhaustion."""

    __slots__ = ("sequences", "by_length", "comparisons", "mismatches")

    def __init__(
        self,
        sequences: int,
        by_length: dict[int, int],
        comparisons: int,
        mismatches: tuple[str, ...] = (),
    ) -> None:
        self._fill(sequences, by_length, comparisons, mismatches)

    @property
    def clean(self) -> bool:
        return not self.mismatches


def sweep(
    n_max: int,
    d_max: int,
    moon_c_max: int = 3,
    budget: int = DEFAULT_BUDGET,
) -> SweepReport:
    """Compare the analysis formulas against exhaustion on every small sequence.

    For each nondecreasing sequence with 2 <= n <= n_max and entries up to
    d_max, one frontier at pair_cap = 2h + 1 (h = ceil(d_n / (n - 1)),
    exact as the module docstring shows) feeds these checks:

    * exhaustive min F / max G / min E against extremal_summary's f, g, e;
    * realizability of every window (a, b) with b up to one past the
      evenly-spread bound 2h, against interval_test, one lookup in the
      sequence's reach list per window; the windows are the first
      (2h + 2)(2h + 3)/2 rows of a table shared by all sequences, ordered
      by b then a and grown on demand;
    * interval_test on the diagonal windows against moon_test, with (1, 1)
      probed once for both Landau's check (moon_test at c = 1) and Moon's.

    The budget counts the frontier states created over the whole call;
    there is no per-sequence state estimate.  The window and diagonal
    probes are not counted: sweep(2, 100) makes 53,455,361 comparisons, over
    half a minute of work, within a budget of 5,151 states, one for each of
    its sequences.  A d_max beyond MAX_MAGNITUDE raises ScoreSequence's
    ValueError up front, so no sequence is re-checked.
    ``moon_c_max = 0`` skips the c-point checks; a negative value is an error,
    and so is a negative budget, which is checked first.
    A bool or non-integer argument raises NotAnInteger.
    An n_max beyond six players raises OracleBudgetExceeded before any search.
    Returns a report whose ``mismatches`` must be empty.
    """
    n_max, d_max = _as_int(n_max, "n_max"), _as_int(d_max, "d_max")
    moon_c_max, budget = _as_int(moon_c_max, "moon_c_max"), _as_int(budget, "budget")
    if budget < 0:
        raise ValueError(f"oracle budget {budget} must be nonnegative")
    if n_max < 2 or d_max < 0:
        raise ValueError(f"need n_max >= 2 and d_max >= 0, got {n_max}, {d_max}")
    if moon_c_max < 0:
        raise ValueError(f"moon_c_max {moon_c_max} must be nonnegative")
    if n_max > MAX_ORACLE_PLAYERS:
        raise OracleBudgetExceeded(f"{n_max} players is beyond exhaustive reach")
    _validate_scores((0, d_max))  # so every generated sequence is a valid one
    mismatches: list[str] = []
    comparisons = 0
    by_length: dict[int, int] = {}
    # (a, b, IntervalParams(a, b)) ordered by b, then a; rows up to b = top
    windows: list[tuple[int, int, IntervalParams]] = []
    top = -1
    diagonals = [IntervalParams(c, c) for c in range(1, max(moon_c_max, 1) + 1)]
    memo: dict = {}  # frontier states, shared by all sequences
    for n in range(2, n_max + 1):
        cnt = 0
        for seq in itertools.combinations_with_replacement(range(d_max + 1), n):
            cnt += 1
            D = ScoreSequence._from_sorted(seq)  # sorted, in range: no re-check
            summary = extremal_summary(D)
            h = summary.e
            cap = 2 * h + 1

            _, points = _frontier(D, cap, memo, budget)
            comparisons += 4
            min_F, max_G, min_E = _extremes(points)
            if min_F is None or min_F > 2 * h:
                mismatches.append(
                    f"{seq}: no realization under the evenly-spread cap {2 * h}"
                )
                continue
            if min_F != summary.f:
                mismatches.append(f"{seq}: exhaustive min F {min_F} != f {summary.f}")
            if max_G != summary.g:
                mismatches.append(f"{seq}: exhaustive max G {max_G} != g {summary.g}")
            if min_E != summary.e:
                mismatches.append(f"{seq}: exhaustive min E {min_E} != e {summary.e}")

            while top < cap:
                top += 1
                windows.extend((a, top, IntervalParams(a, top)) for a in range(top + 1))
            reach = _reach(points, cap)
            count = (cap + 1) * (cap + 2) // 2
            comparisons += count
            for a, b, params in windows[:count]:
                found = a <= reach[b]
                fast = interval_test(D, params)
                if found != fast:
                    mismatches.append(
                        f"{seq}: window ({a},{b}) exhaustive {found} "
                        f"!= interval_test {fast}"
                    )

            comparisons += 1 + moon_c_max
            for c, params in enumerate(diagonals, 1):
                # Landau's check is moon_test at c = 1, so (1, 1) answers both
                if moon_test(D, c) == interval_test(D, params):
                    continue
                if c == 1:
                    mismatches.append(
                        f"{seq}: Landau (moon_test at c = 1) disagrees "
                        "with window (1,1)"
                    )
                if c <= moon_c_max:
                    mismatches.append(
                        f"{seq}: moon_test({c}) disagrees with window ({c},{c})"
                    )
        by_length[n] = cnt
    return SweepReport(
        sequences=sum(by_length.values()),
        by_length=by_length,
        comparisons=comparisons,
        mismatches=tuple(mismatches),
    )
