"""Exhaustive ground truth for small instances, plus classical cross-checks.

The enumerator walks every point matrix with the given score sequence whose
pair totals lie in [a_floor, pair_cap], by depth-first search over the
unordered pairs in lexicographic order.  Within a pair it tries totals in
ascending order and, for each total, ascending splits.  Row sums prune the
search: once the last pair of a row is placed the row must be exactly
spent.  The walk is deterministic, so counts are reproducible.

Any realization has every pair total at most d_{n-1} + d_n, so pair_cap =
2 * d_n makes the searched space the whole realization space.  The sweep
uses the cheaper cap C = 2 * ceil(d_n/(n-1)) and stays exact anyway:

* if the capped space is nonempty, its smallest max-pair-total equals the
  true optimum f, because a realization attaining a smaller F would have
  every total below C and hence live inside the space;
* the same self-consistency gives the smallest max entry e;
* for the largest min-pair-total, points exchanged among the bottom k
  players come out of their own scores, so B_k * G <= S_k for every
  realization; when the capped maximum reaches min_k floor(S_k / B_k) it
  is therefore the unconstrained maximum g as well.

``landau_test`` and ``moon_test`` are the classical characterizations of
score sequences of ordinary (one point per match) and c-point-per-match
round robins; the general interval test must agree with them on the
diagonal windows (1,1) and (c,c).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from .analysis import bound_e, extremal_summary, interval_test
from .core import IntervalParams, OracleBudgetExceeded, PointMatrix, ScoreSequence

DEFAULT_BUDGET = 10**8
MAX_ORACLE_PLAYERS = 6


@dataclass(frozen=True)
class OracleResult:
    """What exhaustion found: realizability, counts, and exact extremes.

    min_F / max_G / min_E may come from different witnesses; they are the
    exact optima over every realization inside the searched window.
    """

    realizable: bool
    count: int
    min_F: int | None
    max_G: int | None
    min_E: int | None
    witness: PointMatrix | None

    def __post_init__(self) -> None:
        if self.realizable != (self.count > 0):
            raise ValueError("realizable must mean count > 0")
        if self.realizable and (self.min_F is None or self.max_G is None):
            raise ValueError("extremes must be present for realizable input")


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
    keep_witness: bool = True,
) -> OracleResult:
    """Exhaust all realizations of D with pair totals in [a_floor, pair_cap].

    A pair_cap below ceil(d_n/(n-1)) leaves no room for the top row, so the
    searched space is empty and the result is (correctly) not realizable;
    for exact f/g/e extraction call with pair_cap = 2 * d_n, which contains
    every realization.

    Raises OracleBudgetExceeded when the instance is too large (more than
    six players, or the state estimate / actual visited states exceed the
    budget).
    """
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

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rem = list(D.scores)
    grid = [[0] * n for _ in range(n)]

    state = {
        "visited": 0,
        "count": 0,
        "min_F": None,
        "max_G": None,
        "min_E": None,
        "witness": None,
    }

    def dfs(depth: int, cur_max_total: int, cur_min_total: int, cur_max_entry: int):
        if depth == len(pairs):
            if rem[n - 1] != 0:
                return  # rows 0..n-2 are enforced pairwise; the last is not
            state["count"] += 1
            if state["min_F"] is None or cur_max_total < state["min_F"]:
                state["min_F"] = cur_max_total
            if state["max_G"] is None or cur_min_total > state["max_G"]:
                state["max_G"] = cur_min_total
            if state["min_E"] is None or cur_max_entry < state["min_E"]:
                state["min_E"] = cur_max_entry
            if keep_witness and state["witness"] is None:
                state["witness"] = PointMatrix.from_rows(grid)
            return
        i, j = pairs[depth]
        # last pair of row i is (i, n-1); beyond it rem[i] must be spent
        pairs_left_in_row = n - j
        if rem[i] > pairs_left_in_row * pair_cap:
            return
        # row j can still win points in pairs (i', j) with i < i' < j and
        # (j, j'); this pair must leave it no more than that capacity
        capacity_j = ((j - i - 1) + (n - 1 - j)) * pair_cap
        min_mji = max(0, rem[j] - capacity_j)
        last_of_row = j == n - 1
        for total in range(a_floor, pair_cap + 1):
            if total > rem[i] + rem[j]:
                break
            lo = max(0, total - rem[j])
            hi = min(total, rem[i], total - min_mji)
            if last_of_row:
                # row i closes here, so it must be spent exactly
                if rem[i] < lo or rem[i] > hi:
                    continue
                lo = hi = rem[i]
            for mij in range(lo, hi + 1):
                state["visited"] += 1
                if state["visited"] > budget:
                    raise OracleBudgetExceeded(
                        f"visited more than {budget} pair states"
                    )
                mji = total - mij
                grid[i][j] = mij
                grid[j][i] = mji
                rem[i] -= mij
                rem[j] -= mji
                dfs(
                    depth + 1,
                    max(cur_max_total, total),
                    min(cur_min_total, total),
                    max(cur_max_entry, mij, mji),
                )
                rem[i] += mij
                rem[j] += mji

    sentinel = pair_cap + 1
    dfs(0, -1, sentinel, 0)
    # complete matrices always have n >= 2, so at least one pair updated the
    # running extremes whenever count > 0
    return OracleResult(
        realizable=state["count"] > 0,
        count=state["count"],
        min_F=state["min_F"],
        max_G=state["max_G"],
        min_E=state["min_E"],
        witness=state["witness"],
    )


def landau_test(D: ScoreSequence) -> bool:
    """Classical one-point round robin check: S_n = B_n and S_k >= B_k."""
    return moon_test(D, 1)


def moon_test(D: ScoreSequence, c: int) -> bool:
    """c-points-per-match round robin check: S_n = c*B_n and S_k >= c*B_k."""
    if c < 1:
        raise ValueError(f"points per match c={c} must be at least 1")
    n = D.n
    S = list(itertools.accumulate(D.scores, initial=0))
    if S[n] != c * (n * (n - 1) // 2):
        return False
    return all(S[k] >= c * (k * (k - 1) // 2) for k in range(1, n))


@dataclass(frozen=True)
class SweepReport:
    """Outcome of comparing the fast formulas against exhaustion."""

    sequences: int
    by_length: dict[int, int]
    comparisons: int
    mismatches: tuple[str, ...] = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        return not self.mismatches


def nondecreasing_sequences(n: int, d_max: int):
    """All nondecreasing integer sequences of length n with entries in 0..d_max."""
    return itertools.combinations_with_replacement(range(d_max + 1), n)


def sweep(
    n_max: int,
    d_max: int,
    moon_c_max: int = 3,
    budget: int = DEFAULT_BUDGET,
) -> SweepReport:
    """Compare the analysis formulas against exhaustion on every small sequence.

    For each nondecreasing sequence with 2 <= n <= n_max and entries up to
    d_max this checks:

    * exhaustive min F / max G / min E against min_f, max_g, bound_e
      (pair_cap = 2 * ceil(d_n / (n - 1)), exact as the module docstring
      shows);
    * realizability of every window (a, b) with b up to one past the
      evenly-spread bound, against interval_test; the window (0, 2h) reuses
      the search above instead of running it again;
    * interval_test on the diagonal windows against landau_test/moon_test.

    Returns a report whose ``mismatches`` must be empty.
    """
    mismatches: list[str] = []
    comparisons = 0
    by_length: dict[int, int] = {}
    for n in range(2, n_max + 1):
        cnt = 0
        for seq in nondecreasing_sequences(n, d_max):
            cnt += 1
            D = ScoreSequence(seq)
            summary = extremal_summary(D)
            h = bound_e(D)

            full = enumerate_extremes(
                D, pair_cap=2 * h, a_floor=0, budget=budget, keep_witness=False
            )
            comparisons += 4
            if not full.realizable:
                mismatches.append(
                    f"{seq}: no realization under the evenly-spread cap {2 * h}"
                )
                continue
            if full.min_F != summary.f:
                mismatches.append(
                    f"{seq}: exhaustive min F {full.min_F} != f {summary.f}"
                )
            if full.max_G != summary.g:
                mismatches.append(
                    f"{seq}: exhaustive max G {full.max_G} != g {summary.g}"
                )
            if full.min_E != summary.e:
                mismatches.append(
                    f"{seq}: exhaustive min E {full.min_E} != e {summary.e}"
                )

            for b in range(0, 2 * h + 2):
                for a in range(0, b + 1):
                    if (a, b) == (0, 2 * h):
                        found = full.realizable
                    else:
                        found = enumerate_extremes(
                            D, pair_cap=b, a_floor=a, budget=budget,
                            keep_witness=False,
                        ).realizable
                    fast = interval_test(D, IntervalParams(a, b))
                    comparisons += 1
                    if found != fast:
                        mismatches.append(
                            f"{seq}: window ({a},{b}) exhaustive {found} "
                            f"!= interval_test {fast}"
                        )

            comparisons += 1
            if landau_test(D) != interval_test(D, IntervalParams(1, 1)):
                mismatches.append(f"{seq}: landau_test disagrees with window (1,1)")
            for c in range(1, moon_c_max + 1):
                comparisons += 1
                if moon_test(D, c) != interval_test(D, IntervalParams(c, c)):
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
