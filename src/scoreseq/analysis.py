"""Realizability testing and the extremal parameters e, f, g.

A nondecreasing sequence D is the score sequence of some tournament whose
pair totals all lie in [a, b] if and only if, for every k in 1..n,

    a * B_k  <=  S_k  <=  b * B_n - L_k - (n - k) * d_k,

where B_k = k(k-1)/2, S_k is the sum of the k smallest scores, and the
paper's loss table L_k is the largest b * B_j - S_j over 0 <= j <= k.
Since S_k + (n - k) * d_k <= S_n, with equality at k = n, the right-hand
side says exactly that the top n-j players win at most b per pair they
play: S_n - S_j <= b * (B_n - B_j) for 0 <= j < n (the top-set form).

The two sides of the test are independent: the left inequalities involve
only ``a`` and the right ones only ``b``.  That makes the largest feasible
``a`` (called g) a closed-form minimum of floored prefix averages, and the
smallest feasible ``b`` (called f) a closed-form maximum of ceiled top-set
averages, max over 0 <= j < n of ceil((S_n - S_j) / (B_n - B_j)).  The
smallest achievable single entry e is the pigeonhole bound of the top
score.  All arithmetic is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from itertools import accumulate, islice
from operator import floordiv

from .core import ExtremalSummary, IntervalParams, ScoreSequence, ceil_div


def interval_test(D: ScoreSequence, params: IntervalParams) -> bool:
    """Decide whether D is realizable with every pair total in [a, b].

    When a > 0 a forward pass keeps z = S_k - a*B_k >= 0.  A backward pass
    keeps the top n-j players' slack b*(B_n - B_j) - (S_n - S_j) >= 0, each
    new player adding b per player below it, less its own score.
    """
    a, b = params.a, params.b
    scores = D.scores
    if a:
        z = a_step = 0
        for d in scores:
            z += d - a_step
            if z < 0:
                return False
            a_step += a
    slack = 0
    step = b * (len(scores) - 1)
    for d in reversed(scores):
        slack += step - d
        if slack < 0:
            return False
        step -= b
    return True


def bound_e(D: ScoreSequence) -> int:
    """Smallest achievable largest single entry: ceil(d_n / (n - 1)).

    The top player's d_n points spread over n-1 opponents force at least
    this much somewhere, and distributing every row as evenly as possible
    attains it.
    """
    return ceil_div(D.scores[-1], D.n - 1)


def f_search_interval(D: ScoreSequence) -> tuple[int, int]:
    """Window [lo, hi] guaranteed to contain f.

    lo = max(ceil(S_n / B_n), ceil(d_n / (n - 1))): the global average pair
    total and the top row's pigeonhole bound.  hi = 2 * ceil(d_n / (n - 1)):
    attained by the evenly-spread construction.
    """
    n = D.n
    h = bound_e(D)
    lo = max(ceil_div(sum(D.scores), n * (n - 1) // 2), h)
    return lo, 2 * h


def min_f(D: ScoreSequence) -> int:
    """Smallest b such that D is realizable with all pair totals <= b.

    O(n) time: one ``interval_test`` pass, then at most one pass of the
    top-set formula.
    """
    return _min_f(D, *f_search_interval(D))


def _min_f(D: ScoreSequence, lo: int, hi: int) -> int:
    """``min_f`` over the window [lo, hi] that ``f_search_interval`` gave for D.

    f is the largest ceil((S_n - S_j) / (B_n - B_j)) over 0 <= j < n; its
    terms j = 0 and j = n - 1 are the two bounds that make up lo.  A test
    pass costs about half a formula pass, so it settles the common case
    f = lo first.  Past lo, a window at most two wide needs no formula:
    there f = lo + 1, because f = hi = 2h with lo = 2h - 2 is impossible.
    Every score is at most h(n - 1), so a top set of n - j players that
    needs more than 2h - 1 per pair has (2h - 1)j < n - 1.  Then
    B_n >= (2h - 1)B_j, and S_n > (2h - 1)(B_n - B_j) >= (2h - 2)B_n lifts
    lo to 2h - 1.
    """
    if interval_test(D, IntervalParams(0, lo)):
        return lo
    if hi - lo <= 2:
        return lo + 1
    s = D.scores
    n = len(s)
    # -(S_n - S_j) // (B_n - B_j) is minus the ceiled quotient; map stops at
    # the n pair counts, so the extra accumulate term is never read
    minus_tops = accumulate(s, initial=-sum(s))
    pairs = accumulate(range(0, 1 - n, -1), initial=n * (n - 1) // 2)
    return -min(map(floordiv, minus_tops, pairs))


def max_g(D: ScoreSequence) -> int:
    """Largest a such that D is realizable with all pair totals in [a, f].

    The a-side of the test decouples from b, so the answer is the closed
    form min over 2 <= k <= n of floor(S_k / B_k); it never exceeds f.
    O(n) time.
    """
    S = islice(accumulate(D.scores), 1, None)  # S_2 .. S_n
    return min(map(floordiv, S, accumulate(range(1, D.n))))  # over B_2 .. B_n


def extremal_summary(D: ScoreSequence) -> ExtremalSummary:
    """Compute e, f, g together with the window that holds f."""
    lo, hi = f_search_interval(D)
    # hi is twice bound_e(D), so e comes from the window already in hand
    return ExtremalSummary(
        hi // 2, _min_f(D, lo, hi), max_g(D), f_search_lo=lo, f_search_hi=hi
    )
