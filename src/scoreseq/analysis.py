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
smallest feasible ``b`` (called f) the target of a monotone binary search.
The smallest achievable single entry e is the pigeonhole bound of the top
score.  All arithmetic is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from collections.abc import Callable
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


def _bisect(lo: int, hi: int, ok: Callable[[int], bool]) -> int:
    """Smallest x in (lo, hi] with ok(x), for ok monotone, false at lo, true at hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def min_f(D: ScoreSequence) -> int:
    """Smallest b such that D is realizable with all pair totals <= b.

    Binary search over the guaranteed window; feasibility in b is monotone
    because raising b only relaxes the right-hand inequalities.
    O(n log(d_n / n)) time.
    """
    return _min_f(D, *f_search_interval(D))


def _min_f(D: ScoreSequence, lo: int, hi: int) -> int:
    """``min_f`` over the window [lo, hi] that ``f_search_interval`` gave for D."""
    feasible = lambda b: interval_test(D, IntervalParams(0, b))
    return lo if feasible(lo) else _bisect(lo, hi, feasible)


def min_f_closed_form(D: ScoreSequence) -> int:
    """Direct O(n) evaluation of f, used to cross-check the binary search.

    Unfolding the loss table turns the right-hand inequalities into one
    constraint per index pair 0 <= j < n, max(j, 1) <= k <= n:

        T_k - S_j  <=  b * (B_n - B_j),    T_k = S_k + (n - k) * d_k.

    For a fixed j only top = max over k >= max(j, 1) of T_k counts, so one
    backward pass that keeps this suffix maximum yields f as the largest
    ceiled quotient (top - S_j) / (B_n - B_j) over j.
    """
    scores = D.scores
    n = len(scores)
    S = list(accumulate(scores, initial=0))
    pairs = n * (n - 1) // 2
    top = S[n]
    best = 0
    for j in range(n - 1, -1, -1):
        if j:
            top = max(top, S[j] + (n - j) * scores[j - 1])
        best = max(best, ceil_div(top - S[j], pairs - j * (j - 1) // 2))
    return best


def max_g(D: ScoreSequence) -> int:
    """Largest a such that D is realizable with all pair totals in [a, f].

    The a-side of the test decouples from b, so the answer is the closed
    form min over 2 <= k <= n of floor(S_k / B_k); it never exceeds f.
    O(n) time.
    """
    S = islice(accumulate(D.scores), 1, None)  # S_2 .. S_n
    return min(map(floordiv, S, accumulate(range(1, D.n))))  # over B_2 .. B_n


def max_g_by_search(D: ScoreSequence, f: int) -> int:
    """Binary-search evaluation of g, used to cross-check the closed form."""
    if interval_test(D, IntervalParams(f, f)):
        return f
    # floor 0 is feasible and f is not; g + 1 is the first infeasible floor
    return _bisect(0, f, lambda a: not interval_test(D, IntervalParams(a, f))) - 1


def extremal_summary(D: ScoreSequence) -> ExtremalSummary:
    """Compute e, f, g together with the window the f-search used."""
    lo, hi = f_search_interval(D)
    # hi is twice bound_e(D), so e comes from the window already in hand
    return ExtremalSummary(
        hi // 2, _min_f(D, lo, hi), max_g(D), f_search_lo=lo, f_search_hi=hi
    )
