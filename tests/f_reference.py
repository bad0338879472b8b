"""Second routes to f and g, kept beside the library to cross-check it.

``min_f_by_search`` and ``max_g_by_search`` bisect over ``interval_test``:
feasibility is monotone in b (raising b only relaxes the right-hand
inequalities) and in a (lowering a only relaxes the left-hand ones).
``min_f_by_loss_table`` unfolds the paper's loss table into one backward
pass over a suffix maximum.  None of them shares the top-set formula or
the prefix-average minimum that ``extremal_summary`` evaluates, nor any
code with it: the bisection window is computed here from the scores.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import accumulate

from scoreseq import IntervalParams, ScoreSequence, interval_test
from scoreseq.core import ceil_div


def _bisect(lo: int, hi: int, ok: Callable[[int], bool]) -> int:
    """Smallest x in (lo, hi] with ok(x), for ok monotone, false at lo, true at hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def min_f_by_search(D: ScoreSequence) -> int:
    """f by probing the floor of its window, then bisecting the window.

    The window is [max(ceil(S_n / B_n), h), 2h] with h = ceil(d_n / (n - 1)):
    the average pair total, and the top row's pigeonhole bound on one entry,
    lie below f, and the evenly spread construction keeps every pair total
    within 2h.
    """
    n = D.n
    h = ceil_div(D.scores[-1], n - 1)
    lo, hi = max(ceil_div(sum(D.scores), n * (n - 1) // 2), h), 2 * h
    feasible = lambda b: interval_test(D, IntervalParams(0, b))
    return lo if feasible(lo) else _bisect(lo, hi, feasible)


def min_f_by_loss_table(D: ScoreSequence) -> int:
    """f from the loss table, unfolded into one constraint per index pair.

    The right-hand inequalities become, for 0 <= j < n and
    max(j, 1) <= k <= n,

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


def max_g_by_search(D: ScoreSequence, f: int) -> int:
    """g by bisecting the floors below the cap f."""
    if interval_test(D, IntervalParams(f, f)):
        return f
    # floor 0 is feasible and f is not; g + 1 is the first infeasible floor
    return _bisect(0, f, lambda a: not interval_test(D, IntervalParams(a, f))) - 1
