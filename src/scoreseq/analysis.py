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
averages, max over 0 <= j < n of ceil((S_n - S_j) / (B_n - B_j)).  One
forward pass over the prefix sums takes both, and neither needs a test.
The smallest achievable single entry e is the pigeonhole bound of the top
score.  All arithmetic is exact; no floating point is used anywhere.
"""

from __future__ import annotations

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

    O(n) time: the joint pass of ``_f_and_g``, which also takes g.
    """
    return _f_and_g(D)[0]


def max_g(D: ScoreSequence) -> int:
    """Largest a such that D is realizable with all pair totals in [a, f].

    The a-side of the test decouples from b, so the answer is a closed
    form; it never exceeds f.  O(n) time: the joint pass of ``_f_and_g``,
    which also takes f.
    """
    return _f_and_g(D)[1]


def _f_and_g(D: ScoreSequence) -> tuple[int, int]:
    """f and g in one forward pass over the prefix sums S_j and pair counts B_j.

    f is the largest ceil((S_n - S_j) / (B_n - B_j)) over 0 <= j < n, taken
    as minus the smallest floor of (S_j - S_n) / (B_n - B_j); g is the
    smallest floor(S_k / B_k) over 2 <= k <= n.  The terms j = 0 and k = n
    come from the totals, and j = 1 shares j = 0's pair count with a larger
    S_j, so it never wins.  The loop takes j = k = 2 .. n - 1.
    """
    s = D.scores
    n = len(s)
    S_n = sum(s)
    B_n = n * (n - 1) // 2
    minus_f = -S_n // B_n
    g = S_n // B_n
    S = s[0]
    B = 0
    for k in range(1, n - 1):  # S becomes S_{k+1} and B becomes B_{k+1}
        S += s[k]
        B += k
        q = (S - S_n) // (B_n - B)
        if q < minus_f:
            minus_f = q
        q = S // B
        if q < g:
            g = q
    return -minus_f, g


def extremal_summary(D: ScoreSequence) -> ExtremalSummary:
    """Compute e, f, g together with the window that holds f."""
    lo, hi = f_search_interval(D)
    f, g = _f_and_g(D)
    # hi is twice bound_e(D), so e comes from the window already in hand
    return ExtremalSummary(hi // 2, f, g, f_search_lo=lo, f_search_hi=hi)
