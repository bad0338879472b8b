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
score, ceil(d_n / (n - 1)), which an evenly spread construction attains.
``extremal_summary`` takes e, f, g and a window that holds f in one
forward pass over the prefix sums, and makes no test.  All arithmetic is
exact; no floating point is used anywhere.
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


def extremal_summary(D: ScoreSequence) -> ExtremalSummary:
    """e, f, g and the window [lo, hi] that holds f, in one forward pass.

    e = ceil(d_n / (n - 1)): the top row's d_n points go to n - 1 opponents.
    f is the largest ceil((S_n - S_j) / (B_n - B_j)) over 0 <= j < n, taken
    as minus the smallest floor of (S_j - S_n) / (B_n - B_j); g is the
    smallest floor(S_k / B_k) over 2 <= k <= n.  The terms j = 0 and k = n
    come from the totals, and j = 1 shares j = 0's pair count with a larger
    S_j, so it never wins.  The loop takes j = k = 2 .. n - 1.

    The window's floor is the larger of f's j = 0 term, the average pair
    total ceil(S_n / B_n), and e; its ceiling 2e is attained by the evenly
    spread construction.
    """
    s = D.scores
    n = len(s)
    e = ceil_div(s[-1], n - 1)
    S_n = sum(s)
    B_n = n * (n - 1) // 2
    minus_f = -S_n // B_n
    g = S_n // B_n
    lo = max(-minus_f, e)
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
    return ExtremalSummary(e, -minus_f, g, f_search_lo=lo, f_search_hi=2 * e)
