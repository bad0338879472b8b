"""Witness constructors: naive, evenly spread, and minimax-balanced.

``naive_construct`` realizes any nonnegative vector along a single cycle.
``pigeonhole_construct`` spreads each row as evenly as possible, attaining
the smallest possible largest entry.  ``mini_max`` builds a realization
whose pair totals all lie in [g, f], the provably best window: it settles
players from the highest index down, and for each player k runs a slicing
step that balances the k-th row and column against the remaining prefix.

The slicing step starts from the extreme where player k wins all f points
of each of their matches, then sheds the surplus ("missing" points) in two
phases: first by handing points to lower players who still hold slack
above the mandatory minimum ("additional" points), always to the current
top block of equal provisional scores so the prefix stays nondecreasing;
then, when no slack is reachable, by plain forfeits that lower pair totals
toward g.  Indices inside this module are 1-based to keep the prefix
sentinel p[0] = 0 natural; the public matrices are 0-based.

All steps work in place on one 1-based working matrix and one prefix list:
step k settles row and column k and leaves the reduced prefix in p[1..k-1]
for step k-1.  Each step builds the prefix slack once; a hand-out round to
the block low..x patches the slack over the block, re-sorts only the block,
and extends the room (suffix minima of the slack) down to the next block
only.  The slack is rebuilt once more when the quota is met and players
unlock.
"""

from __future__ import annotations

from typing import Sequence

from .analysis import extremal_summary
from .core import (
    ExtremalSummary,
    InfeasiblePrefix,
    IntervalParams,
    PointMatrix,
    ScoreSequence,
    _as_ints,
    _validate_scores,
    ceil_div,
)


def naive_construct(raw: Sequence[int]) -> PointMatrix:
    """One-cycle realization: player i hands d_i to the next player.

    Accepts any order; sorting is not required.  Row sums equal the input
    and no entry exceeds the largest input score.
    """
    raw = _as_ints(raw, "score")
    _validate_scores(raw)
    return _cycle_matrix(raw)


def _cycle_matrix(scores: Sequence[int]) -> PointMatrix:
    """``naive_construct`` for scores the caller has already validated."""
    n = len(scores)
    grid = [[0] * n for _ in range(n)]
    grid[n - 1][0] = scores[n - 1]
    for i in range(n - 1):
        grid[i][i + 1] = scores[i]
    return PointMatrix.from_rows(grid)


def pigeonhole_construct(D: ScoreSequence) -> PointMatrix:
    """Evenly spread realization: row i splits d_i into near-equal parts.

    Each row hands ceil(d_i/(n-1)) to its first d_i mod (n-1) cyclic
    opponents and floor(d_i/(n-1)) to the rest, so no entry exceeds
    h = ceil(d_n/(n-1)) and no pair total exceeds 2h.
    """
    n = D.n
    grid = [[0] * n for _ in range(n)]
    for i, d in enumerate(D.scores):
        larger = d % (n - 1)
        high = ceil_div(d, n - 1)
        low = d // (n - 1)
        for j in range(1, n):
            opponent = (i + j) % n
            grid[i][opponent] = high if j <= larger else low
    return PointMatrix.from_rows(grid)


def _fill_slack(slack: list[int], p: list[int], a: int, start: int, stop: int) -> None:
    """Set slack[i] = P_i - a*B_i, the slack of players 1..i, for start <= i < stop.

    P_i is the prefix sum of p and B_i = i(i-1)/2 counts the pairs among
    players 1..i, so A[i] - A[i-1] = p[i] - a*(i-1) and A[0] = 0; slack[start-1]
    must already be current.  Filled over 1..k-1 when a step starts and when
    its quota is met; a hand-out round refills only its block.
    """
    for i in range(start, stop):
        slack[i] = slack[i - 1] + p[i] - a * (i - 1)


def _restore_order(
    p: list[int], grid: list[list[int]], k: int, low: int, high: int
) -> None:
    """Re-sort players low..high by provisional score, carrying settled matches.

    Matches among players 1..k-1 are still untouched placeholders, so two of
    them may swap identities freely as long as their already-settled columns
    (everything from k on, including the column being built) swap too.  The
    block's scores stay within p[low-1]..p[high+1], so a stable sort of the
    block alone equals a stable sort of all of 1..k-1.
    """
    if all(p[i] <= p[i + 1] for i in range(low, high)):
        return
    n = len(grid) - 1
    order = sorted(range(low, high + 1), key=p.__getitem__)
    moved = [(p[i], grid[i][k:], [grid[t][i] for t in range(k, n + 1)]) for i in order]
    for pos, (score, row, col) in enumerate(moved, start=low):
        p[pos] = score
        grid[pos][k:] = row
        for t, value in enumerate(col, start=k):
            grid[t][pos] = value


def score_slicing(
    k: int, p: list[int], grid: list[list[int]], params: IntervalParams
) -> None:
    """Settle all matches of player k against players 1..k-1, in place.

    p holds the provisional scores p[1..k] after the sentinel p[0] = 0, and
    grid is the 1-based working matrix (row 0 and column 0 unused).  Expects
    row k primed at b and column k at 0 for the open matches, and a
    nondecreasing prefix p[1..k] that is realizable within [a, b].  On
    return, player k's matches sum to p[k] with every pair total in [a, b],
    and p[1..k-1] is the reduced nondecreasing prefix (p_i minus the points
    handed to player i); when hand-outs had to skip a locked player, lower
    players are relabeled, rows and settled columns of grid included, to
    keep the prefix sorted.  Entries of p from k on are left as they were.

    Raises InfeasiblePrefix if the surplus cannot be shed, which indicates
    the caller skipped the realizability test.
    """
    a, b = params.a, params.b
    if k < 3:
        raise ValueError(f"slicing needs at least 3 unsettled players, got {k}")

    missing = (k - 1) * b - p[k]
    if missing < 0:
        raise InfeasiblePrefix(f"score p[{k}]={p[k]} exceeds ({k - 1})*b={b * (k - 1)}")
    # room_after[i] = min(slack[i..k-1]) caps a hand-out to player i.  Only
    # slack below top and room_after on settled..top are kept current: lower
    # room is filled in when a block reaches it, and the players above top
    # are locked, so nothing reads their entries.
    slack = [0] * k
    _fill_slack(slack, p, a, 1, k)
    room_after = slack[:]
    settled = top = k - 1
    spare = slack[k - 1]

    # Every pair total must end up at least a, so forfeits alone can shed at
    # most (k-1)*(b-a) points and this many must leave via hand-outs that
    # take a player's winnings against k from below a toward a.  Hand-outs
    # beyond a per player are allowed only once this quota is met, otherwise
    # they starve the forfeit phase.
    deficit = max(0, (k - 1) * a - p[k])

    # Phase 1: hand surplus to players that still hold slack, top block first,
    # keeping the receiving pair totals pinned at b.
    while missing > 0 and spare > 0:
        x = top
        while x >= 1 and (
            grid[x][k] == b or (deficit > 0 and grid[x][k] >= a)
        ):
            x -= 1
        if x == 0:
            break
        low = x
        while low - 1 >= 1 and p[low - 1] == p[x]:
            low -= 1
        while settled > low:
            settled -= 1
            room_after[settled] = min(slack[settled], room_after[settled + 1])
        freq = x - low + 1
        gap = p[x] - p[low - 1]
        per_member = min(
            b, gap, ceil_div(room_after[x], freq), ceil_div(missing, freq)
        )
        if per_member <= 0:
            break
        handed = 0
        short = deficit > 0
        for idx in range(low, x + 1):
            if missing == 0:
                break
            y = min(
                b - grid[idx][k],
                per_member,
                missing,
                room_after[idx] - handed,
                p[idx],
            )
            room = a - grid[idx][k]
            if deficit > 0:
                y = min(y, max(0, room))
            if y <= 0:
                continue
            if room > 0:
                deficit = max(0, deficit - min(y, room))
            grid[idx][k] += y
            grid[k][idx] -= y
            p[idx] -= y
            missing -= y
            handed += y
        if handed == 0:
            break
        # per_member <= gap keeps the block between its neighbours, and every
        # prefix sum from x on drops by exactly `handed`
        _restore_order(p, grid, k, low, x)
        spare -= handed
        if short and deficit == 0:  # quota met: players above x unlock
            _fill_slack(slack, p, a, 1, k)
            room_after = slack[:]
            settled = top = k - 1
            continue
        _fill_slack(slack, p, a, low, x)
        room_after[x] -= handed
        settled = top = x

    # Phase 2: plain forfeits, lowering pair totals toward a.
    while missing > 0:
        shed_any = False
        for i in range(k - 1, 0, -1):
            if missing == 0:
                break
            y = min(grid[k][i], missing, grid[k][i] + grid[i][k] - a)
            if y > 0:
                grid[k][i] -= y
                missing -= y
                shed_any = True
        if not shed_any:
            raise InfeasiblePrefix(
                f"player {k} still holds {missing} surplus points with every "
                f"pair total already at the floor {a}"
            )


def mini_max(D: ScoreSequence) -> tuple[ExtremalSummary, PointMatrix]:
    """Build a realization of D whose pair totals all lie in [g, f].

    Because f is the smallest achievable maximum pair total and g the
    largest achievable minimum, the result attains both extremes exactly:
    its matrix stats give F = f and G = g.
    """
    summary = extremal_summary(D)
    a, b = summary.g, summary.f
    n = D.n

    grid = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, i):
            grid[i][j] = b
    p = [0, *D.scores]

    params = IntervalParams(a, b)
    for k in range(n, 2, -1):
        score_slicing(k, p, grid, params)

    grid[1][2] = p[1]
    grid[2][1] = p[2]

    rows = [row[1:] for row in grid[1:]]
    sums = [sum(row) for row in rows]
    if any(x > y for x, y in zip(sums, sums[1:])):
        # mid-build relabeling permuted the players; sort them back so that
        # row i sums to the i-th score
        order = sorted(range(n), key=lambda i: sums[i])
        rows = [[rows[oi][oj] for oj in order] for oi in order]
    return summary, PointMatrix.from_rows(rows)
