"""Witness constructors: naive, evenly spread, and minimax-balanced.

``naive_construct``, which ``reconstruct --method naive`` runs, realizes
any nonnegative vector along a single cycle, in the input's order.
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
for step k-1.  The hand-outs are a level fill.  One scan down the sorted
prefix lowers the open top block, round by round, toward the next score
below it.  A round costs a few integer operations on the block's common
level, its width and running prefix sums, and a player is written only
when it reaches its cap or when the fill stops.  The round that meets the
quota or spends the last of the budget, and any round once a re-sort has
broken the order of the starting scores, is settled member by member,
together with what each member is owed from the rounds before; only such a
round can re-sort its block.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

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
    n = len(raw)
    grid = [[0] * n for _ in range(n)]
    grid[n - 1][0] = raw[n - 1]
    for i in range(n - 1):
        grid[i][i + 1] = raw[i]
    return PointMatrix._from_int_rows(grid)


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
    return PointMatrix._from_int_rows(grid)


def _restore_order(
    p: list[int], grid: list[list[int]], k: int, low: int, high: int
) -> bool:
    """Re-sort players low..high by provisional score, carrying settled matches.

    Matches among players 1..k-1 are still untouched placeholders, so two of
    them may swap identities freely as long as their already-settled columns
    (everything from k on, including the column being built) swap too.  The
    block's scores stay within p[low-1]..p[high+1], so a stable sort of the
    block alone equals a stable sort of all of 1..k-1.  Returns whether any
    player moved.
    """
    block = p[low : high + 1]
    if block == sorted(block):
        return False
    n = len(grid) - 1
    order = sorted(range(low, high + 1), key=p.__getitem__)
    moved = [(p[i], grid[i][k:], [grid[t][i] for t in range(k, n + 1)]) for i in order]
    for pos, (score, row, col) in enumerate(moved, start=low):
        p[pos] = score
        grid[pos][k:] = row
        for t, value in enumerate(col, start=k):
            grid[t][pos] = value
    return True


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

    The result is the one of handing out in rounds, one per tie block, with
    every member visited, the block re-sorted and its slack refilled each
    round.  Here a round whose hand-out fits the budget is applied as a drop
    of the block's level: members that reach their cap are settled and
    leave the block, and the rest stay owed the drop until the fill stops.
    The round that meets the quota or spends the budget is then settled
    member by member, together with what each member is owed.

    Raises InfeasiblePrefix if the surplus cannot be shed, which indicates
    the caller skipped the realizability test.
    """
    a, b = params.a, params.b
    if k < 3:
        raise ValueError(f"slicing needs at least 3 unsettled players, got {k}")

    missing = (k - 1) * b - p[k]
    if missing < 0:
        raise InfeasiblePrefix(f"score p[{k}]={p[k]} exceeds ({k - 1})*b={b * (k - 1)}")
    # slack_j = P_j - a*B_j, where P_j sums p[1..j] and B_j = j(j-1)/2 counts
    # the pairs among players 1..j: what hand-outs to players 1..j may take
    # before those pairs can no longer each get a points.
    pairs = a * (k - 1) * (k - 2) // 2
    spare = sum(p[1:k]) - pairs

    # Every pair total must end up at least a, so forfeits alone can shed at
    # most (k-1)*(b-a) points and this many must leave via hand-outs that
    # take a player's winnings against k from below a toward a.  Hand-outs
    # beyond a per player are allowed only once this quota is met, otherwise
    # they starve the forfeit phase.
    deficit = max(0, (k - 1) * a - p[k])

    # Phase 1: hand surplus to players that still hold slack, top block first,
    # keeping the receiving pair totals pinned at b.  The room at i,
    # min(slack_i, ..., slack_{k-1}), caps what players 1..i may still take.
    # Players above top are locked, room is the room at top, and below is
    # P_{top-1}.
    top, room = k - 1, spare
    below = spare + pairs - p[k - 1]
    row_k = grid[k]
    # Until a re-sort, v = p + grid[.][k], each player's score when the step
    # began, is nondecreasing, so the cap left shrinks up every tie block.
    ordered = True
    while missing > 0 and spare > 0:
        cap = a if deficit > 0 else b
        x = top
        while grid[x][k] >= cap:
            x -= 1
            slack = below - a * x * (x - 1) // 2
            if slack < room:
                room = slack
            below -= p[x]
        # The fill: members low..x stand at `level` while p and grid still
        # hold what they had when they joined; p[i] - level is owed to each.
        # A round whose hand-out fits the budget is taken whole: members get
        # per_member, or their cap if that is less, and those that reach it
        # settle at v - cap above the rest, so the block stays sorted.
        level = p[x]
        low = j = x
        while j >= low:
            x = j
            while p[low - 1] == level and low > 1:
                low -= 1
                below -= level
            width = x - low + 1
            gap = level - p[low - 1]
            avail = missing if missing < room else room
            per_member = -(-avail // width)
            if gap < per_member:
                per_member = gap
            if per_member <= 0 or not ordered:
                break
            floor = level - per_member
            handed = width * per_member
            # members above j reach their cap: v - cap >= floor
            full = floor + cap
            while j >= low and (v := p[j] + grid[j][k]) >= full:
                handed -= v - full
                j -= 1
            # slack over a tie block is concave, so the room at any member
            # is at least min(slack_low, room)
            if (
                handed > avail
                or handed > below + level - a * low * (low - 1) // 2
                or 0 < deficit <= handed
            ):
                break
            missing -= handed
            spare -= handed
            room -= handed
            if deficit:
                deficit -= handed
            level = floor
            if j < x:
                # settle the capped members; their slack joins the room
                slack = below + (j - low + 1) * level - a * j * (j - 1) // 2
                if slack < room:
                    room = slack
                for i in range(j + 1, x + 1):
                    row = grid[i]
                    owed = cap - row[k]
                    p[i] -= owed
                    row[k] = cap
                    row_k[i] -= owed
                    slack += p[i] - a * (i - 1)
                    if slack < room:
                        room = slack
        else:
            top = low
            continue
        # The round that meets the quota, spends the budget, has nothing to
        # hand or follows a re-sort goes member by member.  Each member takes
        # what it is owed and its share, capped by the room at it, which is
        # min(slack_i, room) by the same concavity.
        short = deficit > 0
        handed = 0
        slack = below - a * (low - 1) * (low - 2) // 2
        for i in range(low, x + 1):
            slack += level - a * (i - 1)
            row = grid[i]
            owed = p[i] - level
            y = (a if deficit > 0 else b) - row[k] - owed
            if per_member < y:
                y = per_member
            limit = (avail if avail < slack else slack) - handed
            if limit < y:
                y = limit
            if y > 0:
                if deficit > 0:
                    deficit = deficit - y if deficit > y else 0
                handed += y
                owed += y
            p[i] -= owed
            row[k] += owed
            row_k[i] -= owed
        missing -= handed
        if handed == 0:
            break
        if _restore_order(p, grid, k, low, x):
            ordered = False
        spare -= handed
        if short and deficit == 0:  # quota met: players above x unlock
            top, room = k - 1, spare
            below = spare + pairs - p[k - 1]
        else:
            top, room = x, room - handed
            below += sum(p[low:x])

    # Phase 2: plain forfeits, lowering pair totals from b toward a.  One
    # pass suffices: each pair it leaves open is at 0 or at the floor.
    drop = b - a
    for i in range(k - 1, 0, -1):
        if missing == 0:
            break
        y = row_k[i]
        if drop < y:
            y = drop
        if missing < y:
            y = missing
        row_k[i] -= y
        missing -= y
    if missing:
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

    grid = [[0] * (n + 1)]
    grid += ([0] + [b] * (i - 1) + [0] * (n + 1 - i) for i in range(1, n + 1))
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
        order = sorted(range(n), key=sums.__getitem__)
        # one C-level gather per row; n >= 3 here, so itemgetter gives tuples
        gather = operator.itemgetter(*order)
        rows = [gather(rows[oi]) for oi in order]
    return summary, PointMatrix._from_int_rows(rows)
