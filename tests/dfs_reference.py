"""Reference walk for the exhaustive oracle.

``walk_extremes`` enumerates realizations one at a time, depth first, over
every point matrix with the given score sequence whose pair totals lie in
[a_floor, pair_cap].  It places the unordered pairs in lexicographic order,
totals in ascending order and, for each total, ascending splits, and keeps
the first complete matrix as witness.  Row sums prune it: row i must be
spent at its last pair (i, n-1).  It shares no code with the memoized
frontier behind ``enumerate_extremes``, so the tests hold the two equal.
It has no budget: call it on small instances only.
"""

from __future__ import annotations

from scoreseq import OracleResult, PointMatrix, ScoreSequence


def walk_extremes(D: ScoreSequence, pair_cap: int, a_floor: int = 0) -> OracleResult:
    n = D.n
    if pair_cap < 0:
        raise ValueError(f"pair_cap {pair_cap} must be nonnegative")
    if not 0 <= a_floor <= pair_cap:
        raise ValueError(f"need 0 <= a_floor <= pair_cap, got {a_floor}, {pair_cap}")

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rem = list(D.scores)
    grid = [[0] * n for _ in range(n)]
    count = 0
    min_F = max_G = min_E = None
    witness = None

    def dfs(depth: int, cur_max_total: int, cur_min_total: int, cur_max_entry: int):
        nonlocal count, min_F, max_G, min_E, witness
        if depth == len(pairs):
            # every row is spent: row i closes at its pair (i, n-1), and the
            # capacity cut leaves row n-1 no room at the last pair (n-2, n-1)
            count += 1
            if min_F is None or cur_max_total < min_F:
                min_F = cur_max_total
            if max_G is None or cur_min_total > max_G:
                max_G = cur_min_total
            if min_E is None or cur_max_entry < min_E:
                min_E = cur_max_entry
            if witness is None:
                witness = PointMatrix.from_rows(grid)
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
            max_total = max(cur_max_total, total)
            min_total = min(cur_min_total, total)
            for mij in range(lo, hi + 1):
                mji = total - mij
                grid[i][j] = mij
                grid[j][i] = mji
                rem[i] -= mij
                rem[j] -= mji
                dfs(depth + 1, max_total, min_total, max(cur_max_entry, mij, mji))
                rem[i] += mij
                rem[j] += mji

    dfs(0, -1, pair_cap + 1, 0)
    # complete matrices always have n >= 2, so at least one pair updated the
    # running extremes whenever count > 0
    return OracleResult(
        realizable=count > 0,
        count=count,
        min_F=min_F,
        max_G=max_G,
        min_E=min_E,
        witness=witness,
    )
