import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scoreseq import (
    IntervalParams,
    PointMatrix,
    ScoreSequence,
    extremal_summary,
    matrix_stats,
    mini_max,
    naive_construct,
    pigeonhole_construct,
    verify_realization,
)
from scoreseq import construct
from scoreseq.cli import generate_scores
from scoreseq.construct import _restore_order, score_slicing
from scoreseq.core import InfeasiblePrefix, ceil_div

from golden import SCORES_SIX, TABLE_BALANCED

sequences = st.lists(st.integers(0, 40), min_size=2, max_size=12).map(
    lambda xs: ScoreSequence(tuple(sorted(xs)))
)


class TestNaiveConstruct:
    def test_three_players(self):
        M = naive_construct([1, 2, 3])
        assert M.entries == ((0, 1, 0), (0, 0, 2), (3, 0, 0))

    def test_two_zeros(self):
        assert naive_construct([0, 0]).entries == ((0, 0), (0, 0))

    def test_two_fives(self):
        assert naive_construct([5, 5]).entries == ((0, 5), (5, 0))

    def test_unsorted_input_keeps_row_order(self):
        raw = [4, 0, 2]
        M = naive_construct(raw)
        assert M.row_sums() == (4, 0, 2)

    @given(st.lists(st.integers(0, 30), min_size=2, max_size=10))
    def test_row_sums_and_entry_bound(self, raw):
        M = naive_construct(raw)
        assert M.row_sums() == tuple(raw)
        assert max(max(row) for row in M.entries) <= max(raw)


class TestPigeonholeConstruct:
    def test_three_threes(self):
        M = pigeonhole_construct(ScoreSequence((3, 3, 3)))
        for i, row in enumerate(M.entries):
            assert sorted(v for j, v in enumerate(row) if j != i) == [1, 2]
        assert max(max(row) for row in M.entries) == 2

    def test_two_two_four(self):
        M = pigeonhole_construct(ScoreSequence((2, 2, 4)))
        assert M.entries == ((0, 1, 1), (1, 0, 1), (2, 2, 0))
        report = verify_realization(
            M, ScoreSequence((2, 2, 4)), IntervalParams(0, 4)
        )
        assert report.valid

    def test_two_zeros(self):
        assert pigeonhole_construct(ScoreSequence((0, 0))).entries == ((0, 0), (0, 0))

    @given(sequences)
    def test_row_sums_entry_cap_and_pair_cap(self, D):
        M = pigeonhole_construct(D)
        h = ceil_div(D.scores[-1], D.n - 1)
        assert M.row_sums() == D.scores
        assert max(max(row) for row in M.entries) <= h
        stats = matrix_stats(M)
        assert stats.max_pair_total <= 2 * h


def _primed_state(scores, b):
    """(k, p, grid) as mini_max hands them to its first slicing step."""
    n = len(scores)
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, i):
            grid[i][j] = b
    return n, [0, *scores], grid


def _fill_slack(slack: list[int], p: list[int], a: int, start: int, stop: int) -> None:
    """Set slack[i] = P_i - a*B_i, the slack of players 1..i, for start <= i < stop.

    P_i is the prefix sum of p and B_i = i(i-1)/2 counts the pairs among
    players 1..i, so A[i] - A[i-1] = p[i] - a*(i-1) and A[0] = 0; slack[start-1]
    must already be current.  Filled over 1..k-1 when a step starts and when
    its quota is met; a hand-out round refills only its block.
    """
    for i in range(start, stop):
        slack[i] = slack[i - 1] + p[i] - a * (i - 1)


def _reference_slicing(
    k: int, p: list[int], grid: list[list[int]], params: IntervalParams
) -> None:
    """The hand-out round loop that preceded the level fill, kept verbatim.

    One round per tie block: every member of the block is visited with a
    five-way min, the block is re-sorted and its slack refilled.  Tests hold
    ``score_slicing`` equal to it on ``p`` and ``grid``.
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


class TestScoreSlicing:
    def test_six_player_first_slice(self):
        k, p, grid = _primed_state(SCORES_SIX, b=9)
        assert score_slicing(k, p, grid, IntervalParams(8, 9)) is None
        assert p[:k] == [0, 9, 9, 19, 20, 23]
        assert grid[5][6] == 9
        assert grid[6][5] == 0
        assert grid[6][4] == 8
        assert grid[6][3] == 8
        assert grid[6][2] == 9
        assert grid[6][1] == 9

    def test_six_player_second_slice(self):
        k, p, grid = _primed_state(SCORES_SIX, b=9)
        params = IntervalParams(8, 9)
        score_slicing(k, p, grid, params)
        score_slicing(k - 1, p, grid, params)
        assert p[: k - 1] == [0, 9, 9, 15, 15]

    def test_zero_case(self):
        k, p, grid = _primed_state((0, 0, 0), b=0)
        score_slicing(k, p, grid, IntervalParams(0, 0))
        assert p[:k] == [0, 0, 0]
        assert all(v == 0 for row in grid for v in row)

    def test_infeasible_score_raises(self):
        # player 3 holds more points than two matches can carry
        k, p, grid = _primed_state((0, 0, 7), b=3)
        with pytest.raises(InfeasiblePrefix):
            score_slicing(k, p, grid, IntervalParams(0, 3))

    def test_surplus_left_after_forfeits_raises(self):
        # players 1 and 2 cannot give their own pair 3 points, so nothing is
        # handed out and the one forfeit pass leaves a point of surplus
        k, p, grid = _primed_state((0, 0, 5), b=3)
        with pytest.raises(InfeasiblePrefix, match="player 3 still holds 1 surplus points"):
            score_slicing(k, p, grid, IntervalParams(3, 3))

    def test_needs_three_open_players(self):
        k, p, grid = _primed_state((1, 1), b=2)
        with pytest.raises(ValueError):
            score_slicing(k, p, grid, IntervalParams(0, 2))


class TestSlicingMatchesRounds:
    @pytest.mark.parametrize("floor", ["zero", "positive"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_step_equals_round_loop(self, floor, data):
        # a feasible window [a, b] holds [g, f]; earlier steps run by the
        # reference leave settled columns and relabels behind
        n = data.draw(st.integers(3, 16), label="n")
        lo = data.draw(st.integers(0, 40), label="lo")
        span = data.draw(st.integers(0, 60), label="span")
        scores = data.draw(
            st.lists(st.integers(lo, lo + span), min_size=n, max_size=n), label="scores"
        )
        summary = extremal_summary(ScoreSequence(tuple(sorted(scores))))
        if floor == "zero":
            a = 0
        else:
            assume(summary.g > 0)
            a = data.draw(st.integers(1, summary.g), label="a")
        b = summary.f + data.draw(st.integers(0, 2), label="b - f")
        params = IntervalParams(a, b)
        _, p, grid = _primed_state(sorted(scores), b)
        k = data.draw(st.integers(3, n), label="k")
        for step in range(n, k, -1):
            _reference_slicing(step, p, grid, params)
        p_ref, grid_ref = p[:], [row[:] for row in grid]
        _reference_slicing(k, p_ref, grid_ref, params)
        score_slicing(k, p, grid, params)
        assert p == p_ref
        assert grid == grid_ref

    @pytest.mark.parametrize(
        "scores",
        [
            # settling capped members cuts the room to the slack at the
            # highest member left in the block; without that cut the build
            # later keeps a surplus point that no forfeit can shed
            (1, 1, 2, 10, 18, 23, 49),
            # ... and to the slack at each capped member as it settles
            (2, 4, 5, 6, 25, 33, 41, 47, 73),
        ],
    )
    def test_capped_members_cut_the_room(self, scores):
        D = ScoreSequence(scores)
        summary = extremal_summary(D)
        params = IntervalParams(summary.g, summary.f)
        n, p, grid = _primed_state(scores, summary.f)
        p_ref, grid_ref = p[:], [row[:] for row in grid]
        for k in range(n, 2, -1):
            _reference_slicing(k, p_ref, grid_ref, params)
            score_slicing(k, p, grid, params)
            assert p == p_ref, k
            assert grid == grid_ref, k
        _, M = mini_max(D)
        assert verify_realization(M, D, params).valid
        stats = matrix_stats(M)
        assert (stats.min_pair_total, stats.max_pair_total) == (summary.g, summary.f)


def _minmax_score_slicing(
    k: int, p: list[int], grid: list[list[int]], params: IntervalParams
) -> None:
    """``score_slicing`` as it stood with builtin min/max calls, kept verbatim.

    The step now makes those choices with plain comparisons; tests hold it
    equal to this copy on ``p`` and ``grid`` after every step of a build.
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
        while x >= 1 and grid[x][k] >= cap:
            x -= 1
            room = min(room, below - a * x * (x - 1) // 2)
            below -= p[x]
        if x == 0:
            break
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
            avail = min(missing, room)
            per_member = min(b, gap, -(-avail // width))
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
                room = min(room, slack)
                for i in range(j + 1, x + 1):
                    row = grid[i]
                    owed = cap - row[k]
                    p[i] -= owed
                    row[k] = cap
                    row_k[i] -= owed
                    slack += p[i] - a * (i - 1)
                    room = min(room, slack)
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
            got = row[k] + owed
            y = min(
                (a if deficit > 0 else b) - got,
                per_member,
                min(avail, slack) - handed,
            )
            if y > 0:
                if deficit > 0:
                    deficit = max(0, deficit - y)
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
    for i in range(k - 1, 0, -1):
        if missing == 0:
            break
        y = min(row_k[i], b - a, missing)
        row_k[i] -= y
        missing -= y
    if missing:
        raise InfeasiblePrefix(
            f"player {k} still holds {missing} surplus points with every "
            f"pair total already at the floor {a}"
        )


class TestAgainstMinMaxStep:
    """score_slicing against its min/max form, step by step through mini_max."""

    @staticmethod
    def _build_both(scores, need_floor=False):
        D = ScoreSequence(tuple(sorted(scores)))
        summary = extremal_summary(D)
        if need_floor:
            assume(summary.g > 0)
        params = IntervalParams(summary.g, summary.f)
        n, p, grid = _primed_state(D.scores, summary.f)
        p_ref, grid_ref = p[:], [row[:] for row in grid]
        for k in range(n, 2, -1):
            _minmax_score_slicing(k, p_ref, grid_ref, params)
            score_slicing(k, p, grid, params)
            assert p == p_ref, k
            assert grid == grid_ref, k

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 120), st.randoms(use_true_random=False))
    def test_uniform_scores(self, n, rng):
        self._build_both([rng.randint(0, 3 * n) for _ in range(n)])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 120), st.randoms(use_true_random=False))
    def test_top_heavy_scores_with_a_floor(self, n, rng):
        # t players near (n-1)*h push f far above the rest; with g > 0 the
        # steps below them run the hand-out quota and then forfeit
        h = rng.randint(1, 3 * n)
        t = rng.randint(1, max(1, n // 2))
        top = [rng.randint((n - 2) * h, (n - 1) * h) for _ in range(t)]
        rest = [rng.randint(h // 2, h) for _ in range(n - t)]
        self._build_both(top + rest, need_floor=True)



def _full_relabel(p, grid, k):
    """Reference relabel: a stable sort of all of players 1..k-1 by score."""
    n = len(grid) - 1
    order = sorted(range(1, k), key=lambda i: p[i])
    old_p = p[:]
    old = [row[:] for row in grid]
    for pos, src in enumerate(order, start=1):
        p[pos] = old_p[src]
        grid[pos][k:] = old[src][k:]
        for t in range(k, n + 1):
            grid[t][pos] = old[t][src]


class TestRestoreOrder:
    @given(st.data())
    @settings(max_examples=300)
    def test_block_sort_equals_full_sort(self, data):
        # a sorted prefix with a tie block low..x whose members each lose at
        # most p[x] - p[low-1], as a hand-out round leaves it
        below = sorted(data.draw(st.lists(st.integers(0, 20), max_size=6)))
        floor = below[-1] if below else 0
        v = data.draw(st.integers(floor, 25))
        size = data.draw(st.integers(1, 5))
        above = sorted(data.draw(st.lists(st.integers(v, 30), max_size=5)))
        cuts = data.draw(
            st.lists(st.integers(0, v - floor), min_size=size, max_size=size)
        )
        low = len(below) + 1
        x = low + size - 1
        p = [0, *below, *(v - c for c in cuts), *above]
        k = len(p)
        p.append(data.draw(st.integers(0, 40)))
        n = k + data.draw(st.integers(0, 3))
        # distinct entries, so any misplaced row or column shows
        grid = [[100 * i + j for j in range(n + 1)] for i in range(n + 1)]

        p_block, grid_block = p[:], [row[:] for row in grid]
        _restore_order(p_block, grid_block, k, low, x)
        _full_relabel(p, grid, k)
        assert p_block == p
        assert grid_block == grid


class TestMiniMax:
    def test_six_player_window_and_extremes(self):
        summary, M = mini_max(ScoreSequence(SCORES_SIX))
        assert (summary.e, summary.f, summary.g) == (7, 9, 8)
        assert M.row_sums() == SCORES_SIX
        stats = matrix_stats(M)
        assert stats.max_pair_total == 9
        assert stats.min_pair_total == 8

    def test_six_player_pinned_output(self):
        # deterministic tie-breaking makes the whole table reproducible
        _, M = mini_max(ScoreSequence(SCORES_SIX))
        assert M.entries == TABLE_BALANCED

    def test_closing_relabel_pinned_output(self, monkeypatch):
        # (0,3,7,8,9,12) is the first sequence, over n <= 6 and scores <= 2n
        # in lexicographic order, whose build leaves the players out of
        # order, so mini_max's closing sort must put them back
        moves, grids = [], []

        def restore_order(*args):
            moves.append(_restore_order(*args))
            return moves[-1]

        def slicing(k, p, grid, params):
            grids.append(grid)
            score_slicing(k, p, grid, params)

        monkeypatch.setattr(construct, "_restore_order", restore_order)
        monkeypatch.setattr(construct, "score_slicing", slicing)
        scores = (0, 3, 7, 8, 9, 12)
        _, M = mini_max(ScoreSequence(scores))
        assert M.entries == (
            (0, 0, 0, 0, 0, 0),
            (2, 0, 0, 1, 0, 0),
            (2, 2, 0, 1, 2, 0),
            (2, 1, 1, 0, 3, 1),
            (3, 3, 1, 0, 0, 2),
            (3, 3, 3, 2, 1, 0),
        )
        assert True in moves
        # the build as it stood before the closing sort: rows out of order,
        # and the witness is that build with the players stably re-sorted
        build = [row[1:] for row in grids[-1][1:]]
        sums = [sum(row) for row in build]
        assert sums != sorted(sums)
        order = sorted(range(len(scores)), key=sums.__getitem__)
        assert M.entries == tuple(
            tuple(build[i][j] for j in order) for i in order
        )

    def test_two_players(self):
        summary, M = mini_max(ScoreSequence((2, 2)))
        assert M.entries == ((0, 2), (2, 0))
        assert summary.f == summary.g == 4

    def test_three_ones_single_point_cycle(self):
        summary, M = mini_max(ScoreSequence((1, 1, 1)))
        assert summary.f == summary.g == 1
        stats = matrix_stats(M)
        assert stats.max_pair_total == stats.min_pair_total == 1
        assert M.row_sums() == (1, 1, 1)

    def test_zeros_forties(self):
        summary, M = mini_max(ScoreSequence((0, 0, 0, 40, 40, 40)))
        assert (summary.e, summary.f, summary.g) == (8, 10, 0)
        assert M.row_sums() == (0, 0, 0, 40, 40, 40)
        stats = matrix_stats(M)
        assert stats.max_pair_total == 10
        assert stats.min_pair_total == 0

    def test_five_hundred_seeded_randoms(self):
        rng = random.Random(193)
        for _ in range(500):
            n = rng.randint(2, 12)
            top = rng.randint(0, 30)
            D = ScoreSequence(tuple(sorted(rng.randint(0, top) for _ in range(n))))
            summary, M = mini_max(D)
            report = verify_realization(
                M, D, IntervalParams(summary.g, summary.f)
            )
            assert report.valid, (D.scores, report.failures)
            stats = matrix_stats(M)
            assert stats.max_pair_total == summary.f, D.scores
            assert stats.min_pair_total == summary.g, D.scores

    def test_exhaustive_small_sequences(self):
        # every nondecreasing sequence with n <= 6 and d <= 8, plus n = 7
        # with d <= 6: 6,711 inputs
        grids = [(n, 8) for n in range(2, 7)] + [(7, 6)]
        checked = 0
        digest = hashlib.sha256()
        for n, d_max in grids:
            for seq in itertools.combinations_with_replacement(range(d_max + 1), n):
                D = ScoreSequence(seq)
                summary, M = mini_max(D)
                digest.update(repr(M.entries).encode())
                report = verify_realization(
                    M, D, IntervalParams(summary.g, summary.f)
                )
                assert report.valid, (seq, report.failures)
                assert M.row_sums() == seq
                stats = matrix_stats(M)
                assert stats.max_pair_total == summary.f, seq
                assert stats.min_pair_total == summary.g, seq
                checked += 1
        assert checked == 6711
        assert digest.hexdigest() == self.GOLDEN_EXHAUSTIVE

    # SHA-256 of repr(M.entries), pinned from the rescanning slicing step
    # that preceded the incremental bookkeeping; the matrices must not change
    GOLDEN_CRITERION_6 = (
        "245d981ed544053688a0d3060d5901f94ccacf7b4288ed24d1c240f69d726a10"
    )
    # the exhaustive grid above re-sorts a tie block 171 times, the other
    # pinned inputs 9 times between them
    GOLDEN_EXHAUSTIVE = (
        "aed5be631dd6e523cdb286dfd2f3cc7a28ecbdbdc075acb30c412dbab6eea15d"
    )
    GOLDEN_BENCH = {
        100: "9c104e25e9a5d3e8f6ed434c5bca38f9a8bdefcf4755afc4cb18e4c78672bf0a",
        200: "f8790df4455b3477663ef6b96c33f2984b73b91118372b85fe6064d830008919",
        400: "7c64dee95888d8395b672835dc9ba638c833b6d557c5f448af5e222b775ff26a",
    }

    def test_golden_digest_criterion_6_sequences(self):
        rng = random.Random(20260809)
        digest = hashlib.sha256()
        for _ in range(500):
            n = rng.randint(2, 12)
            top = rng.randint(0, 30)
            D = ScoreSequence(tuple(sorted(rng.randint(0, top) for _ in range(n))))
            _, M = mini_max(D)
            digest.update(repr(M.entries).encode())
        assert digest.hexdigest() == self.GOLDEN_CRITERION_6

    @pytest.mark.parametrize("n", sorted(GOLDEN_BENCH))
    def test_golden_digest_bench_sizes(self, n):
        _, M = mini_max(generate_scores(n, 2 * n, 42))
        digest = hashlib.sha256(repr(M.entries).encode()).hexdigest()
        assert digest == self.GOLDEN_BENCH[n]

    @given(sequences)
    @settings(max_examples=150, deadline=None)
    def test_always_attains_both_extremes(self, D):
        summary, M = mini_max(D)
        assert verify_realization(
            M, D, IntervalParams(summary.g, summary.f)
        ).valid
        stats = matrix_stats(M)
        assert stats.max_pair_total == summary.f
        assert stats.min_pair_total == summary.g

    @given(sequences)
    @settings(max_examples=60, deadline=None)
    def test_matrix_is_what_from_rows_builds(self, D):
        # mini_max hands its rows over without the type scan; the value must
        # equal the fully checked one
        _, M = mini_max(D)
        ref = PointMatrix.from_rows([list(row) for row in M.entries])
        assert M == ref and hash(M) == hash(ref) and repr(M) == repr(ref)
        assert type(M.entries) is tuple
        for row in M.entries:
            assert type(row) is tuple
            assert all(type(v) is int for v in row)

    @given(sequences)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_summary_of_own_stats(self, D):
        summary, M = mini_max(D)
        assert extremal_summary(D) == summary
