"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them).

Covers the six-player worked example, the zeros-and-forties example, the
three golden tables, exhaustive cross-checks of the formulas against
enumeration, the classical special cases, constructor properties on seeded
random inputs, timing contracts, and agreement of the redundant formula
routes.
"""

import itertools
import random
import time

from scoreseq import (
    IntervalParams,
    ScoreSequence,
    enumerate_extremes,
    extremal_summary,
    interval_test,
    matrix_stats,
    mini_max,
    moon_test,
    naive_construct,
    pigeonhole_construct,
    sweep,
    verify_realization,
)
from scoreseq.cli import _best_time, generate_scores
from scoreseq.core import ceil_div

from f_reference import max_g_by_search, min_f_by_loss_table, min_f_by_search
from golden import SCORES_SIX, TABLE_BALANCED, TABLE_UNBALANCED, TABLE_WIDE
from scoreseq import PointMatrix


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_worked_example():
    D = ScoreSequence(SCORES_SIX)
    summary, M = mini_max(D)
    ok = (summary.e, summary.f, summary.g) == (7, 9, 8)
    ok &= M.row_sums() == SCORES_SIX
    ok &= all(M.entries[i][i] == 0 for i in range(6))
    totals = [
        M.entries[i][j] + M.entries[j][i]
        for i in range(6)
        for j in range(i + 1, 6)
    ]
    ok &= all(8 <= t <= 9 for t in totals)
    ok &= min(totals) == 8 and max(totals) == 9
    elapsed = _best_time(lambda: mini_max(D), repeats=5)
    ok &= elapsed < 0.010
    _report(
        "criterion 1: six-player example gives e=7 f=9 g=8 with a [8,9] "
        "matrix in under 10 ms",
        ok,
        f"e,f,g={summary.e},{summary.f},{summary.g} best={elapsed * 1000:.2f} ms",
    )


def test_criterion_2_zeros_and_forties():
    D = ScoreSequence((0, 0, 0, 40, 40, 40))
    summary = extremal_summary(D)
    ok = summary.f == 10
    ok &= summary.g == 0
    ok &= summary.e == 8
    ok &= (summary.f_search_lo, summary.f_search_hi) == (8, 16)
    _report(
        "criterion 2: zeros-and-forties gives f=10 g=0 e=8 with window [8,16]",
        ok,
        f"summary={summary}",
    )


def test_criterion_3_golden_tables():
    D = ScoreSequence(SCORES_SIX)

    wide = verify_realization(
        PointMatrix.from_rows(TABLE_WIDE), D, IntervalParams(2, 10)
    )
    ok = wide.valid

    stats_u = matrix_stats(PointMatrix.from_rows(TABLE_UNBALANCED))
    ok &= stats_u.max_entry == 10
    ok &= stats_u.max_pair_total == 10
    ok &= stats_u.min_pair_total == 2
    ok &= tuple(sorted(stats_u.row_sums)) == SCORES_SIX

    stats_b = matrix_stats(PointMatrix.from_rows(TABLE_BALANCED))
    ok &= stats_b.max_pair_total == 9
    ok &= stats_b.min_pair_total == 8
    ok &= verify_realization(
        PointMatrix.from_rows(TABLE_BALANCED), D, IntervalParams(8, 9)
    ).valid

    _report(
        "criterion 3: golden tables verify with stats (E,F,G) = "
        "(10,10,2) and (F,G) = (9,8)",
        ok,
    )


def test_criterion_4_oracle_sweeps():
    t0 = time.perf_counter()
    reports = [
        sweep(4, 4), sweep(5, 3), sweep(6, 2), sweep(5, 4), sweep(5, 5), sweep(6, 4)
    ]
    elapsed = time.perf_counter() - t0
    ok = all(rep.clean for rep in reports) and elapsed < 300
    detail = (
        f"{'+'.join(str(rep.sequences) for rep in reports)} sequences, "
        f"{sum(len(rep.mismatches) for rep in reports)} mismatches, "
        f"{elapsed:.1f}s"
    )
    _report(
        "criterion 4: exhaustive sweeps (n<=4, d<=4), (n<=5, d<=3), "
        "(n<=6, d<=2), (n<=5, d<=4), (n<=5, d<=5) and (n<=6, d<=4) agree "
        "with the formulas",
        ok,
        detail,
    )


def test_criterion_5_classical_reductions():
    mismatches = 0
    checked = 0
    for n in range(2, 8):
        for seq in itertools.combinations_with_replacement(range(7), n):
            D = ScoreSequence(seq)
            checked += 1
            # Landau's one-point check is Moon's at c = 1
            if moon_test(D, 1) != interval_test(D, IntervalParams(1, 1)):
                mismatches += 1
    for n in range(2, 6):
        for seq in itertools.combinations_with_replacement(range(9), n):
            D = ScoreSequence(seq)
            for c in (1, 2, 3):
                checked += 1
                if moon_test(D, c) != interval_test(D, IntervalParams(c, c)):
                    mismatches += 1
    _report(
        "criterion 5: classical one-point and c-point checks match the "
        "interval test",
        mismatches == 0,
        f"{checked} comparisons, {mismatches} mismatches",
    )


def test_criterion_6_constructor_properties():
    rng = random.Random(20260809)
    violations = 0
    for _ in range(500):
        n = rng.randint(2, 12)
        top = rng.randint(0, 30)
        D = ScoreSequence(tuple(sorted(rng.randint(0, top) for _ in range(n))))
        h = ceil_div(D.scores[-1], D.n - 1)

        if naive_construct(D.scores).row_sums() != D.scores:
            violations += 1
        pig = pigeonhole_construct(D)
        if pig.row_sums() != D.scores:
            violations += 1
        if max(max(row) for row in pig.entries) > h:
            violations += 1
        summary, M = mini_max(D)
        stats = matrix_stats(M)
        if M.row_sums() != D.scores:
            violations += 1
        if stats.max_pair_total != summary.f or stats.min_pair_total != summary.g:
            violations += 1
    _report(
        "criterion 6: 500 seeded random sequences satisfy all constructor "
        "properties",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_7_complexity_trends():
    seed = 42

    small = generate_scores(100_000, 200_000, seed)
    large = generate_scores(1_000_000, 2_000_000, seed)
    window_small = IntervalParams(0, 2 * ceil_div(small.scores[-1], small.n - 1))
    window_large = IntervalParams(0, 2 * ceil_div(large.scores[-1], large.n - 1))
    t_small = _best_time(lambda: interval_test(small, window_small), repeats=3)
    t_large = _best_time(lambda: interval_test(large, window_large), repeats=3)
    ratio_linear = t_large / t_small
    ok = ratio_linear <= 30.0

    mm_half = generate_scores(100, 200, seed)
    mm_full = generate_scores(200, 400, seed)
    mini_max(mm_half)  # warm up before timing
    t_half = _best_time(lambda: mini_max(mm_half), repeats=5)
    t_full = _best_time(lambda: mini_max(mm_full), repeats=5)
    ok &= t_full < 30.0
    ratio_cubic = t_full / t_half
    ok &= ratio_cubic <= 8.0

    _report(
        "criterion 7: the realizability test scales linearly and the "
        "balanced reconstruction fits its cubic budget",
        ok,
        f"test 1e5->1e6 ratio {ratio_linear:.1f} (<=30), reconstruction "
        f"n=200 {t_full:.2f}s (<30s), doubling ratio {ratio_cubic:.1f} (<=8)",
    )


def test_criterion_8_formula_cross_checks():
    mismatches = 0
    checked = 0

    def check(D):
        nonlocal mismatches, checked
        checked += 1
        s = extremal_summary(D)
        f = s.f
        if min_f_by_loss_table(D) != f:
            mismatches += 1
        if min_f_by_search(D) != f:
            mismatches += 1
        if max_g_by_search(D, f) != s.g:
            mismatches += 1

    for n in range(2, 5):
        for seq in itertools.combinations_with_replacement(range(5), n):
            check(ScoreSequence(seq))
    for seq in itertools.combinations_with_replacement(range(4), 5):
        check(ScoreSequence(seq))

    rng = random.Random(8128)
    for _ in range(10_000):
        n = rng.randint(2, 50)
        top = rng.randint(0, 200)
        check(ScoreSequence(tuple(sorted(rng.randint(0, top) for _ in range(n)))))

    ok = mismatches == 0

    # the tempting "largest prefix average" formula overshoots the true
    # floor: on the zeros-and-forties sequence it claims 8 where the zero
    # scores force a zero pair total
    D = ScoreSequence((0, 0, 0, 40, 40, 40))
    n = D.n
    prefix_average_guess = max(
        -(-2 * S // (n * n - n)) for S in itertools.accumulate(D.scores)
    )
    s = extremal_summary(D)
    f, g = s.f, s.g
    ok &= prefix_average_guess == 8
    ok &= g == 0
    ok &= interval_test(D, IntervalParams(0, f))
    ok &= not interval_test(D, IntervalParams(1, f))
    ok &= not interval_test(D, IntervalParams(1, 10 * f))

    _report(
        "criterion 8: redundant formula routes agree everywhere and the "
        "prefix-average shortcut is provably wrong",
        ok,
        f"{checked} instances, {mismatches} mismatches, "
        f"guess={prefix_average_guess} vs g={g}",
    )
