"""Let brute force referee the fast formulas.

On small instances every realization can be enumerated outright, which
gives exact optima to compare against the closed forms, and the classical
one-point and c-point round-robin checks fall out as the diagonal windows
of the general test.
"""

import time

from scoreseq import (
    IntervalParams,
    ScoreSequence,
    enumerate_extremes,
    extremal_summary,
    interval_test,
    moon_test,
    sweep,
)

D = ScoreSequence((1, 2, 2, 3))
summary = extremal_summary(D)
oracle = enumerate_extremes(D, pair_cap=2 * D.scores[-1])
print(f"scores {list(D.scores)}: {oracle.count} realizations enumerated")
print(f"  exhaustive min F = {oracle.min_F}   formula f = {summary.f}")
print(f"  exhaustive max G = {oracle.max_G}   formula g = {summary.g}")
print(f"  exhaustive min E = {oracle.min_E}   formula e = {summary.e}")
print(f"  one witness: {[list(r) for r in oracle.witness.entries]}")
print()

print("classical special cases as diagonal windows:")
for scores, c in [((1, 1, 1), 1), ((0, 1, 2), 1), ((2, 2, 2), 2), ((0, 1, 5), 2)]:
    S = ScoreSequence(scores)
    classic = moon_test(S, c)  # Landau's theorem at c = 1, Moon's beyond
    general = interval_test(S, IntervalParams(c, c))
    print(f"  {scores} at {c} point(s) per match: classic={classic} general={general}")
print()

print("sweeping every sequence with n <= 4 and scores <= 3 ...")
t0 = time.perf_counter()
report = sweep(4, 3)
print(
    f"  {report.sequences} sequences, {report.comparisons} comparisons, "
    f"{len(report.mismatches)} mismatches in {time.perf_counter() - t0:.1f}s"
)
