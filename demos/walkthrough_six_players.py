"""Walk through the six-player example from end to end.

Takes the unsorted score list (34, 9, 19, 9, 32, 20), normalizes it,
computes the extremal parameters, probes a few pair-total windows, and
builds the minimax-balanced point matrix.
"""

from scoreseq import (
    IntervalParams,
    extremal_summary,
    interval_test,
    matrix_stats,
    mini_max,
    normalize_sequence,
    verify_realization,
)


def show_matrix(M):
    for i, row in enumerate(M.entries):
        cells = " ".join("--" if i == j else f"{v:2d}" for j, v in enumerate(row))
        print(f"  {cells}   | {sum(row)}")


raw = [34, 9, 19, 9, 32, 20]
print(f"raw scores:     {raw}")

D, perm = normalize_sequence(raw)
print(f"sorted scores:  {list(D.scores)}")
print(f"original slots: {list(perm)}")
print()

summary = extremal_summary(D)
print("extremal parameters:")
print(f"  e = {summary.e}   (smallest achievable largest entry)")
print(f"  f = {summary.f}   (smallest achievable largest pair total)")
print(f"  g = {summary.g}   (largest achievable smallest pair total)")
print(f"  f lies in its window [{summary.f_search_lo}, {summary.f_search_hi}]")
print()

print("probing pair-total windows:")
for a, b in [(0, 9), (8, 9), (9, 9), (0, 8)]:
    verdict = interval_test(D, IntervalParams(a, b))
    print(f"  window [{a}, {b}]: {'realizable' if verdict else 'not realizable'}")
print()

summary, M = mini_max(D)
print(f"minimax reconstruction (all pair totals in [{summary.g}, {summary.f}]):")
show_matrix(M)

stats = matrix_stats(M)
report = verify_realization(M, D, IntervalParams(summary.g, summary.f))
print()
print(f"largest entry {stats.max_entry}, pair totals span "
      f"[{stats.min_pair_total}, {stats.max_pair_total}], valid={report.valid}")
