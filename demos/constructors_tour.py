"""Compare the three witness constructors on one sequence.

The one-cycle construction is trivial but lopsided; the evenly-spread
construction minimizes the largest single entry; the minimax construction
pins every pair total inside the provably best window [g, f].
"""

from scoreseq import (
    ScoreSequence,
    extremal_summary,
    matrix_stats,
    mini_max,
    naive_construct,
    pigeonhole_construct,
)

D = ScoreSequence((0, 0, 0, 40, 40, 40))
print(f"scores: {list(D.scores)}")
print(f"pigeonhole bound on the largest entry: h = {extremal_summary(D).e}")
print()


def describe(name, M):
    stats = matrix_stats(M)
    print(f"{name}:")
    for i, row in enumerate(M.entries):
        print("  " + " ".join("--" if i == j else f"{v:2d}" for j, v in enumerate(row)))
    print(
        f"  largest entry {stats.max_entry}, "
        f"pair totals in [{stats.min_pair_total}, {stats.max_pair_total}]"
    )
    print()


describe("one-cycle", naive_construct(D.scores))
describe("evenly spread", pigeonhole_construct(D))

summary, M = mini_max(D)
describe(f"minimax (f={summary.f}, g={summary.g})", M)

print("the zero scores force some pair total to 0, so g = 0 here; no")
print("construction can beat the minimax window.")
