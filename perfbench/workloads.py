"""The benchmark's workloads: seeded input pools, the op, its check and its CLI form.

Each workload is one unit of user work that the benchmark repeats in a
closed loop over a pool of inputs.  The pools are built here from the seed
with the standard library's ``random`` and nothing from ``scoreseq``, so a
change to the library cannot change the inputs.

Every answer is turned into a plain JSON value (``answer``) equal to what
the matching ``scoreseq`` command prints, so one value serves the in-process
check, the CLI comparison and the digest.  The checks (``check``) recompute
what they can without the library and otherwise use only
``interval_test``/``verify_realization`` on the answer's own claims.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

from scoreseq import analysis, construct, core, oracle

# Input sizes.  Each op takes a few milliseconds (1-20 ms on 2 CPUs with
# Python 3.11), so that many repeats of every input fit in a run.  The
# benchmark reports each input's fastest repeat: on a shared host the same
# op takes up to 1.5x longer while neighbours load the CPU, and only ops
# that short run often enough on a quiet CPU for their fastest time to
# repeat from run to run.  The seeded workloads spread n over a 2-3x range,
# stratified, over pools of 128 inputs, so that aggregates over a pool move
# little from seed to seed and 12 inputs lie beyond its p90.  Reconstruct
# draws scores up to 3n, not 2n: at 2n the top score decides between e = 2
# and e = 3 by a coin flip, and ops in the two cases differ 2.5x in cost.
# The oracle sweep cycles over small exhaustive grids (2-18 ms each)
# instead of sweep(4, 2), which takes 55 ms.
DEFAULT_SEED = 1
POOL_SIZE = 128
BOUNDS_N = (500, 1500)
WIDE_H = (200, 2000)
RECONSTRUCT_N = (40, 70)
SWEEP_GRIDS = [(3, 2), (2, 4), (4, 1), (2, 3), (2, 5), (3, 1)]


@dataclass(frozen=True)
class Workload:
    name: str
    make_pool: Callable[[random.Random], list]
    op: Callable[[Any], Any]
    answer: Callable[[Any], dict]
    check: Callable[[Any, dict], list[str]]
    cli_argv: Callable[[Any, str], list[str]]
    sizes: str


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw from each of k equal slices of [lo, hi]; k a power of two.

    Stratifying keeps every seed's pool spread over the whole range, so
    medians over a pool move little from seed to seed.  The slices come in
    bit-reversed order, middle first, so that the first 2**m inputs of a
    pool, which set-up and the CLI runs use, spread evenly over the range.
    """
    bits = k.bit_length() - 1
    width = (hi - lo) / k
    order = [(int(f"{i:0{bits}b}"[::-1], 2) + k // 2) % k for i in range(k)]
    return [lo + width * (i + rng.random()) for i in order]


def _wide_pool(rng: random.Random) -> list[list[int]]:
    """Top-heavy scores: t in [n/8, n/2] players near (n-1)*h, the rest at most h.

    This puts f in the middle of its search window, about h wide, so
    ``min_f`` runs about log2(h) ``interval_test`` passes per op.  h and
    t/n are paired with n at random.
    """
    pool = []
    ns = _strata(rng, *BOUNDS_N, POOL_SIZE)
    hs = _strata(rng, *WIDE_H, POOL_SIZE)
    fractions = _strata(rng, 1 / 8, 1 / 2, POOL_SIZE)
    rng.shuffle(hs)
    rng.shuffle(fractions)
    for n, h, frac in zip(ns, hs, fractions):
        n, h = int(n), int(h)
        t = int(frac * n)
        top = [(n - 1) * h - rng.randrange(h) for _ in range(t)]
        rest = [rng.randint(0, h) for _ in range(n - t)]
        raw = top + rest
        rng.shuffle(raw)
        pool.append(raw)
    return pool


def _uniform_pool(
    n_range: tuple[int, int], top: int, size: int
) -> Callable[[random.Random], list[list[int]]]:
    """Scores uniform in [0, top*n], n stratified over n_range."""

    def make(rng: random.Random) -> list[list[int]]:
        ns = [int(n) for n in _strata(rng, *n_range, size)]
        return [[rng.randint(0, top * n) for _ in range(n)] for n in ns]

    return make


def _sweep_pool(rng: random.Random) -> list[tuple[int, int]]:
    # each grid is exhaustive: the seed is recorded but cannot change them
    return list(SWEEP_GRIDS)


# --- ops: one unit of user work, as the matching CLI command does it -------


def bounds_op(raw):
    D, perm = core.normalize_sequence(raw)
    return D, perm, analysis.extremal_summary(D)


def reconstruct_op(raw):
    D, perm = core.normalize_sequence(raw)
    summary, M = construct.mini_max(D)
    report = core.verify_realization(M, D, core.IntervalParams(summary.g, summary.f))
    return D, perm, summary, M, report, core.matrix_stats(M)


def sweep_op(grid):
    n_max, d_max = grid
    return oracle.sweep(n_max, d_max)


# --- answers: the JSON the CLI prints for the same input -------------------


def bounds_answer(out) -> dict:
    D, perm, s = out
    return {
        "n": D.n,
        "e": s.e,
        "f": s.f,
        "g": s.g,
        "f_window": [s.f_search_lo, s.f_search_hi],
        "scores": list(D.scores),
        "permutation": list(perm),
    }


def reconstruct_answer(out) -> dict:
    D, perm, summary, M, report, stats = out
    return {
        "method": "minimax",
        "a": summary.g,
        "b": summary.f,
        "e": summary.e,
        "f": summary.f,
        "g": summary.g,
        "scores": list(D.scores),
        "permutation": list(perm),
        "matrix": [list(row) for row in M.entries],
        "stats": {
            "max_entry": stats.max_entry,
            "max_pair_total": stats.max_pair_total,
            "min_pair_total": stats.min_pair_total,
            "row_sums": list(stats.row_sums),
        },
        "report": {
            "valid": report.valid,
            "zero_diagonal": report.zero_diagonal,
            "row_sums_match": report.row_sums_match,
            "pair_totals_in_window": report.pair_totals_in_window,
            "failures": list(report.failures),
        },
    }


def sweep_answer(report) -> dict:
    return {
        "sequences": report.sequences,
        "by_length": {str(k): v for k, v in report.by_length.items()},
        "comparisons": report.comparisons,
        "mismatches": list(report.mismatches),
    }


# --- checks: return a list of problems, empty when the answer is right -----


def _check_sorting(raw: list[int], ans: dict) -> list[str]:
    scores, perm = ans["scores"], ans["permutation"]
    n = len(raw)
    if scores != sorted(raw):
        return ["scores are not the sorted input"]
    if sorted(perm) != list(range(n)):
        return ["permutation is not a permutation of 0..n-1"]
    if any(raw[p] != s for p, s in zip(perm, scores)):
        return ["permutation does not map the sorted scores back to the input"]
    if any(scores[k] == scores[k + 1] and perm[k] > perm[k + 1] for k in range(n - 1)):
        return ["permutation is not stable on ties"]
    return []


def _check_optima(raw: list[int], ans: dict) -> list[str]:
    """e = ceil(d_n/(n-1)); f and g are feasible and cannot be improved by one."""
    problems = []
    n = len(raw)
    e, f, g = ans["e"], ans["f"], ans["g"]
    if e != -(-max(raw) // (n - 1)):
        problems.append(f"e={e} is not ceil(d_n/(n-1))")
    if not 0 <= g <= f:
        return problems + [f"need 0 <= g <= f, got g={g}, f={f}"]
    D = core.ScoreSequence(tuple(ans["scores"]))

    def feasible(a: int, b: int) -> bool:
        return analysis.interval_test(D, core.IntervalParams(a, b))

    if not feasible(0, f):
        problems.append(f"(0, f={f}) is rejected")
    if not feasible(g, f):
        problems.append(f"(g={g}, f={f}) is rejected")
    if f > 0 and feasible(0, f - 1):
        problems.append(f"(0, f-1={f - 1}) is accepted, so f is not minimal")
    if g < f and feasible(g + 1, f):
        problems.append(f"(g+1={g + 1}, f={f}) is accepted, so g is not maximal")
    return problems


def bounds_check(raw: list[int], ans: dict) -> list[str]:
    problems = _check_sorting(raw, ans) + _check_optima(raw, ans)
    lo, hi = ans["f_window"]
    if not lo <= ans["f"] <= hi:
        problems.append(f"f={ans['f']} outside f_window [{lo}, {hi}]")
    if ans["n"] != len(raw):
        problems.append(f"n={ans['n']} but {len(raw)} scores were given")
    return problems


def reconstruct_check(raw: list[int], ans: dict) -> list[str]:
    problems = _check_sorting(raw, ans) + _check_optima(raw, ans)
    if problems:
        return problems
    f, g, rows = ans["f"], ans["g"], ans["matrix"]
    n = len(raw)
    if len(rows) != n or any(len(row) != n for row in rows):
        return [f"matrix is not {n}x{n}"]
    if any(rows[i][i] != 0 for i in range(n)) or any(v < 0 for row in rows for v in row):
        return ["matrix has a nonzero diagonal or a negative entry"]
    row_sums = [sum(row) for row in rows]
    if row_sums != ans["scores"]:
        problems.append("row i does not sum to the i-th sorted score")
    totals = [rows[i][j] + rows[j][i] for i in range(n) for j in range(i + 1, n)]
    if max(totals) != f or min(totals) != g:
        problems.append(
            f"pair totals span [{min(totals)}, {max(totals)}], not [g, f] = [{g}, {f}]"
        )
    report = core.verify_realization(
        core.PointMatrix.from_rows(rows),
        core.ScoreSequence(tuple(ans["scores"])),
        core.IntervalParams(g, f),
    )
    if not report.valid:
        problems.append(f"verify_realization rejects the matrix: {report.failures[:3]}")
    expected_stats = {
        "max_entry": max(max(row) for row in rows),
        "max_pair_total": f,
        "min_pair_total": g,
        "row_sums": row_sums,
    }
    if ans["stats"] != expected_stats:
        problems.append("matrix_stats disagrees with the matrix")
    if (ans["a"], ans["b"]) != (g, f) or not ans["report"]["valid"]:
        problems.append("the op's own report is not a valid [g, f] realization")
    return problems


def sweep_check(grid, ans: dict) -> list[str]:
    n_max, d_max = grid
    # nondecreasing length-n sequences over 0..d: C(d + n, n)
    expected = {str(n): comb(d_max + n, n) for n in range(2, n_max + 1)}
    problems = []
    if ans["mismatches"]:
        problems.append(f"sweep is not clean: {ans['mismatches'][:3]}")
    if ans["by_length"] != expected:
        problems.append(f"by_length {ans['by_length']} != {expected}")
    if ans["sequences"] != sum(expected.values()):
        problems.append(f"sequences {ans['sequences']} != {sum(expected.values())}")
    return problems


# --- the CLI command of each workload --------------------------------------


def _scores_file_argv(command: str) -> Callable[[Any, str], list[str]]:
    def argv(item, scores_file: str) -> list[str]:
        return [command, "--scores-file", scores_file]

    return argv


def _sweep_argv(grid, scores_file: str) -> list[str]:
    n_max, d_max = grid
    return ["sweep", "--n-max", str(n_max), "--d-max", str(d_max)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bounds-wide", _wide_pool, bounds_op, bounds_answer, bounds_check,
            _scores_file_argv("bounds"),
            f"{POOL_SIZE} inputs, n in {list(BOUNDS_N)}, h in {list(WIDE_H)}, "
            "t in [n/8, n/2]",
        ),
        Workload(
            "bounds-uniform", _uniform_pool(BOUNDS_N, 2, POOL_SIZE), bounds_op,
            bounds_answer, bounds_check, _scores_file_argv("bounds"),
            f"{POOL_SIZE} inputs, n in {list(BOUNDS_N)}, scores uniform in [0, 2n]",
        ),
        Workload(
            "reconstruct",
            _uniform_pool(RECONSTRUCT_N, 3, POOL_SIZE),
            reconstruct_op, reconstruct_answer, reconstruct_check,
            _scores_file_argv("reconstruct"),
            f"{POOL_SIZE} inputs, n in {list(RECONSTRUCT_N)}, "
            "scores uniform in [0, 3n]",
        ),
        Workload(
            "oracle-sweep", _sweep_pool, sweep_op, sweep_answer, sweep_check,
            _sweep_argv, f"{len(SWEEP_GRIDS)} inputs, sweep(n_max, d_max) on {SWEEP_GRIDS}",
        ),
    )
}


def make_pool(name: str, seed: int) -> list:
    """The seeded input pool of a workload: same seed, same inputs."""
    return WORKLOADS[name].make_pool(random.Random(f"perfbench:{name}:{seed}"))


def digest(answers: list) -> str:
    """Short hash of answers: changes when any e/f/g, permutation, matrix or count does."""
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
