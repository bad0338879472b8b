"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED = json.loads((ROOT / "perfbench" / "expected_digests.json").read_text())
COUNTS = (
    "analysis.interval_test.calls",
    "construct.score_slicing.calls",
    "oracle.enumerate_extremes.calls",
    "oracle.enumerate_extremes.realizations",
    "oracle.useful_ratio",
)


def answers(name: str, seed: int) -> list[dict]:
    w = WORKLOADS[name]
    out = []
    for item in workloads.make_pool(name, seed):
        ans = w.answer(w.op(item))
        assert w.check(item, ans) == []
        out.append(ans)
    return out


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_depends_only_on_seed(name):
    assert workloads.make_pool(name, 7) == workloads.make_pool(name, 7)
    if name != "oracle-sweep":
        assert workloads.make_pool(name, 7) != workloads.make_pool(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_answers_match_pinned_digest(name):
    seed = workloads.DEFAULT_SEED
    assert workloads.digest(answers(name, seed)) == PINNED[name][str(seed)]


def test_bounds_check_rejects_wrong_answers():
    w = WORKLOADS["bounds-wide"]
    raw = workloads.make_pool("bounds-wide", 1)[0]
    good = w.answer(w.op(raw))
    assert w.check(raw, good) == []
    for key, value in (("f", good["f"] + 1), ("g", good["g"] + 1), ("e", good["e"] + 1),
                       ("f_window", [good["f"] + 1, good["f"] + 2])):
        assert w.check(raw, {**good, key: value}), key
    perm = list(good["permutation"])
    perm[0], perm[-1] = perm[-1], perm[0]
    assert w.check(raw, {**good, "permutation": perm})


def test_reconstruct_check_rejects_a_changed_matrix():
    w = WORKLOADS["reconstruct"]
    raw = workloads.make_pool("reconstruct", 1)[0]
    good = w.answer(w.op(raw))
    assert w.check(raw, good) == []
    for i, j, delta in ((0, 1, 1), (0, 0, 1), (1, 0, -good["matrix"][1][0] - 1)):
        matrix = [list(row) for row in good["matrix"]]
        matrix[i][j] += delta
        assert w.check(raw, {**good, "matrix": matrix}), (i, j, delta)


def test_sweep_check_rejects_a_short_count():
    w = WORKLOADS["oracle-sweep"]
    grid = workloads.make_pool("oracle-sweep", 1)[0]
    good = w.answer(w.op(grid))
    assert good["sequences"] == 16  # sweep(3, 2): C(4, 2) + C(5, 3)
    assert w.check(grid, good) == []
    assert w.check(grid, {**good, "sequences": 30})
    assert w.check(grid, {**good, "mismatches": ["x"]})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    runs = []
    for _ in range(2):
        proc = run_bench("--workload", name, "--seed", str(workloads.DEFAULT_SEED),
                         "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({k: result["metrics"][k]["value"] for k in COUNTS})
    assert runs[0] == runs[1]


def test_baseline_facts_at_default_seed():
    def traced(name):
        proc = run_bench("--workload", name, "--seed", str(workloads.DEFAULT_SEED),
                         "--seconds", "2", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        return {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}

    wide, uniform = traced("bounds-wide"), traced("bounds-uniform")
    assert wide["analysis.interval_test.calls"] > uniform["analysis.interval_test.calls"]
    assert traced("oracle-sweep")["oracle.useful_ratio"] < 1
    rec = traced("reconstruct")
    pool = workloads.make_pool("reconstruct", workloads.DEFAULT_SEED)
    # mini_max slices every player but the last two
    assert rec["construct.score_slicing.calls"] == sum(len(raw) - 2 for raw in pool) / len(pool)
    op_ms = sum(v for k, v in rec.items() if k.endswith(".self_ms") and not k.startswith("cli."))
    assert rec["construct.score_slicing.self_ms"] > op_ms / 2


def test_refuses_to_run_without_the_source():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "bounds-wide", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
