"""Golden CLI run: stdout, stderr and exit code of every command in every
format it accepts, pinned byte for byte in ``cli_golden.json``.

The inputs cover unsorted scores, two players, ``0,0``, an infeasible
window, bad matrices, missing files, budget overruns and bad scores.  Each
case runs in-process from a scratch directory holding the fixture files, so
file names in error messages are the same everywhere.  ``bench`` timings
vary between runs, so its ``best_seconds`` column is masked.

To re-pin after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from scoreseq.cli import run

from golden import SCORES_SIX, TABLE_WIDE

GOLDEN_FILE = pathlib.Path(__file__).with_name("cli_golden.json")

UNSORTED = "34 9 19 9 32 20"
SIX = ",".join(map(str, SCORES_SIX))
SCORE_INPUTS = (UNSORTED, "3,4", "0,0")
BAD_SCORES = (
    ("--scores", "1,2,x"),
    ("--scores", "3,-1"),
    ("--scores", "5"),
    ("--scores-file", "missing.txt"),
)
BAD_MATRICES = ("diag.csv", "garbage.csv", "ragged.csv", "empty.csv", "none.csv")
FORMATS = ("json", "csv", "table")

FIXTURES = {
    "scores.txt": "34\n9 19,9\n32 20\n",
    "wide.csv": "\n".join(",".join(map(str, row)) for row in TABLE_WIDE) + "\n",
    "diag.csv": "1,0\n0,0\n",
    "garbage.csv": "0,x\n1,0\n",
    "ragged.csv": "0,1,2\n1,0,1\n",
    "empty.csv": "\n",
}


def _verify(matrix: str, source: str, scores: str, a: str, b: str) -> list[str]:
    return ["verify", "--matrix", matrix, source, scores, "--a", a, "--b", b]


def _cases() -> list[list[str]]:
    cases = []
    for fmt in FORMATS:
        f = ["--format", fmt]
        for s in SCORE_INPUTS:
            cases.append(["bounds", "--scores", s, *f])
            cases.append(["test", "--scores", s, "--a", "0", "--b", "9", *f])
            for method in ("naive", "pigeonhole", "minimax"):
                cases.append(["reconstruct", "--method", method, "--scores", s, *f])
            cases.append(["oracle", "--scores", s, *f])
        cases += [
            ["bounds", "--scores-file", "scores.txt", *f],
            ["test", "--scores", UNSORTED, "--a", "9", "--b", "9", *f],
            ["test", "--scores", UNSORTED, "--a", "8", "--b", "9", *f],
            ["test", "--scores", UNSORTED, "--a", "3", "--b", "2", *f],
            ["reconstruct", "--method", "naive", "--scores", "3,1,2", *f],
            ["reconstruct", "--scores", UNSORTED, "--a", "9", "--b", "9", *f],
            ["reconstruct", "--scores", "0,0", "--a", "1", "--b", "0", *f],
            [*_verify("wide.csv", "--scores", SIX, "2", "10"), *f],
            [*_verify("wide.csv", "--scores", SIX, "3", "9"), *f],
            [*_verify("wide.csv", "--scores", "9,9,19,20,32,35", "2", "10"), *f],
            [*_verify("wide.csv", "--scores", "0,1", "0", "1"), *f],
            ["oracle", "--scores", "1,1,1", *f],
            ["oracle", "--scores", "1,1,1", "--no-witness", *f],
            ["oracle", "--scores", "1,1,1", "--pair-cap", "0", *f],
            ["oracle", "--scores", "2,1,3", "--a-floor", "1", "--pair-cap", "3", *f],
            ["oracle", "--scores", "1,1,1", "--budget", "5", *f],
            ["oracle", "--scores", "1,1,1", "--budget", "-1", *f],
        ]
        for matrix in BAD_MATRICES:
            cases.append([*_verify(matrix, "--scores", "0,1", "0", "1"), *f])
        for bad in BAD_SCORES:
            cases.append(["bounds", *bad, *f])
    for bad in BAD_SCORES:
        cases += [
            ["test", *bad, "--a", "0", "--b", "1"],
            ["reconstruct", *bad],
            _verify("wide.csv", *bad, "0", "1"),
            ["oracle", *bad],
        ]
    for fmt in ("json", "table"):
        f = ["--format", fmt]
        cases += [
            ["sweep", "--n-max", "3", "--d-max", "2", *f],
            ["sweep", "--n-max", "2", "--d-max", "3", "--moon-c-max", "0", *f],
            ["sweep", "--n-max", "3", "--d-max", "2", "--budget", "1", *f],
            ["sweep", "--n-max", "1", "--d-max", "2", *f],
            ["sweep", "--n-max", "3", "--d-max", "-1", *f],
        ]
    cases += [
        ["bench", "--algorithms", "interval-test,min-f,minimax", "--sizes", "50,60",
         "--minimax-sizes", "10", "--seed", "7", "--repeats", "1"],
        ["bench", "--algorithms", "quantum"],
        ["bench", "--algorithms", "min-f", "--sizes", "10", "--repeats", "0"],
        ["bench", "--algorithms", "min-f", "--sizes", "10,1", "--repeats", "1"],
    ]
    return cases


def _mask_timings(stdout: str) -> str:
    lines = stdout.split("\n")
    for k in range(1, len(lines)):
        fields = lines[k].split(",")
        if len(fields) == 7:
            fields[5] = "*"
            lines[k] = ",".join(fields)
    return "\n".join(lines)


def capture(argv: list[str]) -> dict:
    """Run one CLI invocation and return what it printed and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    stdout = out.getvalue()
    if argv[0] == "bench":
        stdout = _mask_timings(stdout)
    return {"argv": argv, "code": code, "stdout": stdout, "stderr": err.getvalue()}


def write_fixtures(directory: pathlib.Path) -> None:
    for name, text in FIXTURES.items():
        (directory / name).write_text(text, encoding="utf-8")


# absent only while the file is first written; the next test then fails
PINNED = (
    json.loads(GOLDEN_FILE.read_text(encoding="utf-8")) if GOLDEN_FILE.exists() else []
)


def test_pinned_cases_match_case_list():
    assert [case["argv"] for case in PINNED] == _cases()


@pytest.mark.parametrize("pinned", PINNED, ids=[" ".join(c["argv"]) for c in PINNED])
def test_cli_output_is_pinned(pinned, tmp_path, monkeypatch):
    write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert capture(pinned["argv"]) == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_fixtures(pathlib.Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            records = [capture(argv) for argv in _cases()]
        finally:
            os.chdir(here)
    GOLDEN_FILE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {len(records)} invocations in {GOLDEN_FILE.name}", file=sys.stderr)
