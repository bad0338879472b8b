"""The CLI as a whole process: what importing it loads, and a closed stdout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    env.update(extra)
    return env


def test_importing_the_cli_loads_neither_construct_nor_oracle():
    # the difference of sys.modules, so modules a site hook preloads don't count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import scoreseq.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert {"scoreseq", "scoreseq.cli", "scoreseq.core"} <= added
    assert not added & {"dataclasses", "scoreseq.construct", "scoreseq.oracle"}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_is_an_output_error(unbuffered):
    # a pipe whose read end is already closed: the write fails with EPIPE
    env = child_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "scoreseq.cli", "bounds", "--scores",
             "9,9,19,20,32,34"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Broken pipe" in done.stderr
    assert done.stderr.count("\n") == 1
