import subprocess
import sys
from pathlib import Path

import pytest

import scoreseq

PUBLIC_NAMES = {
    "ExtremalSummary",
    "InputTooShort",
    "IntervalParams",
    "MatrixStats",
    "NegativeScore",
    "NotAnInteger",
    "OracleBudgetExceeded",
    "OracleResult",
    "PointMatrix",
    "RealizationReport",
    "ScoreSequence",
    "ShapeMismatch",
    "SweepReport",
    "TournamentError",
    "__version__",
    "enumerate_extremes",
    "extremal_summary",
    "interval_test",
    "matrix_stats",
    "mini_max",
    "moon_test",
    "naive_construct",
    "normalize_sequence",
    "pigeonhole_construct",
    "sweep",
    "verify_realization",
}


def test_all_is_pinned():
    # the public API changes only together with this list
    assert len(scoreseq.__all__) == len(set(scoreseq.__all__)) == 26
    assert set(scoreseq.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in scoreseq.__all__:
        assert hasattr(scoreseq, name), name


def fresh_scoreseq():
    """A bare ``import scoreseq`` in a fresh interpreter, as a subprocess script."""
    return (
        "import sys\n"
        "sys.path.insert(0, {src!r})\n"
        "import scoreseq\n"
    ).format(src=str(Path(__file__).resolve().parents[1] / "src"))


def run_fresh(body: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", fresh_scoreseq() + body],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_bare_import_resolves_the_submodules():
    out = run_fresh(
        "for name in ('core', 'analysis', 'construct', 'oracle'):\n"
        "    module = getattr(scoreseq, name)\n"
        "    assert module is sys.modules['scoreseq.' + name], name\n"
        "from scoreseq import construct, oracle\n"
        "print(construct.mini_max.__module__, oracle.sweep.__module__)\n"
    )
    assert out.split() == ["scoreseq.construct", "scoreseq.oracle"]


def test_star_import_binds_every_public_name():
    out = run_fresh(
        "names = {}\n"
        "exec('from scoreseq import *', names)\n"
        "missing = set(scoreseq.__all__) - set(names)\n"
        "assert not missing, missing\n"
        "print(len([n for n in names if n != '__builtins__']))\n"
    )
    assert out.split() == ["26"]


def test_public_names_are_the_library_objects():
    from scoreseq import analysis, construct, core, oracle

    homes = (analysis, construct, core, oracle)
    for name in scoreseq.__all__:
        if name != "__version__":
            value = getattr(scoreseq, name)
            assert any(vars(m).get(name) is value for m in homes), name


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(scoreseq))
    assert set(scoreseq.__all__) <= listed
    assert {"core", "analysis", "construct", "oracle"} <= listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        scoreseq.no_such_name
    with pytest.raises(ImportError):
        from scoreseq import no_such_name  # noqa: F401


@pytest.mark.parametrize(
    "module, name",
    [("core", "InfeasiblePrefix"), ("core", "ceil_div"), ("construct", "score_slicing")],
)
def test_helpers_outside_all_come_from_their_modules(module, name):
    # only the private slicing step raises InfeasiblePrefix, so it is no
    # public name; these three are imported from their own modules
    assert name not in scoreseq.__all__
    assert hasattr(getattr(scoreseq, module), name)
    with pytest.raises(AttributeError):
        getattr(scoreseq, name)
