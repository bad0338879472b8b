"""Score sequences of interval tournaments.

Decide whether an integer sequence is the score sequence of a tournament
whose pair totals lie in a window [a, b], compute the extremal parameters
e (smallest max entry), f (smallest max pair total), g (largest min pair
total), and construct witness matrices including a minimax-balanced one.

The public names and the submodules load on first access (PEP 562), so a
process imports only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("core", "analysis", "construct", "oracle")
_EXPORTS = {
    "analysis": "extremal_summary interval_test",
    "construct": "mini_max naive_construct pigeonhole_construct",
    "core": "ExtremalSummary InputTooShort IntervalParams MatrixStats NegativeScore "
    "NotAnInteger OracleBudgetExceeded PointMatrix RealizationReport ScoreSequence "
    "ShapeMismatch TournamentError matrix_stats normalize_sequence verify_realization",
    "oracle": "OracleResult SweepReport enumerate_extremes moon_test sweep",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
