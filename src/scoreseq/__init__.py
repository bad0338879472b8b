"""Score sequences of interval tournaments.

Decide whether an integer sequence is the score sequence of a tournament
whose pair totals lie in a window [a, b], compute the extremal parameters
e (smallest max entry), f (smallest max pair total), g (largest min pair
total), and construct witness matrices including a minimax-balanced one.
"""

from .analysis import (
    bound_e,
    extremal_summary,
    interval_test,
    max_g,
    min_f,
)
from .construct import (
    mini_max,
    naive_construct,
    pigeonhole_construct,
)
from .core import (
    ExtremalSummary,
    InfeasiblePrefix,
    InputTooShort,
    IntervalParams,
    MatrixStats,
    NegativeScore,
    NotAnInteger,
    OracleBudgetExceeded,
    PointMatrix,
    RealizationReport,
    ScoreSequence,
    ShapeMismatch,
    TournamentError,
    matrix_stats,
    normalize_sequence,
    verify_realization,
)
from .oracle import (
    OracleResult,
    SweepReport,
    enumerate_extremes,
    landau_test,
    moon_test,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ExtremalSummary",
    "InfeasiblePrefix",
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
    "bound_e",
    "enumerate_extremes",
    "extremal_summary",
    "interval_test",
    "landau_test",
    "matrix_stats",
    "max_g",
    "min_f",
    "mini_max",
    "moon_test",
    "naive_construct",
    "normalize_sequence",
    "pigeonhole_construct",
    "sweep",
    "verify_realization",
]
