import scoreseq

PUBLIC_NAMES = {
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
}


def test_all_is_pinned():
    # the public API changes only together with this list
    assert len(scoreseq.__all__) == len(set(scoreseq.__all__)) == 31
    assert set(scoreseq.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in scoreseq.__all__:
        assert hasattr(scoreseq, name), name
