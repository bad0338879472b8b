import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoreseq import cli, matrix_stats, naive_construct, oracle
from scoreseq.cli import run

from golden import SCORES_SIX, TABLE_WIDE


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    return code, json.loads(out), err


SIX_ARG = ",".join(str(s) for s in SCORES_SIX)


class TestBounds:
    def test_six_players(self, capsys):
        code, payload, _ = invoke_json(capsys, "bounds", "--scores", SIX_ARG)
        assert code == 0
        assert payload["n"] == 6
        assert payload["e"] == 7
        assert payload["f"] == 9
        assert payload["g"] == 8
        assert payload["f_window"] == [9, 14]

    def test_unsorted_input_reports_permutation(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "bounds", "--scores", "34 9 19 9 32 20"
        )
        assert code == 0
        assert payload["scores"] == list(SCORES_SIX)
        raw = [34, 9, 19, 9, 32, 20]
        assert [raw[i] for i in payload["permutation"]] == list(SCORES_SIX)

    def test_csv_format(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "--scores", SIX_ARG, "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,e,f,g,f_lo,f_hi"
        assert row == "6,7,9,8,9,14"

    def test_scores_file(self, capsys, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("\n".join(str(s) for s in SCORES_SIX))
        code, payload, _ = invoke_json(capsys, "bounds", "--scores-file", str(path))
        assert code == 0
        assert payload["f"] == 9


    def test_empty_score_list_is_input_error(self, capsys):
        code, out, err = invoke(capsys, "bounds", "--scores", ",")
        assert code == 2
        assert out == ""
        assert "no scores given" in err


class TestTest:
    def test_infeasible_window_exits_one(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "test", "--a", "9", "--b", "9", "--scores", SIX_ARG
        )
        assert code == 1
        assert payload == {"a": 9, "b": 9, "n": 6, "realizable": False}

    def test_feasible_window_exits_zero(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "test", "--a", "8", "--b", "9", "--scores", SIX_ARG
        )
        assert code == 0
        assert payload["realizable"] is True

    def test_inverted_window_is_an_input_error(self, capsys):
        code, out, err = invoke(
            capsys, "test", "--a", "3", "--b", "2", "--scores", SIX_ARG
        )
        assert code == 2
        assert "error" in err


class TestReconstruct:
    def test_minimax_two_zeros(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "reconstruct", "--method", "minimax", "--scores", "0,0"
        )
        assert code == 0
        assert payload["matrix"] == [[0, 0], [0, 0]]
        assert payload["report"]["valid"] is True

    @pytest.mark.parametrize("method", ["naive", "pigeonhole", "minimax"])
    def test_round_trip_through_verify(self, capsys, tmp_path, method):
        code, out, _ = invoke(
            capsys,
            "reconstruct", "--method", method, "--scores", SIX_ARG,
            "--format", "csv",
        )
        assert code == 0
        matrix_file = tmp_path / "matrix.csv"
        matrix_file.write_text(out)

        code, payload, _ = invoke_json(
            capsys, "reconstruct", "--method", method, "--scores", SIX_ARG
        )
        a, b = payload["a"], payload["b"]
        code, payload, _ = invoke_json(
            capsys,
            "verify", "--matrix", str(matrix_file), "--scores", SIX_ARG,
            "--a", str(a), "--b", str(b),
        )
        assert code == 0
        assert payload["valid"] is True

    def test_naive_two_players_verifies_its_own_witness(self, capsys):
        # both cycle arcs land on the one pair, so the default cap is d_1 + d_2
        code, payload, _ = invoke_json(
            capsys, "reconstruct", "--scores", "3,4", "--method", "naive"
        )
        assert code == 0
        assert payload["b"] == 7
        assert payload["report"]["valid"] is True

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_failed_verification_exits_negative(self, capsys, fmt):
        # a = 9 is above g = 8, so no witness fits the window [9, 9]
        code, out, _ = invoke(
            capsys,
            "reconstruct", "--scores", "34 9 19 9 32 20", "--a", "9", "--b", "9",
            "--format", fmt,
        )
        assert code == 1
        assert out

    @given(st.lists(st.integers(0, 10**6), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_naive_is_the_library_cycle_in_its_own_window(self, raw):
        # unsorted input: the witness is naive_construct's, in input order,
        # and the default window [0, F] holds it
        out = io.StringIO()
        argv = ["reconstruct", "--method", "naive", "--scores", ",".join(map(str, raw))]
        with contextlib.redirect_stdout(out):
            code = run(argv)
        payload = json.loads(out.getvalue())
        M = naive_construct(raw)
        stats = matrix_stats(M)
        assert code == 0
        assert payload["matrix"] == [list(row) for row in M.entries]
        assert [payload["a"], payload["b"]] == [0, stats.max_pair_total]
        assert payload["report"]["valid"] is True

    def test_minimax_reports_extremes(self, capsys):
        code, payload, _ = invoke_json(
            capsys, "reconstruct", "--scores", SIX_ARG
        )
        assert code == 0
        assert (payload["e"], payload["f"], payload["g"]) == (7, 9, 8)
        assert payload["stats"]["max_pair_total"] == 9
        assert payload["stats"]["min_pair_total"] == 8


class TestVerify:
    def _write_matrix(self, tmp_path, rows):
        path = tmp_path / "matrix.csv"
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
        return str(path)

    def test_wide_table_verifies(self, capsys, tmp_path):
        path = self._write_matrix(tmp_path, TABLE_WIDE)
        code, payload, _ = invoke_json(
            capsys, "verify", "--matrix", path, "--scores", SIX_ARG,
            "--a", "2", "--b", "10",
        )
        assert code == 0
        assert payload["valid"] is True

    def test_tight_window_fails(self, capsys, tmp_path):
        path = self._write_matrix(tmp_path, TABLE_WIDE)
        code, payload, _ = invoke_json(
            capsys, "verify", "--matrix", path, "--scores", SIX_ARG,
            "--a", "3", "--b", "10",
        )
        assert code == 1
        assert payload["valid"] is False

    def test_nonzero_diagonal_is_input_error(self, capsys, tmp_path):
        path = self._write_matrix(tmp_path, [[1, 0], [0, 0]])
        code, _, err = invoke(
            capsys, "verify", "--matrix", path, "--scores", "0,1",
            "--a", "0", "--b", "1",
        )
        assert code == 2
        assert "diagonal" in err

    def test_non_square_is_input_error(self, capsys, tmp_path):
        path = self._write_matrix(tmp_path, [[0, 1, 2], [1, 0, 1]])
        code, _, err = invoke(
            capsys, "verify", "--matrix", path, "--scores", "0,1",
            "--a", "0", "--b", "1",
        )
        assert code == 2

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "verify", "--matrix", str(tmp_path / "nope.csv"),
            "--scores", "0,1", "--a", "0", "--b", "1",
        )
        assert code == 2
        assert "error" in err

    def test_garbage_entries_are_input_errors(self, capsys, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("0,x\n1,0\n")
        code, _, err = invoke(
            capsys, "verify", "--matrix", str(path), "--scores", "0,1",
            "--a", "0", "--b", "1",
        )
        assert code == 2
        assert "integers" in err


class TestOracle:
    def test_small_instance(self, capsys):
        code, payload, _ = invoke_json(capsys, "oracle", "--scores", "1,1,1")
        assert code == 0
        assert payload["realizable"] is True
        assert payload["min_F"] == payload["max_G"] == 1

    def test_budget_exit_code(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--scores", SIX_ARG)
        assert code == 3
        assert "budget" in err

    def test_negative_budget_flag_is_input_error(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--scores", "1,1,1", "--budget", "-1")
        assert code == 2
        assert "nonnegative" in err


class TestSweep:
    def test_tiny_sweep_is_clean(self, capsys):
        code, payload, _ = invoke_json(capsys, "sweep", "--n-max", "3", "--d-max", "2")
        assert code == 0
        assert payload["mismatches"] == []
        assert payload["sequences"] == 16

    @pytest.mark.parametrize("n_max, d_max", [("1", "2"), ("3", "-1")])
    def test_empty_grid_is_input_error(self, capsys, n_max, d_max):
        code, out, err = invoke(capsys, "sweep", "--n-max", n_max, "--d-max", d_max)
        assert code == 2
        assert out == ""
        assert "n_max >= 2 and d_max >= 0" in err

    def test_negative_moon_c_max_is_input_error(self, capsys):
        code, out, err = invoke(
            capsys, "sweep", "--n-max", "3", "--d-max", "2", "--moon-c-max", "-1"
        )
        assert code == 2
        assert out == ""
        assert "moon_c_max -1 must be nonnegative" in err

    def test_d_max_beyond_magnitude_is_input_error(self, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("sweep walked a sequence")

        # refusing the grid too keeps a regression from building a pool of
        # 10**9 scores before it fails
        monkeypatch.setattr(oracle, "_frontier", refused)
        monkeypatch.setattr(itertools, "combinations_with_replacement", refused)
        code, out, err = invoke(
            capsys, "sweep", "--n-max", "2", "--d-max", "1000000001"
        )
        assert code == 2
        assert out == ""
        assert "exceeds supported magnitude" in err

    def test_seven_players_is_budget_error(self, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("sweep walked a sequence")

        monkeypatch.setattr(oracle, "_frontier", refused)
        code, out, err = invoke(capsys, "sweep", "--n-max", "7", "--d-max", "3")
        assert code == 3
        assert out == ""
        assert "7 players is beyond exhaustive reach" in err

    def test_mismatches_exit_one_and_are_listed(self, capsys, monkeypatch):
        fast = oracle.moon_test
        monkeypatch.setattr(oracle, "moon_test", lambda D, c: not fast(D, c))
        code, out, _ = invoke(
            capsys, "sweep", "--n-max", "2", "--d-max", "0", "--moon-c-max", "1",
            "--format", "table",
        )
        assert code == 1
        assert out.splitlines() == [
            "sequences=1 comparisons=9 mismatches=2",
            "  (0, 0): Landau (moon_test at c = 1) disagrees with window (1,1)",
            "  (0, 0): moon_test(1) disagrees with window (1,1)",
        ]

    def test_csv_format_is_not_offered(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--n-max", "3", "--d-max", "2", "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1", "-1", "x"])
def test_environment_cannot_change_an_answer(capsys, monkeypatch, value):
    # --budget is the only route to the oracle budget: a variable named like
    # one must leave every oracle and sweep answer as it is
    commands = [
        ("oracle", "--scores", "1,1,1"),
        ("sweep", "--n-max", "3", "--d-max", "2"),
    ]
    monkeypatch.delenv("SCORESEQ_ORACLE_BUDGET", raising=False)
    unset = [invoke(capsys, *argv) for argv in commands]
    monkeypatch.setenv("SCORESEQ_ORACLE_BUDGET", value)
    for argv, (code, out, _) in zip(commands, unset):
        assert code == 0
        assert invoke(capsys, *argv)[:2] == (0, out)


class TestBench:
    def test_csv_shape_and_determinism(self, capsys):
        args = (
            "bench", "--algorithms", "interval-test,min-f", "--sizes", "500,1000",
            "--seed", "11", "--repeats", "1",
        )
        code, out1, _ = invoke(capsys, *args)
        assert code == 0
        code, out2, _ = invoke(capsys, *args)
        assert code == 0

        lines1 = out1.strip().splitlines()
        lines2 = out2.strip().splitlines()
        assert lines1[0] == "algorithm,n,d_max,seed,repeats,best_seconds,input_checksum"
        assert len(lines1) == 5

        def stable(lines):
            rows = [line.split(",") for line in lines[1:]]
            return [row[:5] + row[6:] for row in rows]

        assert stable(lines1) == stable(lines2)

    def test_minimax_rows(self, capsys):
        code, out, _ = invoke(
            capsys, "bench", "--algorithms", "minimax",
            "--minimax-sizes", "20,40", "--seed", "3", "--repeats", "1",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["minimax", "minimax"]
        assert [r[1] for r in rows] == ["20", "40"]

    def test_zero_repeats_is_input_error(self, capsys):
        code, out, err = invoke(
            capsys, "bench", "--algorithms", "min-f", "--sizes", "10",
            "--repeats", "0",
        )
        assert code == 2
        assert out == ""
        assert "repeats" in err

    @pytest.mark.parametrize(
        "sizes",
        [
            ("--algorithms", "min-f", "--sizes", "1"),
            ("--algorithms", "interval-test", "--sizes", "10,1"),
            ("--algorithms", "minimax", "--minimax-sizes", "1"),
        ],
    )
    def test_size_below_two_fails_before_any_output(self, capsys, sizes):
        code, out, err = invoke(capsys, "bench", *sizes, "--repeats", "1")
        assert code == 2
        assert out == ""
        assert "at least 2" in err

    @pytest.mark.parametrize("flag", ["--sizes", "--minimax-sizes"])
    def test_size_beyond_magnitude_rejected_before_any_input(
        self, capsys, monkeypatch, flag
    ):
        # scores run up to 2n, so 2 * 500000001 is past MAX_MAGNITUDE; the
        # size must be refused before a pool of 5 * 10**8 scores is drawn
        def refused(*args, **kwargs):
            raise AssertionError("bench drew an input")

        monkeypatch.setattr(cli, "generate_scores", refused)
        code, out, err = invoke(
            capsys, "bench", "--algorithms", "min-f,minimax",
            flag, "500000001", "--repeats", "1",
        )
        assert code == 2
        assert out == ""
        assert "exceeds supported magnitude" in err

    def test_unknown_algorithm_is_input_error(self, capsys):
        code, _, err = invoke(capsys, "bench", "--algorithms", "quantum")
        assert code == 2
        assert "unknown" in err


class TestScoresParsing:
    def test_bad_scores_exit_two(self, capsys):
        code, _, err = invoke(capsys, "bounds", "--scores", "1,2,x")
        assert code == 2
        assert "integers" in err

    def test_single_score_exit_two(self, capsys):
        code, _, err = invoke(capsys, "bounds", "--scores", "5")
        assert code == 2

    def test_negative_score_exit_two(self, capsys):
        code, _, err = invoke(capsys, "bounds", "--scores", "3,-1")
        assert code == 2
