"""Command-line front end.

Subcommands:

* ``bounds``       print n, e, f, g and the f-search window for a sequence
* ``test``         decide realizability for a given pair window (a, b)
* ``reconstruct``  build a witness matrix (naive / pigeonhole / minimax)
* ``verify``       check a matrix file against scores and a window
* ``oracle``       exhaustively enumerate realizations of a small sequence
* ``sweep``        compare the fast formulas against exhaustion
* ``bench``        time the core operations on seeded random sequences

Scores are given inline (``--scores 9,9,19,20,32,34``, commas or spaces)
or in a file (``--scores-file``), unsorted input accepted.  Matrices are
plain CSV: n lines of n comma-separated nonnegative integers with a zero
diagonal.  Data goes to stdout, diagnostics to stderr.  ``--format`` picks
json (the default), csv or table for the five commands that take scores,
and json or table for ``sweep``; ``bench`` writes CSV only.  In CSV mode
``reconstruct`` and ``verify`` put their verification notes on stderr, after
the CSV.  Exit codes: 0 ok, 1 negative answer (not realizable / invalid
matrix / sweep mismatch), 2 usage, input or output error, 3 oracle budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Sequence

# construct and oracle load only in the commands that use them
from .analysis import extremal_summary, interval_test
from .core import (
    IntervalParams,
    OracleBudgetExceeded,
    PointMatrix,
    ScoreSequence,
    TournamentError,
    _validate_scores,
    matrix_stats,
    normalize_sequence,
    verify_realization,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

Renderer = Callable[[], str | tuple[str, str]]  # stdout text [, stderr note]
Outcome = tuple[int, dict | None, dict[str, Renderer]]  # exit code, JSON, renderers


def parse_scores_text(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("no scores given")
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"scores must be integers, got {text!r}") from None


def read_matrix_file(path: str) -> PointMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"matrix file {path} is empty")
    rows = []
    for lineno, line in enumerate(lines, start=1):
        try:
            rows.append([int(tok) for tok in line.replace(",", " ").split()])
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: matrix entries must be integers"
            ) from None
    return PointMatrix.from_rows(rows)


def _load_scores(args: argparse.Namespace) -> list[int]:
    if args.scores is not None:
        return parse_scores_text(args.scores)
    with open(args.scores_file, "r", encoding="utf-8") as fh:
        return parse_scores_text(fh.read())


def _csv(row: dict) -> str:
    """A header line and one data line; booleans print as true/false."""
    cells = [str(v).lower() if isinstance(v, bool) else str(v) for v in row.values()]
    return ",".join(row) + "\n" + ",".join(cells)


def _indented(lines: Sequence[str]) -> str:
    return "".join(f"\n  {line}" for line in lines)


def _matrix_csv(M: PointMatrix) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in M.entries)


def _matrix_table(M: PointMatrix) -> str:
    width = max(2, max(len(str(v)) for row in M.entries for v in row))
    lines = []
    for i, row in enumerate(M.entries):
        cells = [("-" if i == j else str(v)).rjust(width) for j, v in enumerate(row)]
        lines.append(" ".join(cells) + f"  | {sum(row)}")
    return "\n".join(lines)


def generate_scores(n: int, d_max: int, seed: int) -> ScoreSequence:
    """Seeded random nondecreasing sequence for benchmarking."""
    import random

    rng = random.Random(f"{seed}:{n}:{d_max}")
    return ScoreSequence(tuple(sorted(rng.randint(0, d_max) for _ in range(n))))


def _best_time(fn, repeats: int) -> float:
    """Fastest of ``repeats`` single calls of fn, garbage collector on."""
    import timeit

    return min(timeit.repeat(fn, "gc.enable()", number=1, repeat=repeats))


def _cmd_bounds(args: argparse.Namespace) -> Outcome:
    D, perm = normalize_sequence(_load_scores(args))
    s = extremal_summary(D)
    lo, hi = s.f_search_lo, s.f_search_hi
    values = {"n": D.n, "e": s.e, "f": s.f, "g": s.g}
    payload = {
        **values,
        "f_window": [lo, hi],
        "scores": list(D.scores),
        "permutation": list(perm),
    }
    return EXIT_OK, payload, {
        "csv": lambda: _csv({**values, "f_lo": lo, "f_hi": hi}),
        "table": lambda: "\n".join(
            [*(f"{k:<3} = {v}" for k, v in values.items()), f"f in [{lo}, {hi}]"]
        ),
    }


def _cmd_test(args: argparse.Namespace) -> Outcome:
    D, _ = normalize_sequence(_load_scores(args))
    params = IntervalParams(args.a, args.b)
    ok = interval_test(D, params)
    payload = {"realizable": ok, "a": params.a, "b": params.b, "n": D.n}
    return EXIT_OK if ok else EXIT_NEGATIVE, payload, {
        "csv": lambda: _csv({"realizable": ok}),
        "table": lambda: f"realizable within [{params.a}, {params.b}]: {ok}",
    }


def _cmd_reconstruct(args: argparse.Namespace) -> Outcome:
    from .construct import mini_max, naive_construct, pigeonhole_construct

    raw = _load_scores(args)
    D, perm = normalize_sequence(raw)
    payload = {}
    if args.method == "naive":
        M = naive_construct(raw)
        default_a, default_b = 0, matrix_stats(M).max_pair_total
    elif args.method == "pigeonhole":
        M = pigeonhole_construct(D)
        default_a, default_b = 0, 2 * extremal_summary(D).e
    else:
        summary, M = mini_max(D)
        payload = {"e": summary.e, "f": summary.f, "g": summary.g}
        default_a, default_b = summary.g, summary.f
    a = args.a if args.a is not None else default_a
    b = args.b if args.b is not None else default_b
    report = verify_realization(M, D, IntervalParams(a, b))
    payload.update(
        method=args.method,
        a=a,
        b=b,
        scores=list(D.scores),
        permutation=list(perm),
        matrix=[list(row) for row in M.entries],
        stats=matrix_stats(M)._asdict(),
        report={**report._asdict(), "valid": report.valid},
    )
    return EXIT_OK if report.valid else EXIT_NEGATIVE, payload, {
        "csv": lambda: (_matrix_csv(M), f"verify: valid={report.valid}"),
        "table": lambda: _matrix_table(M)
        + f"\nwindow [{a}, {b}]: valid={report.valid}"
        + _indented(report.failures),
    }


def _cmd_verify(args: argparse.Namespace) -> Outcome:
    M = read_matrix_file(args.matrix)
    D, _ = normalize_sequence(_load_scores(args))
    params = IntervalParams(args.a, args.b)
    report = verify_realization(M, D, params)
    payload = {
        "valid": report.valid,
        "a": params.a,
        "b": params.b,
        "report": {**report._asdict(), "valid": report.valid},
        "stats": matrix_stats(M)._asdict(),
    }
    return EXIT_OK if report.valid else EXIT_NEGATIVE, payload, {
        "csv": lambda: (_csv({"valid": report.valid}), "\n".join(report.failures)),
        "table": lambda: f"valid: {report.valid}" + _indented(report.failures),
    }


def _cmd_oracle(args: argparse.Namespace) -> Outcome:
    from .oracle import DEFAULT_BUDGET, enumerate_extremes

    D, _ = normalize_sequence(_load_scores(args))
    pair_cap = args.pair_cap if args.pair_cap is not None else 2 * extremal_summary(D).e
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    result = enumerate_extremes(
        D, pair_cap=pair_cap, a_floor=args.a_floor, budget=budget
    )
    witness = None if args.no_witness else result.witness
    fields = {
        "realizable": result.realizable,
        "count": result.count,
        "pair_cap": pair_cap,
        "a_floor": args.a_floor,
        "min_F": result.min_F,
        "max_G": result.max_G,
        "min_E": result.min_E,
    }
    payload = dict(fields)
    if witness is not None:
        payload["witness"] = [list(row) for row in witness.entries]

    def table() -> str:
        lines = [f"{key} = {value}" for key, value in fields.items()]
        if witness is not None:
            lines.append(_matrix_table(witness))
        return "\n".join(lines)

    csv_keys = ("realizable", "count", "min_F", "max_G", "min_E")
    return EXIT_OK, payload, {
        "csv": lambda: _csv({key: fields[key] for key in csv_keys}),
        "table": table,
    }


def _cmd_sweep(args: argparse.Namespace) -> Outcome:
    from .oracle import DEFAULT_BUDGET, sweep

    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    report = sweep(args.n_max, args.d_max, moon_c_max=args.moon_c_max, budget=budget)
    payload = {
        "sequences": report.sequences,
        "by_length": {str(k): v for k, v in report.by_length.items()},
        "comparisons": report.comparisons,
        "mismatches": list(report.mismatches),
    }
    return EXIT_OK if report.clean else EXIT_NEGATIVE, payload, {
        "table": lambda: f"sequences={report.sequences} "
        f"comparisons={report.comparisons} mismatches={len(report.mismatches)}"
        + _indented(report.mismatches),
    }


def _cmd_bench(args: argparse.Namespace) -> Outcome:
    import zlib

    from .construct import mini_max

    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    unknown = set(algorithms) - {"interval-test", "min-f", "minimax"}
    if unknown:
        raise ValueError(f"unknown bench algorithms: {sorted(unknown)}")
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    mm_sizes = [int(s) for s in args.minimax_sizes.split(",") if s.strip()]
    if args.repeats < 1:
        raise ValueError(f"repeats {args.repeats} must be at least 1")
    too_small = [n for n in sizes + mm_sizes if n < 2]
    if too_small:
        raise ValueError(f"bench sizes must be at least 2, got {too_small}")
    _validate_scores((0, 2 * max(sizes + mm_sizes, default=0)))  # before drawing any

    rows = ["algorithm,n,d_max,seed,repeats,best_seconds,input_checksum"]
    for name in algorithms:
        for n in mm_sizes if name == "minimax" else sizes:
            d_max = 2 * n
            D = generate_scores(n, d_max, args.seed)
            if name == "interval-test":
                # the always-feasible window forces a full O(n) pass
                params = IntervalParams(0, 2 * extremal_summary(D).e)
                fn = lambda: interval_test(D, params)
            elif name == "min-f":
                # f comes from the one pass that also takes e and g
                fn = lambda: extremal_summary(D)
            else:
                fn = lambda: mini_max(D)
            best = _best_time(fn, args.repeats)
            rows.append(
                f"{name},{n},{d_max},{args.seed},{args.repeats},"
                f"{best:.6f},{zlib.crc32(repr(D.scores).encode())}"
            )
    return EXIT_OK, None, {"csv": lambda: "\n".join(rows)}


def _add_scores_arguments(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--scores", help="inline scores, comma or space separated")
    group.add_argument("--scores-file", help="file with scores (any separators)")
    sub.add_argument("--format", choices=["json", "csv", "table"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoreseq",
        description="Score sequences of interval tournaments: test, bound, build.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="compute e, f, g and the f-search window")
    _add_scores_arguments(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("test", help="decide realizability for a window [a, b]")
    _add_scores_arguments(p)
    p.add_argument("--a", type=int, required=True, help="minimum pair total")
    p.add_argument("--b", type=int, required=True, help="maximum pair total")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("reconstruct", help="build a witness point matrix")
    _add_scores_arguments(p)
    p.add_argument(
        "--method",
        choices=["naive", "pigeonhole", "minimax"],
        default="minimax",
    )
    p.add_argument("--a", type=int, default=None, help="window floor for the report")
    p.add_argument("--b", type=int, default=None, help="window cap for the report")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("verify", help="check a matrix file against scores")
    _add_scores_arguments(p)
    p.add_argument("--matrix", required=True, help="CSV matrix file")
    p.add_argument("--a", type=int, required=True, help="minimum pair total")
    p.add_argument("--b", type=int, required=True, help="maximum pair total")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustively enumerate realizations")
    _add_scores_arguments(p)
    p.add_argument("--pair-cap", type=int, default=None)
    p.add_argument("--a-floor", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--no-witness", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep", help="cross-check formulas against exhaustion")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--moon-c-max", type=int, default=3)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bench", help="time core operations, output CSV")
    p.add_argument(
        "--algorithms",
        default="interval-test,min-f,minimax",
        help="comma list: interval-test, min-f, minimax",
    )
    p.add_argument("--sizes", default="1000,10000,100000,1000000")
    p.add_argument("--minimax-sizes", default="50,100,200")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=_cmd_bench, format="csv")

    return parser


def run(argv: Sequence[str]) -> int:
    """Run one command and print its answer; no other function prints data."""
    args = build_parser().parse_args(argv)
    try:
        code, payload, renderers = args.func(args)
        if args.format == "json":
            text = json.dumps(payload, sort_keys=True)
        else:
            text = renderers[args.format]()
    except OracleBudgetExceeded as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (TournamentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out, note = text if isinstance(text, tuple) else (text, "")
    try:
        print(out, flush=True)
    except OSError as exc:  # say, a closed pipe
        # point stdout at devnull, so the interpreter's flush at exit cannot
        # fail on the same unwritten output again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if note:
        print(note, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
