"""Run one workload of the scoreseq benchmark and print its metrics as JSON.

Usage, from the root of a scoreseq checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the library in a closed loop from this single-threaded
process: each op starts when the previous one returns, cycling over a pool
of inputs built from the seed (see ``workloads.py``).  The first answer for
each input is checked in full right after its op returns, outside the timed
region; every later answer must equal it.  The workload's ``scoreseq``
command is also run as whole processes, one at a time, and its JSON
compared with the in-process answer.

``--trace 0`` prints the end-to-end metrics: set-up time, throughput, op
latency, CLI latency and peak RSS.  Every time is taken per input as its
fastest repeat, then aggregated over the inputs: on a shared host,
neighbours' load only ever adds time, and the fastest of many repeats is
what repeats from run to run.  ``--trace 1`` runs each input untraced
and then traced, records spans around the library's public functions
(``tracer.py``), writes them to ``.perfbench_out/`` and prints the
per-layer metrics.  The last line of stdout is always the result object;
the line before it describes the run (sizes, samples, digest of answers).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
PINNED = HERE / "expected_digests.json"

MIN_REPEATS = 5  # every input runs at least this often, timed
CHILD_INPUTS = 4  # inputs that set-up and the CLI runs cycle over
SETUP_REPEATS = 8  # fresh set-up processes per input
CLI_REPEATS = 24  # CLI processes per input (2 per input when traced)
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def best_of(samples) -> list[float]:
    """Each input's fastest time, in input order, from (input, seconds) pairs."""
    best: dict[int, float] = {}
    for i, seconds in samples:
        best[i] = min(seconds, best.get(i, seconds))
    return [best[i] for i in sorted(best)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Run:
    """State of one benchmark run: the pool, its checked answers and the tally."""

    def __init__(self, workload, pool, scratch: Path):
        self.w = workload
        self.pool = pool
        self.scratch = scratch
        self.verified: list = [None] * len(pool)
        self.checked: set[int] = set()
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: {self.w.name}: {what}", file=sys.stderr)

    def settle(self, i: int, out) -> None:
        """Check an op's output for input i, outside any timed region.

        The first output for an input is checked in full and kept; every
        later one must equal it.
        """
        ans = self.w.answer(out)
        if i not in self.checked:
            self.checked.add(i)
            problems = self.w.check(self.pool[i], ans)
            if problems:
                self.fail(f"input {i}: {'; '.join(problems)}")
            else:
                self.verified[i] = ans
        elif self.verified[i] is None or ans != self.verified[i]:
            self.fail(f"op on input {i} gave an unchecked or different answer")

    def attempt(self, i: int, tracer=None, op_id: int = 0) -> float | None:
        """Run one op on input i, traced if a tracer is given, then settle it.

        Returns its latency in seconds, or None if it raised.
        """
        self.attempted += 1
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                with tracer.op(op_id) if tracer else contextlib.nullcontext():
                    out = self.w.op(self.pool[i])
                elapsed = time.perf_counter() - start
            self.settle(i, out)
        except Exception:
            self.fail(f"op on input {i} raised:\n{traceback.format_exc()}")
            return None
        return elapsed

    def loop(self, seconds: float, min_ops: int, tracer=None, side=()):
        """Closed loop for `seconds` and at least `min_ops` ops.

        Returns (input, latency in seconds) pairs of the untraced and of
        the traced ops.  With a tracer, each input runs twice in a row, once
        untraced and once traced, which goes first alternating, so that both
        see the same machine and caches.  The `side` tasks (set-up and CLI
        runs) run between ops, spread evenly over the `seconds`, for the
        same reason; they are not timed as ops.
        """
        latencies = ([], [])
        step = 1 if tracer is None else 2
        begin = time.perf_counter()
        deadline = begin + seconds
        n = done = 0
        while n < min_ops or time.perf_counter() < deadline or done < len(side):
            if done < len(side) and time.perf_counter() >= begin + done * seconds / len(side):
                side[done]()
                done += 1
                continue
            traced = tracer is not None and (n + n // 2) % 2 == 1
            elapsed = self.attempt((n // step) % len(self.pool),
                                   tracer if traced else None, n // step)
            if elapsed is not None:
                latencies[traced].append(((n // step) % len(self.pool), elapsed))
            n += 1
        return latencies

    def item_file(self, i: int, suffix: str) -> Path:
        path = self.scratch / f"input{i}.{suffix}"
        if not path.exists():
            item = self.pool[i]
            text = json.dumps(item) if suffix == "json" else ",".join(map(str, item))
            path.write_text(text, encoding="utf-8")
        return path

    def prime(self) -> None:
        """Untimed first ops on the inputs that set-up and the CLI runs use.

        This checks their answers before those runs compare against them.
        """
        for i in range(min(CHILD_INPUTS, len(self.pool))):
            self.attempt(i)

    def setup(self, k: int, times: list[tuple[int, float]]) -> None:
        """One fresh process: import scoreseq plus the first op, timed inside it."""
        from workloads import digest

        i = k % min(CHILD_INPUTS, len(self.pool))
        argv = [sys.executable, str(HERE / "setup_child.py"), self.w.name,
                str(self.item_file(i, "json"))]
        self.attempted += 1
        proc = subprocess.run(argv, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            self.fail(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
            return
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            self.fail(f"set-up process printed no result: {proc.stdout[-2000:]!r}")
            return
        if self.verified[i] is None or result["answer"] != digest([self.verified[i]]):
            self.fail("set-up process gave a different answer")
        else:
            times.append((i, result["seconds"]))

    def cli_argv(self, i: int) -> list[str]:
        return self.w.cli_argv(self.pool[i], str(self.item_file(i, "txt")))

    def cli_check(self, i: int, code: int, stdout: str) -> None:
        if code != 0:
            self.fail(f"CLI on input {i} exited {code}")
            return
        try:
            answer = json.loads(stdout)
        except ValueError:
            answer = None
        if self.verified[i] is None or answer != self.verified[i]:
            self.fail(f"CLI on input {i} printed a different answer")

    def cli_process(self, k: int, times: list[tuple[int, float]]) -> None:
        """The workload's command as a whole process; wall time, spawn to exit."""
        i = k % min(CHILD_INPUTS, len(self.pool))
        argv = [sys.executable, "-m", "scoreseq.cli", *self.cli_argv(i)]
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        times.append((i, time.perf_counter() - start))
        self.cli_check(i, proc.returncode, proc.stdout)

    def cli_in_process(self, k: int, times: list[tuple[int, float]], tracer) -> None:
        """The same command as a traced in-process ``cli.run(argv)``."""
        from scoreseq import cli

        i = k % min(CHILD_INPUTS, len(self.pool))
        argv = self.cli_argv(i)
        self.attempted += 1
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with tracer.installed(), tracer.op(-1 - k), contextlib.redirect_stdout(buf):
                code = cli.run(argv)
        except Exception:
            self.fail(f"cli.run on input {i} raised:\n{traceback.format_exc()}")
            return
        times.append((i, time.perf_counter() - start))
        self.cli_check(i, code, buf.getvalue())


def end_to_end(run: Run, seconds: int) -> dict:
    setup, cli_times = [], []
    side = []
    every = CLI_REPEATS // SETUP_REPEATS
    for k in range(CLI_REPEATS * CHILD_INPUTS):
        side.append(functools.partial(run.cli_process, k, cli_times))
        if k % every == 0:
            side.append(functools.partial(run.setup, k // every, setup))
    latencies, _ = run.loop(seconds, MIN_REPEATS * len(run.pool), side=side)
    best = best_of(latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info = {"samples": len(latencies), "setup_samples": len(setup),
            "cli_samples": len(cli_times),
            "all_ops_p50_ms": 1000 * statistics.median(t for _, t in latencies)}
    metrics = {
        "setup_s": (statistics.median(best_of(setup)), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (1000 * statistics.median(best), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(best, n=10, method="inclusive")[8], "ms"),
        "cli_p50_ms": (1000 * statistics.median(best_of(cli_times)), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return metrics, info


def per_layer(run: Run, seconds: int, trace_path: Path) -> dict:
    from tracer import SPAN_NAMES, Tracer

    tracer = Tracer()
    cli_times, cli_in_process = [], []
    side = []
    for k in range(2 * CHILD_INPUTS):
        side.append(functools.partial(run.cli_process, k, cli_times))
        side.append(functools.partial(run.cli_in_process, k, cli_in_process, tracer))
    # every input traced at least once, so per-input counts cover the pool
    untraced, traced = run.loop(seconds, 2 * len(run.pool), tracer, side)

    table = tracer.per_op()
    n_ops = len(traced)
    ops = [table[j] for j in range(n_ops)]
    cli_ops = [table[-1 - k] for k in range(len(cli_in_process))]
    pool_size = len(run.pool)

    def per_input(name: str, field: int) -> float:
        """Exact per-input count: mean over the pool of each input's count.

        Every later op on the same input must repeat it; a difference means
        the program is not deterministic, and fails the run.
        """
        counts = [ops[i][name][field] for i in range(pool_size)]
        for j in range(pool_size, n_ops):
            if ops[j][name][field] != counts[j % pool_size]:
                run.fail(f"{name} count differs between ops on input {j % pool_size}")
        return sum(counts) / pool_size

    metrics = {}
    for name in SPAN_NAMES:
        rows = cli_ops if name == "cli.run" else ops
        metrics[f"{name}.self_ms"] = (sum(r[name][1] for r in rows) / len(rows) / 1e6, "ms")
    for name in ("analysis.interval_test", "construct.score_slicing",
                 "oracle.enumerate_extremes"):
        metrics[f"{name}.calls"] = (per_input(name, 0), "count")
    realizations = per_input("oracle.enumerate_extremes", 2)
    metrics["oracle.enumerate_extremes.realizations"] = (realizations, "count")
    dfs_calls = metrics["oracle.enumerate_extremes.calls"][0]
    sequences = per_input("oracle.sweep", 2)
    metrics["oracle.useful_ratio"] = (sequences / dfs_calls if dfs_calls else 0.0, "ratio")
    metrics["cli.startup_ms"] = (1000 * (statistics.median(best_of(cli_times))
                                         - statistics.median(best_of(cli_in_process))), "ms")
    metrics["trace.overhead_ratio"] = (sum(best_of(untraced)) / sum(best_of(traced)), "ratio")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    info = {"samples": n_ops, "untraced_samples": len(untraced),
            "cli_samples": len(cli_times), "spans": len(tracer.spans),
            "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scoreseq" / "__init__.py").is_file():
        print(f"perfbench: no src/scoreseq under {ROOT}; run from the root of a "
              "scoreseq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scoreseq

    if SRC.resolve() not in Path(scoreseq.__file__).resolve().parents:
        print(f"perfbench: imported scoreseq from {scoreseq.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    pool = workloads.make_pool(args.workload, args.seed)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workloads.WORKLOADS[args.workload], pool, scratch)
        run.prime()
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}.jsonl"
            metrics, info = per_layer(run, args.seconds, trace_path)
        else:
            metrics, info = end_to_end(run, args.seconds)
    except (statistics.StatisticsError, ZeroDivisionError):
        print(f"perfbench: {run.failed} of {run.attempted} attempts failed, too few "
              "samples left to report", file=sys.stderr)
        return 1
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()

    digest = workloads.digest(run.verified)
    pinned = json.loads(PINNED.read_text()).get(args.workload, {}).get(str(args.seed))
    digest_ok = pinned is None or pinned == digest
    if not digest_ok:
        print(f"perfbench: answers changed: digest {digest}, pinned {pinned}",
              file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "model": "closed loop, 1 client, no think time",
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "inputs": run.w.sizes,
        "digest": digest, "digest_pinned": pinned is not None,
        "failed_ratio": run.failed / run.attempted, **info,
    }))
    print(json.dumps({
        "correct": run.failed == 0 and digest_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
