"""Spans around the library's public functions, recorded from outside ``src/``.

``Tracer.install`` replaces each traced function with a wrapper wherever
its callers look it up: every ``scoreseq`` module attribute bound to that
function object (so ``scoreseq.analysis.interval_test`` and
``scoreseq.oracle.interval_test`` are both covered), and the class
attribute for ``PointMatrix.from_rows``.  ``uninstall`` puts the originals
back.

A span is recorded only while an op is open (``Tracer.op``), so the
benchmark's own checks never show up.  Spans stay in memory as
``(name, start_ns, end_ns, parent, op_id, value)`` tuples, where ``parent``
is the index of the enclosing span (-1 for the op itself) and ``value`` is a
count carried by the result (realizations for ``enumerate_extremes``,
sequences for ``sweep``).  Self time is a span's duration minus that of its
direct children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import scoreseq
from scoreseq import analysis, cli, construct, core, oracle

MODULES = (scoreseq, core, analysis, construct, oracle, cli)

# (span name, module that defines it, attribute, result -> carried count)
TRACED = (
    ("core.normalize_sequence", core, "normalize_sequence", None),
    ("core.verify_realization", core, "verify_realization", None),
    ("core.matrix_stats", core, "matrix_stats", None),
    ("analysis.interval_test", analysis, "interval_test", None),
    ("analysis.min_f", analysis, "min_f", None),
    ("analysis.max_g", analysis, "max_g", None),
    ("analysis.extremal_summary", analysis, "extremal_summary", None),
    ("construct.mini_max", construct, "mini_max", None),
    ("construct.score_slicing", construct, "score_slicing", None),
    ("oracle.sweep", oracle, "sweep", lambda r: r.sequences),
    ("oracle.enumerate_extremes", oracle, "enumerate_extremes", lambda r: r.count),
    ("cli.run", cli, "run", None),
)
FROM_ROWS = "core.PointMatrix.from_rows"
SPAN_NAMES = tuple(name for name, *_ in TRACED) + (FROM_ROWS,)
SPAN_FIELDS = ["name", "start_ns", "end_ns", "parent", "op", "value"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, value_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = time.perf_counter_ns()
            value = 0
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op_id, value)

        return traced

    def install(self) -> None:
        for name, module, attr, value_of in TRACED:
            original = getattr(module, attr, None)
            if original is None:
                print(f"perfbench: {name} not found; its metrics read 0", file=sys.stderr)
                continue
            wrapper = self._wrap(name, original, value_of)
            for mod in MODULES:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapper)
        raw = core.PointMatrix.__dict__["from_rows"]
        self._restore.append((core.PointMatrix, "from_rows", raw))
        core.PointMatrix.from_rows = classmethod(self._wrap(FROM_ROWS, raw.__func__, None))

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextmanager
    def op(self, op_id: int):
        """Open the root span of one op; library spans inside it get op_id."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._op_id = op_id
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._op_id = None
            self._stack.pop()
            self.spans[idx] = ("op", start, end, -1, op_id, 0)

    def self_ns(self) -> list[int]:
        """Self time of every span, by index."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def per_op(self) -> dict[int, dict[str, list[int]]]:
        """op_id -> span name -> [calls, self_ns, summed value]."""
        table: dict[int, dict[str, list[int]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0, 0])
        )
        for span, own in zip(self.spans, self.self_ns()):
            name, _, _, _, op_id, value = span
            row = table[op_id][name]
            row[0] += 1
            row[1] += own
            row[2] += value
        return table

    def write(self, path) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
