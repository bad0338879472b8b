"""Measure one set-up in a fresh process: ``import scoreseq`` plus the first op.

Usage: python3 perfbench/setup_child.py WORKLOAD INPUT_JSON

The checkout's ``src`` must be on PYTHONPATH.  Reading the input file is
not timed.  Prints one JSON line with the elapsed seconds and the digest of
the op's answer, which the parent compares with its own.
"""

import json
import sys
import time

name, path = sys.argv[1:3]
with open(path, encoding="utf-8") as fh:
    item = json.load(fh)

start = time.perf_counter()
import workloads  # noqa: E402  (imports scoreseq: the import is part of set-up)

workload = workloads.WORKLOADS[name]
out = workload.op(item)
elapsed = time.perf_counter() - start

print(json.dumps({"seconds": elapsed, "answer": workloads.digest([workload.answer(out)])}))
