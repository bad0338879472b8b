"""Run the benchmark over workloads and seeds and print every metric by name and unit.

Usage, from the root of a scoreseq checkout:

    python3 perfbench/report.py [--workloads a,b] [--seeds 1,2,3] [--trace 0|1]
                                [--seconds S]

Runs ``perfbench/run.py`` once per workload and seed, one at a time, and
prints per workload and metric the median over seeds, the quartile spread
(Q3 - Q1) / median as ``statistics.quantiles(values, n=4)`` gives them, and
the metric's bound from ``BENCHMARK.json``.  ``failed_ratio`` is failed ops
over attempted ops, summed over the runs.  Every run's raw result is written
to ``.perfbench_out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    raw = []
    status = 0
    for name in args.workloads.split(","):
        results = []
        for seed in seeds:
            cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            raw.append({"workload": name, "seed": seed, "info": info, "result": result})
            results.append(result)
            if not result["correct"]:
                status = 1
        if not results:
            continue
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{name}: {len(results)} runs, failed_ratio {failed / attempted:.6g} "
              f"({failed}/{attempted}), correct {all(r['correct'] for r in results)}")
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            bound = bounds.get(metric)
            s = spread(values)
            note = "" if bound is None else f"  bound {bound:g}" + (
                "" if s < bound / 3 else "  (spread >= bound/3)")
            print(f"  {metric:42s} {statistics.median(values):12.6g} "
                  f"{first['unit']:6s} spread {s:.4f}{note}")

    out = ROOT / ".perfbench_out" / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
