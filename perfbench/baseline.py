"""Repeat the benchmark over seeds and summarize it, as BASELINE.json records.

    python3 perfbench/baseline.py [WORKLOAD ...] > summary.json

For each workload (default: all in BENCHMARK.json): ten untraced runs
(seeds 1..10), then two traced runs (seeds 1 and 2), each run_seconds
long.  Prints one JSON document: per workload and
end-to-end metric the ten values, their median, quartiles and spread
(interquartile distance over median, as `statistics.quantiles(n=4)`
gives the quartiles); per workload the traced per-layer figures of both
traced runs; and every run's correct/attempted/failed.  Runs one process
at a time, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]

    doc = {"run_seconds": seconds, "workloads": {}}
    for name in names:
        runs = [one_run(name, seed, seconds, 0) for seed in SEEDS]
        traced = [one_run(name, seed, seconds, 1) for seed in (1, 2)]
        doc["workloads"][name] = {
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "runs": [{k: r[k] for k in ("correct", "attempted", "failed")} for r in runs + traced],
            "per_layer": {
                m["name"]: [t["metrics"][m["name"]]["value"] for t in traced] for m in spec["per_layer"]
            },
        }
        print(f"{name}: done", file=sys.stderr, flush=True)
    json.dump(doc, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
