"""Run one workload over seeds 1-10 and report each end-to-end metric's
median and quartile spread (Q3 − Q1 as a share of the median).

    python3 perfbench/spread.py --workload chain-decompose

Run from the repository root.  Reads `run_seconds` and the bounds from
BENCHMARK.json and marks a spread that is not below a third of its
bound.  Every run's result line is echoed, so the runs can be kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in SEEDS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - start
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({wall:.1f} s): {json.dumps(result)}", flush=True)
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        s, bound = spread(vals), bounds[name]
        flag = "" if s < bound / 3 else "  <-- not below bound/3"
        print(f"{name:<14} median {statistics.median(vals):.6g}  spread {s:.4f}"
              f"  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
