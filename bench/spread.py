"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads factor,cyclo --seeds 1-10 [--seconds 20]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, next to the bound in BENCHMARK.json.
The raw results go to .bench_out/spread-<workload>-<seeds>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def seeds_from(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="factor,cyclo,divisors,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".bench_out", exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            runs.append(json.loads(out.strip().splitlines()[-1]))
        with open(os.path.join(".bench_out", f"spread-{workload}-{args.seeds}.json"), "w") as fh:
            json.dump(runs, fh)
        shares = {(r["failed"], r["attempted"]) for r in runs}
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted={sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:16s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / median:6.3f}  bound {bound}")


if __name__ == "__main__":
    main()
