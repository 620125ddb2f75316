#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per end-to-end metric,
the median and the interquartile distance as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound.

    python3 perfbench/spread.py offload_zvc 1 2 3 4 5

Run from the repository root. The binary is built once with cargo; the
seeds run one after another.
"""
import json
import statistics
import subprocess
import sys


def main():
    workload, seeds = sys.argv[1], sys.argv[2:] or ["1", "2", "3", "4", "5"]
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", seed,
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"], result
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    for name, v in values.items():
        q1, q2, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else 0.0
        flag = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"{workload:<16} {name:<18} median {med:14.6g} spread {spread:7.4f} bound {bounds[name]:.2f} {flag}")


if __name__ == "__main__":
    main()
