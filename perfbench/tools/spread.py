#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median over the
seeds and the distance between the first and third quartile as a share of
the median, next to the metric's bound from BENCHMARK.json. A spread below
a third of the bound is marked "ok".

    python3 perfbench/tools/spread.py --workloads engine_co,serve_mixed \
        --seeds 1-5 [--seconds 15] [--trace 0]

Run it from the repository root after building the benchmark once
(cargo build --release --manifest-path perfbench/Cargo.toml).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "perfbench", "target"))
    binary = os.path.join(ROOT, target, "release", "skyline-perfbench")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = [binary, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            if res.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {res.returncode}\n{res.stderr}")
            result = json.loads(res.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            share = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = "" if bound is None else ("ok" if share < bound / 3 else "WIDE")
            print(f"{workload:<14} {name:<36} median {med:>14.6f} spread {share:7.3f}"
                  f" bound {bound if bound is not None else '-':>5} {verdict}", flush=True)


if __name__ == "__main__":
    main()
