"""Run every workload once untraced and once traced; print and record the results.

    python3 perfbench/baseline.py --seed 1 --seconds 30 [--out perfbench/baseline.json]

Each run is a separate `run.py` process, so peak RSS is per workload. The
record keeps, per workload, the request-list hash, the environment line,
the end-to-end metrics, the fail ratio, and the traced per-layer metrics
with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    info = dict(kv.split("=", 1) for kv in lines[0].split())
    return {
        "request_list_sha256": info["request_list_sha256"],
        "environment": json.loads(lines[1].split(" ", 1)[1]),
        "report": lines[2:-1],
        "result": json.loads(lines[-1]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", help="write the record to this JSON file")
    args = parser.parse_args()
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in workloads.NAMES:
        untraced = run(name, args.seed, args.seconds, 0)
        traced = run(name, args.seed, args.seconds, 1)
        res = untraced["result"]
        print(f"== {name}  requests sha256 {untraced['request_list_sha256']}")
        print(f"   fail_ratio {res['failed']}/{res['attempted']}")
        for metric, m in res["metrics"].items():
            print(f"   {metric:<16} {m['value']:12.4f} {m['unit']}")
        layer = traced["result"]["metrics"]
        print(f"   tracing overhead {layer['trace.overhead_pct']['value']:.1f}% "
              f"({layer['trace.untraced_throughput_rps']['value']:.3f} -> "
              f"{layer['trace.throughput_rps']['value']:.3f} rps)")
        record["workloads"][name] = {"untraced": untraced, "traced": traced}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
