#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload, untraced
and traced, must print every metric BENCHMARK.json names, with its unit,
and report no failure.

    python3 perfbench/smoke.py

Run it from the root of a checkout; it takes a few minutes.
"""

import json
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace)]
            run = subprocess.run(cmd, capture_output=True, text=True)
            label = f"{w['name']} --trace {trace}"
            before = len(bad)
            if run.returncode != 0:
                bad.append(f"{label}: exit code {run.returncode}: {run.stderr[-500:]}")
                continue
            result = json.loads(run.stdout.strip().split("\n")[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                bad.append(f"{label}: metrics {sorted(got)} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0:
                bad.append(f"{label}: failed {result['failed']} of {result['attempted']}")
            verdict = "ok" if len(bad) == before else "FAILED"
            print(f"{verdict} {label}: {result['attempted']} attempted, "
                  f"failed_frac {result['failed'] / result['attempted']:g}",
                  flush=True)
    for b in bad:
        print("FAIL", b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
