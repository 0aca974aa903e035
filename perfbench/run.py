#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload paper-batch|lu-250k|scheduld-open \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/main.exe with
dune, runs the workload, and passes the program's output through; the
last line is the JSON result (see README.md).  It exits non-zero,
without a result, when the sources or the build are missing or the run
fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("paper-batch", "lu-250k", "scheduld-open")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no onesched sources here: run from the root of a checkout")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    # scheduld-open runs the daemon and its client on one CPU, so the
    # client's calibration kernel sees the daemon's host speed (README.md).
    cpu = min(os.sched_getaffinity(0))
    pin = (lambda: os.sched_setaffinity(0, {cpu})) \
        if args.workload == "scheduld-open" else None
    # Own process group, so a timeout also stops scheduld-open's daemon.
    proc = subprocess.Popen(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
        preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last output line is not the JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("the result line has the wrong keys")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
