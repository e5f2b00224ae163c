#!/usr/bin/env python3
"""Run one workload of the repo benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of the workloads in BENCHMARK.json, or "all" to run each in
turn (exit status 1 if any run fails a check).

Run it from the root of a checkout.  It builds the benchmark and the
daemon from source with dune, measures the machine's effective
parallelism, places the processes, then runs perfbench/bench.exe, whose
last line of standard output is the result.  Every workload but
solve-exact runs pinned to one CPU, the online ones with client and
daemon together: unpinned, the scheduler's placement moves online
throughput by a factor of three between runs.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("online-mem", "online-durable", "solve-exact", "solve-approx")
BENCH = "_build/default/perfbench/bench.exe"
SERVED = "_build/default/bin/dsp_served.exe"


def stop_group(pgid):
    """Kill whatever the run left in its process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("perfbench: run from the root of a checkout (no dune-project, lib/ or bin/ here)",
              file=sys.stderr)
        return 2
    # no shared dune cache: the build reads and writes only the checkout
    build = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                            "./perfbench/bench.exe", "./bin/dsp_served.exe"], stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cpus = sorted(os.sched_getaffinity(0))
    probe = subprocess.run([BENCH, "probe"], capture_output=True, text=True, check=True)
    domains, parallelism = probe.stdout.split()
    failed = False
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        # solve-exact runs the parallel search on every CPU; the other
        # workloads are single-threaded per process and run on one CPU.
        if workload == "solve-exact":
            os.sched_setaffinity(0, cpus)
            placement = f"unpinned-over-{len(cpus)}-cpus"
        else:
            os.sched_setaffinity(0, {cpus[0]})
            who = "client+daemon" if workload.startswith("online") else "solver"
            placement = f"{who}-pinned-to-cpu{cpus[0]}"
        cmd = [BENCH, "run", "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--served", SERVED,
               "--nproc", str(len(cpus)), "--domains", domains, "--parallelism", parallelism,
               "--placement", placement]
        child = subprocess.Popen(cmd, start_new_session=True)
        try:
            failed |= child.wait() != 0
        finally:
            stop_group(child.pid)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
