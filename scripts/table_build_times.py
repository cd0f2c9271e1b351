#!/usr/bin/env python3
"""Cold and warm build times of ``hamilton._cycle_table``, one row per order.

Usage, from the root of a checkout:

    python3 scripts/table_build_times.py --orders 8 9 10 --samples 5

Each order gets a fresh interpreter that imports ``nonham.hamilton`` from this
checkout's ``src``.  It forks ``--samples`` children, as perfbench forks one
per sweep spec, and a child's first ``_cycle_table(n)`` is a cold build; the
growth of the child's ``ru_maxrss`` across it is the build's peak memory.
The interpreter then builds the table ``WARM`` + 1 times past the cache,
and the fastest build after the first is the warm build.  A row gives the
cold builds' median and range, the warm build, and the median peak growth.
No figure is asserted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WARM = 5

CHILD = """
import json, os, resource, sys, time
from nonham.hamilton import _cycle_table
n, samples, warm = map(int, sys.argv[1:])
cold = []
for _ in range(samples):
    read, write = os.pipe()
    if not os.fork():
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        _cycle_table(n)
        took = time.perf_counter() - start
        grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss
        os.write(write, json.dumps([took * 1e3, grew]).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        cold.append(json.load(pipe))
    os.wait()
builds = []
for _ in range(warm + 1):
    start = time.perf_counter()
    _cycle_table.__wrapped__(n)
    builds.append((time.perf_counter() - start) * 1e3)
print(json.dumps({"cold": cold, "warm_ms": min(builds[1:])}))
"""


def measure(n: int, samples: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", CHILD, str(n), str(samples), str(WARM)]
    return json.loads(subprocess.run(argv, env=env, check=True, capture_output=True,
                                     text=True).stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--orders", type=int, nargs="+", default=[8, 9])
    parser.add_argument("--samples", type=int, default=5, help="forked cold builds per order")
    args = parser.parse_args()
    print(f"# Python {platform.python_version()}, {platform.machine()}, {os.cpu_count()} CPUs")
    print("order  cold ms (median, min-max)   warm ms   peak +MB")
    for n in args.orders:
        run = measure(n, args.samples)
        cold = [took for took, _ in run["cold"]]
        grew = statistics.median(kb for _, kb in run["cold"]) / 1024
        print(f"{n:5d}  {statistics.median(cold):7.2f} ({min(cold):.2f}-{max(cold):.2f})"
              f"{run['warm_ms']:16.2f}{grew:11.1f}")


if __name__ == "__main__":
    main()
