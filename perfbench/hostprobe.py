"""Contention probe: times a fixed numpy kernel on one CPU until SIGTERM.

Usage: python3 hostprobe.py CPU

The benchmark pins itself and this probe to the same CPU. Other tenants of
a shared host slow both alike, so the probe's mean kernel time over a timed
pass measures how much that pass was slowed. On SIGTERM the probe prints
one JSON list of [monotonic start ns, CPU ns] pairs and exits.
"""

import json
import os
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.02      # one sample every 20 ms takes about 5% of the CPU


def main(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    rng = np.random.default_rng(0)
    a, x, w = rng.random((64, 64)), rng.random((257, 16)), rng.random((16, 16))
    samples = []
    while not stopped:
        start, began = time.monotonic_ns(), time.thread_time_ns()
        for _ in range(60):
            np.exp(x @ w)
            a @ a
        # CPU time, so that time-slices lost to the benchmark do not count
        samples.append((start, time.thread_time_ns() - began))
        time.sleep(PERIOD_S)
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main(int(sys.argv[1]))
