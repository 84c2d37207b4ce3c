"""Op timings scaled to a reference CPU speed.

The benchmark runs on shared virtual CPUs whose speed swings by +-30%
within seconds (another tenant on the same core), which would swamp any
regression bound on raw wall times.  So a fixed reference task runs right
before every timed op, on the same pinned CPU, and the op's wall time is
multiplied by (the task's reference time / its wall time just now): the
op's time on a CPU where the task takes its reference time.  The reference
tasks are part of the benchmark, never of the package, so they are the same
on every commit.

Two tasks, because the slow phases slow different work by different
amounts: a pure-Python loop tracks ops inside a warm interpreter, and the
start of a bare interpreter tracks ops that start a process (the cold CLI,
worker set-up).  Across 5-6 s blocks on the machine below, the loop kept
calibrated warm op times within about +-4% and the bare interpreter kept
cold-CLI op times within about +-4%, where the loop alone left cold-CLI
times drifting by +-12% and raw times moved by +-30%.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# wall times of the two tasks on an undisturbed core of the 2-vCPU x86-64 VM
# (Python 3.11) on which the benchmark was defined, so calibrated times read
# as that machine's milliseconds
LOOP_REF_MS = 0.75
SPAWN_REF_MS = 9.0


def calibration_loop() -> int:
    acc, table, z = 0, {}, 0.3 + 0.4j
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
        z = z * z * 0.5 + 0.1j
        if abs(z) > 2:
            z = 0.3 + 0.4j
    return acc


def loop_factor() -> float:
    """LOOP_REF_MS over the calibration loop's wall time right now."""
    t0 = time.perf_counter()
    calibration_loop()
    return LOOP_REF_MS / (1e3 * (time.perf_counter() - t0))


def spawn_factor() -> float:
    """SPAWN_REF_MS over the wall time of `python -S -c pass` right now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return SPAWN_REF_MS / (1e3 * (time.perf_counter() - t0))


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so a worker's
    calibration and the CLI children it spawns see the same core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
