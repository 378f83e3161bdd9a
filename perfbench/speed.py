"""How fast the machine runs now, read from a fixed pure-Python kernel.

A shared machine drifts in speed by a fifth or more over minutes, and flips
between fast and slow stretches within seconds.  A round's slowdown is the
kernel's mean CPU time while the round ran, over its CPU time on the
reference machine at full speed (see README.md).  Dividing the round's
times by it keeps that drift from reading as a change in the program.

Run as a script, this is the sampler: it prints ``started``, times the
kernel every SAMPLE_PERIOD_S until a line arrives on stdin or stdin closes,
and prints the times as one JSON list.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time

KERNEL_REFERENCE_S = 1.5e-3
SAMPLE_PERIOD_S = 0.1
PROBE_SAMPLES = 50


def kernel_s() -> float:
    """CPU time of one pass of the kernel."""
    start = time.process_time()
    x = 0
    for i in range(20000):
        x = (x + i * i) % 1000003
    return time.process_time() - start


def slowdown(times) -> float:
    return statistics.fmean(times) / KERNEL_REFERENCE_S


def start_sampler() -> subprocess.Popen:
    """Start the sampler and wait until it runs, so that its interpreter
    start does not overlap the work it measures."""
    proc = subprocess.Popen(
        [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    proc.stdout.readline()
    return proc


def stop_sampler(proc: subprocess.Popen) -> float:
    """Stop the sampler, wait for it to end, and return the slowdown."""
    out, _ = proc.communicate("stop\n")
    return slowdown(json.loads(out))


def _sample():
    print("started", flush=True)
    times = [kernel_s()]
    while not select.select([sys.stdin], [], [], SAMPLE_PERIOD_S)[0]:
        times.append(kernel_s())
    print(json.dumps(times), flush=True)


if __name__ == "__main__":
    _sample()
