"""One round of one workload, in a process of its own.

run.py starts this script once per round, with the package's ``src`` on
PYTHONPATH, and reads the JSON line it prints last.  Times are stamps of
the system-wide monotonic clock, so run.py can subtract its own stamp taken
just before it started the process: that difference is the set-up time
(interpreter start, imports, building the workload's inputs).

The round also reports the machine's slowdown while it ran (speed.py):
measured in the same process right after set-up for a set-up probe, and
by a sampler process while the work runs for a round.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import checks
import speed
from workloads import WORKLOADS


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s() -> float:
    """CPU time of this process and of its workers that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process or any one of its workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workers, args.workdir)
    tracer = missing = None
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        missing = instrument(tracer)
    ready = _now()
    if args.setup_only:
        slowdown = speed.slowdown([speed.kernel_s() for _ in range(speed.PROBE_SAMPLES)])
        print(json.dumps({"ready": ready, "slowdown": slowdown}))
        return 0

    if args.workers == 1:
        # one process does all the work: keep it and the sampler, which
        # inherits the mask, on one core, so the sampler reads that core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = speed.start_sampler()
    try:
        cpu0 = _cpu_s()
        start = _now()
        outputs = workload.run()
        end = _now()
        cpu_s = _cpu_s() - cpu0  # before the sampler is reaped, so without it
    finally:
        slowdown = speed.stop_sampler(sampler)
    summary = checks.summarize(
        workload.ops(outputs), workload.expected_ops, workload.known_faults
    )
    import numpy

    record = {
        "ready": ready,
        "slowdown": slowdown,
        "wall_s": end - start,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "seasons": workload.seasons,
        "numpy": numpy.__version__,
        **summary,
    }
    if tracer is not None:
        from tracer import layer_metrics

        record["layers"] = layer_metrics(tracer)
        record["missing_sites"] = missing
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
