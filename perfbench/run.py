"""Benchmark of the dynpricing package: three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Without tracing, the run starts a few set-up probes and then whole rounds
of the workload, each in a fresh process with as many workers as this
machine has cores, until the rounds have measured ``--seconds``.  It prints
the end-to-end metrics: set-up time as a median, the rest over the rounds.  With ``--trace 1`` it
alternates an untraced and a traced round, both in a single process, and
prints per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object; a record of the run goes to
perfbench/records/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
RUN_LIMIT_S = 175.0  # a run, with every process it starts, ends within this
RUN_BUDGET_S = 150.0  # start no round that would likely end after this


class RoundFailed(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_round(workload, seed, workers, deadline, *, trace=False, setup_only=False):
    """Run one round to its end or to ``deadline``; returns (spawn stamp,
    the round's JSON record)."""
    workdir = HERE / ".work" / f"round-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(workdir)  # keeps the program's temporary files in the checkout
    cmd = [
        sys.executable, str(HERE / "round.py"), "--workload", workload,
        "--seed", str(seed), "--workers", str(workers), "--workdir", str(workdir),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    spawned = _now()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - spawned, 0.0))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} round did not end within {RUN_LIMIT_S} s of the run")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round exited {proc.returncode}")
    return spawned, json.loads(lines[-1])


def measure(workload, seed, seconds, workers, start):
    """Untraced run: set-up probes, then whole rounds until ``seconds``."""
    deadline = start + RUN_LIMIT_S
    setups = []  # (measured set-up time, slowdown of its process)
    for _ in range(SETUP_PROBES):
        spawned, rec = _run_round(workload, seed, workers, deadline, setup_only=True)
        setups.append((rec["ready"] - spawned, rec["slowdown"]))
    rounds = []
    while not rounds or (
        sum(r["wall_s"] for r in rounds) < seconds
        and _now() - start + rounds[-1]["wall_s"] + setups[-1][0] < RUN_BUDGET_S
    ):
        spawned, rec = _run_round(workload, seed, workers, deadline)
        setups.append((rec["ready"] - spawned, rec["slowdown"]))
        rounds.append(rec)
    # Times are in reference seconds: each is divided by the slowdown
    # measured with it (speed.py).  They are totals over the rounds rather
    # than medians of rounds, since the machine also flips between fast and
    # slow stretches within seconds, which would make a median of short
    # rounds jump from one mode to the other.
    wall = sum(r["wall_s"] / r["slowdown"] for r in rounds)
    metrics = {
        "setup_s": (statistics.median(t / slowdown for t, slowdown in setups), "s"),
        "wall_s": (wall / len(rounds), "s"),
        "seasons_per_s": (sum(r["seasons"] for r in rounds) / wall, "1/s"),
        "cpu_s": (statistics.fmean(r["cpu_s"] / r["slowdown"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    measured = {
        "setup_s": statistics.median(t for t, _ in setups),
        "wall_s": statistics.fmean(r["wall_s"] for r in rounds),
        "cpu_s": statistics.fmean(r["cpu_s"] for r in rounds),
    }
    return metrics, rounds, {"setup_samples": setups, "measured": measured}


def measure_traced(workload, seed, seconds, start):
    """Traced run: pairs of untraced and traced single-process rounds."""
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    while not traced or (
        sum(r["wall_s"] for r in plain + traced) < seconds
        and _now() - start + plain[-1]["wall_s"] + traced[-1]["wall_s"] < RUN_BUDGET_S
    ):
        plain.append(_run_round(workload, seed, 1, deadline)[1])
        traced.append(_run_round(workload, seed, 1, deadline, trace=True)[1])
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        metrics[name] = (statistics.median_low(r["layers"][name][0] for r in traced), unit)
    traced_wall = statistics.fmean(r["wall_s"] / r["slowdown"] for r in traced)
    plain_wall = statistics.fmean(r["wall_s"] / r["slowdown"] for r in plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    extra = {"missing_sites": traced[0]["missing_sites"]}
    return metrics, plain + traced, extra


def _write_record(record):
    records = HERE / "records"
    records.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = _now()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "dynpricing" / "__init__.py").is_file():
        print(f"error: no dynpricing package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = _nproc()
    try:
        if args.trace:
            metrics, rounds, extra = measure_traced(args.workload, args.seed, args.seconds, start)
        else:
            metrics, rounds, extra = measure(args.workload, args.seed, args.seconds, nproc, start)
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    failures = {}
    for r in rounds:
        failures.update(r["failures"])
    _write_record({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": rounds[0]["numpy"],
        "git_sha": _git_sha(),
        **result,
        "failures": failures,
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
        **extra,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
