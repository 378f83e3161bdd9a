"""Spans around the program's layer boundaries, recorded from outside.

``instrument`` replaces each public function at the place its callers look
it up (a module attribute, or a method on a base class) with a wrapper that
opens a span, calls the original and closes the span.  The program itself
is not edited.

Seasons open several spans per segment, so a traced sweep closes millions
of them.  The tracer therefore keeps only the open spans, as a stack, and
folds each span into its layer's totals when it closes: the span's duration
is added to the layer's total time, the duration minus the time of its
child spans to the layer's self time, and the duration to the child time
of the span below it on the stack.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._child_s = []  # child time of each open span, innermost last

    def wrap(self, layer: str, fn, after=None):
        """``fn`` with a span of ``layer`` around every call; ``after(tracer,
        args, result)`` adds layer counts once the call has returned."""
        clock, open_spans = self.clock, self._child_s
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                calls[layer] += 1
                total_s[layer] += elapsed
                self_s[layer] += elapsed - child
            if after is not None:
                after(self, args, result)
            return result

        return traced


def _count_kl_segments(tracer, args, result):
    tracer.counts["lower_bound.kl_segments"] += len(args[0].segments)


def _count_csv_bytes(tracer, args, result):
    tracer.counts["cli.csv_bytes"] += os.path.getsize(args[0])


# (layer, module of the caller, name the caller looks up, counter)
SITES = (
    ("market_sim.rng", "market_sim", "segment_rng", None),
    ("market_sim.segment", "market_sim", "simulate_segment", None),
    ("market_sim.segment", "acceptance", "simulate_segment", None),
    ("market_sim.season", "regret_harness", "run_policy", None),
    ("market_sim.season", "lower_bound", "run_policy", None),
    ("market_sim.season", "acceptance", "run_policy", None),
    ("market_sim.season", "cli", "run_policy", None),
    ("policies.make", "regret_harness", "make_policy", None),
    ("policies.make", "lower_bound", "make_policy", None),
    ("policies.make", "acceptance", "make_policy", None),
    ("policies.make", "acceptance", "DpaPolicy", None),
    ("policies.make", "acceptance", "KinkPolicy", None),
    ("policies.make", "cli", "make_policy", None),
    ("schedules.build", "policies", "build_schedule", None),
    ("schedules.build", "policies", "build_kink_schedule", None),
    ("demand.solve", "policies", "deterministic_price", None),
    ("demand.solve", "regret_harness", "deterministic_value", None),
    ("demand.solve", "lower_bound", "solve_pu", None),
    ("demand.solve", "acceptance", "solve_pu", None),
    ("demand.solve", "acceptance", "deterministic_price", None),
    ("demand.solve", "acceptance", "deterministic_value", None),
    ("demand.solve", "cli", "solve_pu", None),
    ("demand.solve", "cli", "solve_pc", None),
    ("demand.solve", "cli", "deterministic_price", None),
    ("demand.solve", "cli", "deterministic_value", None),
    ("regret_harness.cell", "regret_harness", "estimate_regret", None),
    ("regret_harness.cell", "acceptance", "estimate_regret", None),
    ("regret_harness.fit", "regret_harness", "fit_loglog", None),
    ("lower_bound.kl", "lower_bound", "kl_path", _count_kl_segments),
    ("lower_bound.kl", "acceptance", "kl_path", _count_kl_segments),
    ("lower_bound.evaluate", "lower_bound", "evaluate_policy_bounds", None),
    ("lower_bound.evaluate", "acceptance", "evaluate_policy_bounds", None),
    ("lower_bound.evaluate", "cli", "evaluate_policy_bounds", None),
    ("cli.csv_write", "cli", "write_trace_csv", _count_csv_bytes),
    ("cli.csv_write", "cli", "write_regret_csv", _count_csv_bytes),
    ("cli.csv_write", "cli", "write_slope_csv", _count_csv_bytes),
    ("cli.csv_write", "cli", "write_bound_csv", _count_csv_bytes),
)


def instrument(tracer: Tracer) -> list:
    """Wrap every site; returns the sites the program no longer has.

    A site that a refactor removed is skipped rather than fatal, so the
    layer reads 0 and the run record names what was missing.
    """
    missing = []
    modules = {}
    for layer, module, name, after in SITES:
        mod = modules.get(module)
        if mod is None:
            mod = modules[module] = importlib.import_module(f"dynpricing.{module}")
        if not hasattr(mod, name):
            missing.append(f"{module}.{name}")
            continue
        setattr(mod, name, tracer.wrap(layer, getattr(mod, name), after))

    policies = modules["policies"]
    base = getattr(policies, "SeasonPolicy", None)
    if base is None or "next_segment" not in vars(base):
        missing.append("policies.SeasonPolicy.next_segment")
    else:
        base.next_segment = tracer.wrap("policies.step", base.next_segment)

    acceptance = modules["acceptance"]
    acceptance.CRITERIA = tuple(
        tracer.wrap(f"acceptance.{criterion.__name__}", criterion)
        for criterion in acceptance.CRITERIA
    )
    return missing


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Times are self times (span minus child spans), except the acceptance
    criteria and CSV writes, which are whole spans.  A layer a workload
    never calls reads 0.
    """
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    segments = calls["market_sim.segment"]
    metrics = {
        "market_sim.seasons": (calls["market_sim.season"], "count"),
        "market_sim.segments": (segments, "count"),
        "market_sim.draws": (calls["market_sim.rng"], "count"),
        "market_sim.rng_s": (self_s["market_sim.rng"], "s"),
        "market_sim.segment_s": (self_s["market_sim.segment"], "s"),
        "market_sim.segment_us": (
            1e6 * total_s["market_sim.segment"] / segments if segments else 0.0,
            "us",
        ),
        "market_sim.season_self_s": (self_s["market_sim.season"], "s"),
        "policies.steps": (calls["policies.step"], "count"),
        "policies.step_s": (self_s["policies.step"], "s"),
        "policies.make_calls": (calls["policies.make"], "count"),
        "policies.make_s": (self_s["policies.make"], "s"),
        "demand.solve_calls": (calls["demand.solve"], "count"),
        "demand.solve_s": (self_s["demand.solve"], "s"),
        "schedules.build_calls": (calls["schedules.build"], "count"),
        "schedules.build_s": (self_s["schedules.build"], "s"),
        "regret_harness.cells": (calls["regret_harness.cell"], "count"),
        "regret_harness.cell_s": (self_s["regret_harness.cell"], "s"),
        "regret_harness.fit_s": (self_s["regret_harness.fit"], "s"),
        "lower_bound.kl_calls": (calls["lower_bound.kl"], "count"),
        "lower_bound.kl_segments": (tracer.counts["lower_bound.kl_segments"], "count"),
        "lower_bound.kl_s": (self_s["lower_bound.kl"], "s"),
        "lower_bound.evaluate_s": (self_s["lower_bound.evaluate"], "s"),
    }
    for k in range(1, 10):
        metrics[f"acceptance.criterion_{k}_s"] = (total_s[f"acceptance.criterion_{k}"], "s")
    metrics["cli.csv_write_s"] = (total_s["cli.csv_write"], "s")
    metrics["cli.csv_bytes"] = (tracer.counts["cli.csv_bytes"], "bytes")
    return metrics
