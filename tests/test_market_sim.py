"""Poisson market simulator: pass protocol, determinism, stockout, CSV."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpricing import market_sim
from dynpricing.demand import LinearDemand, PiecewiseLinearDemand, ProblemInstance
from dynpricing.errors import PolicyProtocolError
from dynpricing.market_sim import (
    P_INF,
    Pass,
    Segment,
    SimulationTrace,
    poisson_tail_check,
    run_block,
    run_policy,
    season_rng,
    write_trace_csv,
)
from dynpricing.policies import FixedPricePolicy, PolicyConfig, make_policy

LIN = LinearDemand(30.0, 3.0)


class ScriptedPolicy:
    """Plays back a fixed list of (prices, duration) passes as a block of
    one and records every list of sales counts sent back."""

    def __init__(self, script):
        self.script = list(script)
        self.seen_sales = []

    def season(self, block):
        for request in self.script:
            # row 0 posts the pass; a malformed request stays malformed
            _, sales = yield ([0], [request[0]], *request[1:])
            self.seen_sales.append(sales[0].tolist())


class BlockScript:
    """Posts each pass of a script for every rep of its block and records
    every (full, sales) pair sent back."""

    def __init__(self, script):
        self.script = list(script)
        self.sent = []

    def season(self, block):
        rows = np.arange(len(block))
        for prices, duration in self.script:
            self.sent.append((yield rows, [prices] * len(block), duration))


class GroupedCommits:
    """One first pass for the whole block, each rep posting its own
    ``first`` prices, then one commitment per group of the reps whose
    first pass ran in full, group by group; a group sets its reps'
    ``applied_price`` before it posts."""

    def __init__(self, first, group):
        self.first, self.group = first, group
        self.applied_price = None

    def season(self, block):
        full, _ = yield np.arange(len(block)), [p.first for p in block], 0.25
        for group in sorted({p.group for p in block}):
            rows = [b for b in np.flatnonzero(full).tolist() if block[b].group == group]
            for b in rows:
                block[b].applied_price = 6.0 + group
            if rows:
                yield rows, [[6.0 + group]] * len(rows), 0.5


def make_instance(inventory=20.0, n=1000):
    return ProblemInstance(LIN, inventory, 1.0, n)


class TestSegmentDraws:
    """Single segments as ``run_policy`` draws them."""

    def test_zero_mean_consumes_no_randomness(self):
        # the ceiling price (rate 0) and a zero duration draw nothing, so the
        # next segment's sales are the fresh stream's first Poisson draw
        inst = make_instance()
        policy = ScriptedPolicy([([10.0], 0.5), ([5.0], 0.0), ([5.0], 0.5)])
        trace = run_policy(inst, policy, seed=(0,))
        first = int(fresh_rng((0,)).poisson(1000 * 15.0 * 0.5))
        assert [seg.sales for seg in trace.segments] == [0, 0, first]
        assert trace.terminal_revenue == 5.0 * first
        assert policy.seen_sales == [[0], [0], [first]]

    def test_sales_capped_by_inventory(self):
        inst = make_instance(inventory=0.005, n=1000)  # 5 units
        trace = run_policy(inst, FixedPricePolicy(inst, 5.0), seed=(1,))
        assert [seg.sales for seg in trace.segments] == [5]
        assert trace.stockout_time == 1.0

    def test_negative_duration_rejected(self):
        inst = make_instance()
        with pytest.raises(PolicyProtocolError):
            run_policy(inst, ScriptedPolicy([([5.0], -0.1)]), seed=(0,))

    def test_rounding_sized_negative_duration_is_recorded_as_zero(self):
        # the clock does not move for it, and the trace says so
        inst = make_instance()
        trace = run_policy(inst, ScriptedPolicy([([5.0], -1e-13), ([5.0], 1.0)]), seed=(0,))
        assert trace.segments[0] == Segment(5.0, 0.0, 0.0, 0)
        assert trace.segments[1].t_start == 0.0 and trace.segments[1].duration == 1.0

    def test_stock_beyond_int64_never_binds(self):
        # n x = 10^19 units, more than an int64 holds, against a mean of 3e17
        inst = ProblemInstance(LIN, 100.0, 1.0, 10**17)
        trace = run_policy(inst, FixedPricePolicy(inst, 9.0), seed=(0,))
        assert [seg.sales for seg in trace.segments] == [fresh_rng((0,)).poisson(10**17 * 3.0)]
        assert trace.stockout_time is None

    def test_stockout_mid_season_sends_the_last_count(self):
        inst = make_instance(inventory=2.0)  # 2000 units against a mean of 7500
        policy = ScriptedPolicy([([5.0], 0.5), ([6.0], 0.5)])
        trace = run_policy(inst, policy, seed=(0, 1000, 0))
        assert policy.seen_sales == [[2000]]
        assert trace.segments[0].sales == 2000

    @pytest.mark.parametrize("k", [2, 13])
    def test_no_draw_after_a_stock_out(self, k):
        # 9 units sell out on the first price; every later price's mean is
        # past numpy's Poisson limit, so the pass's array draw raises and
        # the one-at-a-time fallback must stop at the stock-out
        inst = ProblemInstance(LIN, 1e-18, 1.0, 2**63)
        trace = run_policy(inst, ScriptedPolicy([([5.0] + [0.1] * (k - 1), 0.05)]), seed=(0,))
        assert trace.passes[0] == Pass([5.0] + [0.1] * (k - 1), 0.0, [0.05], [9])
        assert trace.stockout_time == 0.05

    def test_empty_season_is_one_shutoff_segment(self):
        inst = make_instance()
        trace = run_policy(inst, ScriptedPolicy([]), seed=(0,))
        assert trace == SimulationTrace((Pass([P_INF], 0.0, [1.0], [0]),), 0.0, None)
        assert trace.segments == (Segment(P_INF, 0.0, 1.0, 0),)


class TestRunPolicy:
    def test_fixed_price_full_season(self):
        inst = make_instance()
        trace = run_policy(inst, FixedPricePolicy(inst, 5.0), seed=(0, 1000, 0))
        assert len(trace.segments) == 1
        seg = trace.segments[0]
        assert seg.price == 5.0 and seg.t_start == 0.0 and seg.duration == 1.0
        assert trace.terminal_revenue == 5.0 * seg.sales
        assert trace.stockout_time is None

    def test_same_seed_reproduces_trace(self):
        inst = make_instance()
        t1 = run_policy(inst, FixedPricePolicy(inst, 5.0), seed=(7, 1000, 3))
        t2 = run_policy(inst, FixedPricePolicy(inst, 5.0), seed=(7, 1000, 3))
        t3 = run_policy(inst, FixedPricePolicy(inst, 5.0), seed=(7, 1000, 4))
        assert t1 == t2
        assert t1 != t3

    def test_stockout_recorded_at_segment_end_then_shut_off(self):
        # 2 units/n, mean sales 15 per unit time: stockout in the first of
        # two segments; its duration stays as posted and the tail is closed
        # with the shut-off price
        inst = make_instance(inventory=2.0)
        trace = run_policy(inst, ScriptedPolicy([([5.0], 0.5), ([6.0], 0.5)]), seed=(0, 1000, 0))
        assert trace.stockout_time == pytest.approx(0.5)
        assert trace.segments[0].sales == inst.scaled_inventory
        assert trace.segments[-1].price is P_INF
        assert trace.segments[-1].t_start == pytest.approx(0.5)
        assert trace.segments[-1].duration == pytest.approx(0.5)

    def test_early_exit_closes_season_with_shutoff(self):
        inst = make_instance()
        trace = run_policy(inst, ScriptedPolicy([([5.0], 0.25)]), seed=(0, 1000, 0))
        assert trace.segments[-1].price is P_INF
        assert trace.segments[-1].duration == pytest.approx(0.75)
        total = sum(s.duration for s in trace.segments)
        assert total == pytest.approx(inst.horizon)

    def test_overlong_request_clamped_to_season_end(self):
        inst = make_instance()
        trace = run_policy(inst, ScriptedPolicy([([5.0], 3.0)]), seed=(0, 1000, 0))
        assert trace.segments[0].duration == pytest.approx(1.0)
        assert len(trace.segments) == 1

    def test_infeasible_price_rejected(self):
        inst = make_instance()
        with pytest.raises(PolicyProtocolError):
            run_policy(inst, ScriptedPolicy([([11.0], 0.5)]), seed=0)
        with pytest.raises(PolicyProtocolError):
            run_policy(inst, ScriptedPolicy([([5.0], -0.5)]), seed=0)
        with pytest.raises(PolicyProtocolError):
            run_policy(inst, ScriptedPolicy(["HOLD"]), seed=0)

    def test_policy_sees_its_sales(self):
        inst = make_instance()
        policy = ScriptedPolicy([([5.0], 0.5), ([5.0], 0.5)])
        trace = run_policy(inst, policy, seed=(0, 1000, 0))
        # every pass's counts are sent back once, the last pass's too
        assert policy.seen_sales == [[seg.sales] for seg in trace.segments]

    def test_poisson_moments(self):
        inst = make_instance(n=200)
        reps, mu = 2000, 200 * 15.0 * 1.0  # price 5 -> rate 15
        counts = np.array([
            run_policy(inst, FixedPricePolicy(inst, 5.0), seed=(0, 200, r)).segments[0].sales
            for r in range(reps)
        ])
        assert abs(counts.mean() - mu) <= 5 * math.sqrt(mu / reps)
        assert abs(counts.var(ddof=1) - mu) <= 5 * math.sqrt((mu + 2 * mu**2) / reps)


class TestPasses:
    """A request is a pass of k prices sharing one duration."""

    def test_pass_runs_its_prices_in_order(self):
        inst = make_instance(inventory=50.0)
        policy = ScriptedPolicy([([5.0, 6.0, 7.0], 0.25), ([4.0], 0.25)])
        trace = run_policy(inst, policy, seed=(2,))
        rng = fresh_rng((2,))
        expected = [int(rng.poisson(1000 * rate * 0.25)) for rate in (15.0, 12.0, 9.0, 18.0)]
        assert trace.segments == (
            Segment(5.0, 0.0, 0.25, expected[0]),
            Segment(6.0, 0.25, 0.25, expected[1]),
            Segment(7.0, 0.5, 0.25, expected[2]),
            Segment(4.0, 0.75, 0.25, expected[3]),
        )
        assert policy.seen_sales == [expected[:3], expected[3:]]
        assert trace.passes[0] == Pass([5.0, 6.0, 7.0], 0.0, [0.25] * 3, expected[:3])

    def test_stockout_inside_a_pass_is_cut_and_sends_nothing(self):
        inst = make_instance(inventory=2.0)  # 2000 units against a mean of 3750
        policy = ScriptedPolicy([([5.0, 6.0, 7.0], 0.25), ([4.0], 0.25)])
        trace = run_policy(inst, policy, seed=(0, 1000, 0))
        assert trace.segments == (Segment(5.0, 0.0, 0.25, 2000), Segment(P_INF, 0.25, 0.75, 0))
        assert trace.passes[0] == Pass([5.0, 6.0, 7.0], 0.0, [0.25], [2000])
        assert trace.stockout_time == 0.25
        assert policy.seen_sales == []

    def test_stockout_on_a_pass_last_segment_sends_the_full_list(self):
        # 9.9 sells at rate 0.3 (mean 75), then 5.0 at mean 3750 empties
        # the 2000 units; the next pass is discarded
        inst = make_instance(inventory=2.0)
        policy = ScriptedPolicy([([9.9, 5.0], 0.25), ([6.0], 0.25)])
        trace = run_policy(inst, policy, seed=(0, 1000, 0))
        first = int(fresh_rng((0, 1000, 0)).poisson(1000 * (30.0 - 3.0 * 9.9) * 0.25))
        assert policy.seen_sales == [[first, 2000 - first]]
        assert [seg.sales for seg in trace.segments] == [first, 2000 - first, 0]
        assert trace.segments[-1] == Segment(P_INF, 0.5, 0.5, 0)
        assert trace.stockout_time == 0.5

    def test_pass_crossing_the_horizon_clamps_its_crossing_segment(self):
        inst = make_instance(inventory=100.0)
        policy = ScriptedPolicy([([5.0, 6.0, 7.0, 8.0], 0.4)])
        trace = run_policy(inst, policy, seed=(4,))
        crossing = 1.0 - (0.4 + 0.4)
        rng = fresh_rng((4,))
        expected = [int(rng.poisson(1000 * rate * d))
                    for rate, d in ((15.0, 0.4), (12.0, 0.4), (9.0, crossing))]
        assert trace.segments == (
            Segment(5.0, 0.0, 0.4, expected[0]),
            Segment(6.0, 0.4, 0.4, expected[1]),
            Segment(7.0, 0.8, crossing, expected[2]),
        )
        assert policy.seen_sales == []  # the fourth price never ran: a cut pass

    def test_pass_ending_at_the_horizon_is_sent_back(self):
        inst = make_instance(inventory=100.0)
        policy = ScriptedPolicy([([5.0, 6.0], 0.5), ([7.0], 0.5)])
        trace = run_policy(inst, policy, seed=(4,))
        assert policy.seen_sales == [[seg.sales for seg in trace.segments]]
        assert len(trace.segments) == 2

    def test_price_inside_the_slack_is_priced_at_the_box_edge(self):
        class RecordingLinear(LinearDemand):
            priced = []

            def _rates(self, prices):
                self.priced.append(prices.tolist())
                return super()._rates(prices)

        model = RecordingLinear(30.0, 3.0)
        inst = ProblemInstance(model, 20.0, 1.0, 1000)
        prices = [0.1 - 5e-10, 5.0, 10.0 + 5e-10]
        trace = run_policy(inst, ScriptedPolicy([(prices, 0.25)]), seed=(0,))
        assert model.priced == [[[0.1, 5.0, 10.0]]]  # one array call for the pass
        assert [seg.price for seg in trace.segments[:3]] == prices

    @pytest.mark.parametrize("request_", [
        ([5.0, 11.0, 6.0], 0.5),  # off the box in the middle
        ([11.0, 5.0], 0.5),
        ([5.0, 6.0, 0.05], 0.5),  # below the floor at the end
        ([5.0, math.nan, 6.0], 0.5),
        ([math.nan, 5.0], 0.5),
        ([5.0, 6.0], -0.5),  # negative duration
        ([], 0.5),  # empty pass
        # the shut-off price is the simulator's, not a policy's; its repr is inf
        pytest.param(([P_INF], 0.5), id="([P_INF], 0.5)"),
        pytest.param(([5.0, P_INF], 0.5), id="([5.0, P_INF], 0.5)"),
        (5.0, 0.5),  # a bare price, not a pass
        (["five"], 0.5),
        ([5.0], "soon"),
        ([5.0], 0.5, 1),
        "HOLD",
    ], ids=repr)
    def test_bad_requests_raise(self, request_):
        inst = make_instance()
        with pytest.raises(PolicyProtocolError):
            run_policy(inst, ScriptedPolicy([([5.0], 0.25), request_]), seed=0)


class TestBlocks:
    """Seasons run in lockstep blocks on one stream; given its draws, each
    rep runs as if it ran alone."""

    def test_a_block_draws_each_pass_in_row_major_order(self):
        # with stock to spare every price runs, so each pass's counts are
        # one draw of its whole mean matrix from the block key's stream
        inst = make_instance(inventory=50.0)
        script = [([5.0, 6.0, 7.0], 0.25), ([4.0], 0.25)]
        traces = run_block(inst, [BlockScript(script) for _ in range(3)], (0, 1000, 6))
        rng = fresh_rng((0, 1000, 6))
        first = rng.poisson(np.tile(np.array([15.0, 12.0, 9.0]) * 1000 * 0.25, (3, 1)))
        second = rng.poisson(np.full((3, 1), 18.0 * 1000 * 0.25))
        assert [list(trace.passes[0].sales) for trace in traces] == first.tolist()
        assert [list(trace.passes[1].sales) for trace in traces] == second.tolist()

    def test_a_block_of_one_is_its_keys_stream(self):
        # segment by segment, a lone season's counts are the key's stream
        inst = make_instance(inventory=100.0, n=100)
        config = PolicyConfig("dpa")
        (trace,) = run_block(inst, [make_policy(config, inst)], (3, 100, 9))
        assert trace == run_policy(inst, make_policy(config, inst), seed=(3, 100, 9))
        assert trace.stockout_time is None and len(trace.segments) > 10
        rng = fresh_rng((3, 100, 9))
        means = [100 * LIN.rate(seg.price) * seg.duration for seg in trace.segments]
        assert [seg.sales for seg in trace.segments] == [
            int(rng.poisson(mean)) if mean > 0 else 0 for mean in means]

    def test_reps_that_sold_out_drop_out_of_later_passes(self, monkeypatch):
        # 2000 units against a mean of 2000 over the first pass: some reps
        # sell out on its last price, and the second pass runs for the rest,
        # whose counts come back on their own rows
        inst = make_instance(inventory=2.0)
        script = [([5.0, 5.0], 1 / 15), ([6.0], 0.25)]
        block = [BlockScript(script) for _ in range(8)]
        traces = run_block(inst, block, (0, 1000, 0))
        for trace in traces:
            assert trace == solo_replay(monkeypatch, inst, BlockScript(script), trace)
        (first_full, _), (full, sales) = block[0].sent
        sold_out = np.array([trace.stockout_time == 2 / 15 for trace in traces])
        assert first_full.all() and 0 < sold_out.sum() < len(block)
        assert (full == ~sold_out).all()
        assert [row[0] for row in sales[full].tolist()] == [
            trace.passes[1].sales[0] for trace, out in zip(traces, sold_out) if not out]

    def test_groups_after_the_last_live_one_still_run(self, monkeypatch):
        # reps 0 and 5 sell about 75 units at each 9.9; the others sell out
        # on the first pass's 5.0 and so finish with it.  Their groups come
        # after the live group's commitment, which ends every season, and
        # each must still set its reps' price as a lone season would
        inst = make_instance(inventory=2.0)
        plan = [([9.9, 9.9], 0), ([9.9, 5.0], 1), ([9.9, 5.0], 1),
                ([9.9, 5.0], 2), ([9.9, 5.0], 2), ([9.9, 9.9], 0)]
        block = [GroupedCommits(*rep) for rep in plan]
        traces = run_block(inst, block, (0, 1000, 0))
        for rep, (policy, trace) in enumerate(zip(block, traces)):
            solo = GroupedCommits(*plan[rep])
            assert trace == solo_replay(monkeypatch, inst, solo, trace)
            assert vars(policy) == vars(solo)
            assert policy.applied_price == 6.0 + plan[rep][1]
        assert [trace.stockout_time for trace in traces[1:5]] == [0.5] * 4

    def test_mixed_fates_match_solo_seasons(self, monkeypatch):
        # tight stock: within one block of 64 dpa reps some stock out inside
        # a pass, some on a pass's last price, some hand off to the
        # constrained track and some reach the season end with stock left
        inst = make_instance(inventory=8.0, n=100)
        config = PolicyConfig("dpa")
        block = [make_policy(config, inst) for _ in range(64)]
        traces = run_block(inst, block, (0, 100, 0))
        fates = set()
        for policy, trace in zip(block, traces):
            solo = make_policy(config, inst)
            assert trace == solo_replay(monkeypatch, inst, solo, trace)
            assert vars(policy) == vars(solo)
            last = [p for p in trace.passes if P_INF not in p.prices][-1]
            if trace.stockout_time is None:
                fates.add("season end")
            elif len(last.sales) < len(last.prices):
                fates.add("stock-out inside a pass")
            elif len(last.prices) > 1:
                fates.add("stock-out on a grid's last price")
            else:
                fates.add("stock-out on the commitment")
            if policy.entered_step3:
                fates.add("hand-off")
        assert fates == {"season end", "stock-out inside a pass", "stock-out on a grid's last price",
                         "stock-out on the commitment", "hand-off"}

    def test_records_are_built_for_the_whole_block_on_first_read(self, monkeypatch):
        # the block logs its passes as arrays; the first read of any rep's
        # passes, here the last rep's, builds the records of every rep
        inst = make_instance(inventory=8.0, n=100)
        config = PolicyConfig("dpa")
        traces = run_block(inst, [make_policy(config, inst) for _ in range(40)], (0, 100, 0))
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(market_sim, "Pass", lambda *fields: built.append(Pass(*fields)) or built[-1])
            traces[-1].passes
            first_read = len(built)
            assert first_read == sum(len(trace.passes) for trace in traces) == len(built)
        for trace in traces:
            assert trace == solo_replay(monkeypatch, inst, make_policy(config, inst), trace)
        # reps that sold out before the season end close with a shut-off tail
        tailed = [trace for trace in traces if trace.passes[-1].prices == [P_INF]]
        assert 0 < len(tailed) < len(traces)
        for trace in tailed:
            t = trace.stockout_time
            assert trace.passes[-1] == Pass([P_INF], t, [inst.horizon - t], [0])


def solo_replay(monkeypatch, instance, policy, trace):
    """``policy``'s season run alone on ``instance``, each pass drawing the
    sales ``trace`` recorded for it.  A capped sale replayed as a draw
    reproduces itself, and a price a stock-out or the season end cut off
    draws 0."""
    passes = iter(trace.passes)

    class Replay:
        def poisson(self, means):
            sales = next(passes).sales
            draws = np.zeros(means.shape, dtype=np.int64)
            draws[0, :len(sales)] = sales
            assert not draws[means == 0].any()  # a zero mean draws nothing
            return draws

    with monkeypatch.context() as patch:
        patch.setattr(market_sim, "season_rng", lambda key: Replay())
        return run_policy(instance, policy, seed=0)


class TestTailCheck:
    def test_exceedance_is_rare(self):
        freq = poisson_tail_check(mu=5.0, r_n=500.0, eta=1.0, replications=5000, n=10**4)
        assert freq <= 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_tail_check(mu=-1.0, r_n=10.0, eta=1.0, replications=10, n=100)
        with pytest.raises(ValueError):
            poisson_tail_check(mu=5.0, r_n=10.0, eta=1.0, replications=10, n=1)


TOP = 2**64 - 1


def stream_state(rng):
    """Philox's counter, key, buffer and buffered uint32, comparable."""
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"])


def fresh_rng(entropy):
    """A new generator on the stream of season key ``entropy``, built as the
    module docstring states the contract."""
    k0, k1, k2, k3 = (*entropy, 0, 0, 0, 0)[:4]
    philox = np.random.Philox(key=k0 + 2**64 * k1, counter=2**128 * k2 + 2**192 * k3)
    return np.random.Generator(philox)


def assert_same_stream(entropy):
    reused, fresh = season_rng(entropy), fresh_rng(entropy)
    assert stream_state(reused) == stream_state(fresh)
    means = [37.5, 0.2, 4e4, 11.0, 1e-3, 250.0]
    assert [reused.poisson(m) for m in means] == [fresh.poisson(m) for m in means]


class TestSegmentStreams:
    """The stream every segment of a season draws from: one Philox stream
    per season key, against ``Philox(key=, counter=)`` itself."""

    @pytest.mark.parametrize("entropy", [(), (0,), (TOP,), (3, TOP), (7, 10**5, 63), (TOP, 0, 64)])
    @pytest.mark.parametrize("k", [0, 15, 16, 200, 4095])
    def test_keys_of_one_to_four_words(self, entropy, k):
        assert_same_stream((*entropy, k))

    @pytest.mark.parametrize("entropy, k", [
        ((2**32, 5), 0),  # a word past 32 bits
        ((1, 2**40, 3), 7),
        ((TOP, TOP, TOP), 0),  # four words, three at their top
        ((1, 2, 3), 4096),
    ])
    def test_keys_outside_the_blocks_take_the_plain_path(self, entropy, k):
        # wide words and large last words take the one path every key takes:
        # the reused generator, set to the key's own Philox stream
        assert_same_stream((*entropy, k))
        assert season_rng((*entropy, k)) is season_rng((*entropy, k))

    def test_keys_outside_the_domain_raise(self):
        for key in [(2**64,), (1, 2**64 + 3), (1, 2, 3, 4, 5), (-1,), (4, -2), ()]:
            with pytest.raises(ValueError):
                season_rng(key)
        inst = make_instance()
        with pytest.raises(ValueError):
            run_policy(inst, FixedPricePolicy(inst, 5.0), seed=(0, 1000, 2**64))

    def test_seasons_reuse_one_generator(self):
        assert season_rng((1, 2, 3)) is season_rng((4, 5))

    @settings(max_examples=100, deadline=None, database=None)
    @given(keys=st.lists(st.lists(st.integers(0, TOP), min_size=1, max_size=4),
                         min_size=1, max_size=5))
    def test_property_any_order_matches_fresh_streams(self, keys):
        for entropy in keys:
            assert_same_stream(tuple(entropy))

    def test_buffered_uint32_is_cleared_between_draws(self):
        rng = season_rng((9, 8, 7))
        rng.integers(0, 10, dtype=np.uint32)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        assert_same_stream((9, 8, 7, 6))
        assert_same_stream((9, 8, 7))

    def test_keys_differing_in_one_word_differ_in_the_first_draw(self):
        base = (5, 6, 7, 8)
        first = season_rng(base).bit_generator.random_raw()
        for word in range(4):
            for flipped in (base[word] + 1, base[word] ^ 2**63):
                key = base[:word] + (flipped,) + base[word + 1:]
                assert season_rng(key).bit_generator.random_raw() != first

    def test_neighbouring_reps_share_no_output(self):
        rep = season_rng((3, 10**4, 41)).bit_generator.random_raw(10**5)
        next_rep = season_rng((3, 10**4, 42)).bit_generator.random_raw(10**5)
        assert np.intersect1d(rep, next_rep).size == 0

    @pytest.mark.parametrize("name", ["dpa", "dpa2", "single_phase", "clairvoyant", "fixed"])
    def test_seasons_match_the_plain_path(self, name, monkeypatch):
        # the plain path builds a fresh generator per season; keys go out of
        # order, interleaved over n, so no season may lean on the last one
        if name == "dpa2":
            model, inventory = PiecewiseLinearDemand(84.0, 1.0, 4.0, 60.0, 2.0, 5.0), 81.0
        else:
            model, inventory = LIN, 20.0
        config = PolicyConfig(name, price=5.0)
        keys = [(n, rep) for rep in reversed(range(250, 262)) for n in (100, 10**4)]

        def seasons():
            traces = {}
            for n, rep in keys:
                inst = ProblemInstance(model, inventory, 1.0, n)
                traces[n, rep] = run_policy(inst, make_policy(config, inst), seed=(3, n, rep))
            return traces

        reused = seasons()
        monkeypatch.setattr(market_sim, "_positioned", lambda rng, entropy: fresh_rng(entropy))
        assert reused == seasons()

    def test_import_does_not_load_numpy_random(self):
        # the generator is built on the first season, so set-up stays cheap;
        # the command line module imports every module a season needs
        assert fresh_import("dynpricing.cli", "'numpy.random' in sys.modules") == "False"

    def test_package_import_loads_no_submodule(self):
        # the package is used through its submodules and re-exports nothing
        loaded = "[m for m in sys.modules if m.startswith(('dynpricing.', 'numpy'))]"
        assert fresh_import("dynpricing", loaded) == "[]"


def fresh_import(module, expression):
    """What ``expression`` prints after importing ``module`` in a fresh
    interpreter."""
    src = os.path.dirname(os.path.dirname(market_sim.__file__))
    code = f"import sys, {module}; print({expression})"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    return out.strip()


class TestTraceCsv:
    def test_format_and_determinism(self, tmp_path):
        inst = make_instance(inventory=2.0)
        traces = [
            run_policy(inst, ScriptedPolicy([([5.0], 0.5), ([6.0], 0.5)]), seed=(0, 1000, r))
            for r in range(2)
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(p1, traces, header_lines=("version 0.1.0", "seed 0"))
        write_trace_csv(p2, traces, header_lines=("version 0.1.0", "seed 0"))
        body = p1.read_text()
        assert body == p2.read_text()
        lines = body.splitlines()
        assert lines[0] == "# version 0.1.0"
        assert lines[2] == "rep_id,seg_index,price,t_start,duration,sales,revenue_cum"
        assert any(",p_inf," in ln for ln in lines)  # stocked-out tail
        first = lines[3].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "5.0"

    def test_revenue_column_accumulates(self, tmp_path):
        trace = SimulationTrace(
            passes=(Pass(prices=[2.0, 4.0], t_start=0.0, durations=[0.5, 0.5], sales=[3, 1]),),
            terminal_revenue=10.0,
            stockout_time=None,
        )
        path = tmp_path / "t.csv"
        write_trace_csv(path, [trace])
        rows = path.read_text().splitlines()[1:]
        assert rows[0].endswith(",6.0")
        assert rows[1].endswith(",10.0")
