"""Poisson market simulator: protocol, determinism, stockout, CSV."""

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
from dynpricing.errors import PolicyProtocolError, PriceDomainError
from dynpricing.market_sim import (
    P_INF,
    MarketState,
    Segment,
    SimulationTrace,
    poisson_tail_check,
    run_policy,
    segment_rng,
    simulate_segment,
    write_trace_csv,
)
from dynpricing.policies import FixedPricePolicy, PolicyConfig, make_policy

LIN = LinearDemand(30.0, 3.0)


class ScriptedPolicy:
    """Plays back a fixed list of (price, duration) segments."""

    def __init__(self, script):
        self.script = list(script)
        self.seen_sales = []

    def next_segment(self, last_sales):
        self.seen_sales.append(last_sales)
        if not self.script:
            return None
        return self.script.pop(0)


def make_instance(inventory=20.0, n=1000):
    return ProblemInstance(LIN, inventory, 1.0, n)


class TestSimulateSegment:
    def test_zero_mean_consumes_no_randomness(self):
        inst = make_instance()
        state = MarketState(remaining_inventory=inst.scaled_inventory, entropy=(0,))
        sales, state = simulate_segment(state, LIN, inst.market_size, P_INF, 0.5)
        assert sales == 0
        assert state.revenue == 0.0
        assert state.segment_index == 1
        # the draw for a given segment index depends only on (entropy, index)
        a = segment_rng((0,), 1).poisson(100)
        b = segment_rng((0,), 1).poisson(100)
        assert a == b

    def test_sales_capped_by_inventory(self):
        inst = make_instance(inventory=0.005, n=1000)  # 5 units
        state = MarketState(remaining_inventory=inst.scaled_inventory, entropy=(1,))
        sales, state = simulate_segment(state, LIN, inst.market_size, 5.0, 1.0)
        assert sales == 5
        assert state.stocked_out

    def test_negative_duration_rejected(self):
        state = MarketState(remaining_inventory=10, entropy=(0,))
        with pytest.raises(PriceDomainError):
            simulate_segment(state, LIN, 10, 5.0, -0.1)


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
        trace = run_policy(inst, ScriptedPolicy([(5.0, 0.5), (6.0, 0.5)]), seed=(0, 1000, 0))
        assert trace.stockout_time == pytest.approx(0.5)
        assert trace.segments[0].sales == inst.scaled_inventory
        assert trace.segments[-1].price is P_INF
        assert trace.segments[-1].t_start == pytest.approx(0.5)
        assert trace.segments[-1].duration == pytest.approx(0.5)

    def test_early_exit_closes_season_with_shutoff(self):
        inst = make_instance()
        trace = run_policy(inst, ScriptedPolicy([(5.0, 0.25)]), seed=(0, 1000, 0))
        assert trace.segments[-1].price is P_INF
        assert trace.segments[-1].duration == pytest.approx(0.75)
        total = sum(s.duration for s in trace.segments)
        assert total == pytest.approx(inst.horizon)

    def test_overlong_request_clamped_to_season_end(self):
        inst = make_instance()
        trace = run_policy(inst, ScriptedPolicy([(5.0, 3.0)]), seed=(0, 1000, 0))
        assert trace.segments[0].duration == pytest.approx(1.0)
        assert len(trace.segments) == 1

    def test_infeasible_price_rejected(self):
        inst = make_instance()
        with pytest.raises(PolicyProtocolError):
            run_policy(inst, ScriptedPolicy([(11.0, 0.5)]), seed=0)
        with pytest.raises(PolicyProtocolError):
            run_policy(inst, ScriptedPolicy([(5.0, -0.5)]), seed=0)
        with pytest.raises(PolicyProtocolError):
            run_policy(inst, ScriptedPolicy(["HOLD"]), seed=0)

    def test_policy_sees_its_sales(self):
        inst = make_instance()
        policy = ScriptedPolicy([(5.0, 0.5), (5.0, 0.5)])
        trace = run_policy(inst, policy, seed=(0, 1000, 0))
        # first call carries None, later calls the realized counts
        assert policy.seen_sales[0] is None
        assert policy.seen_sales[1] == trace.segments[0].sales

    def test_poisson_moments(self):
        inst = make_instance(n=200)
        reps, mu = 2000, 200 * 15.0 * 1.0  # price 5 -> rate 15
        counts = np.array([
            run_policy(inst, FixedPricePolicy(inst, 5.0), seed=(0, 200, r)).segments[0].sales
            for r in range(reps)
        ])
        assert abs(counts.mean() - mu) <= 5 * math.sqrt(mu / reps)
        assert abs(counts.var(ddof=1) - mu) <= 5 * math.sqrt((mu + 2 * mu**2) / reps)


class TestTailCheck:
    def test_exceedance_is_rare(self):
        freq = poisson_tail_check(mu=5.0, r_n=500.0, eta=1.0, replications=5000, n=10**4)
        assert freq <= 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_tail_check(mu=-1.0, r_n=10.0, eta=1.0, replications=10, n=100)
        with pytest.raises(ValueError):
            poisson_tail_check(mu=5.0, r_n=10.0, eta=1.0, replications=10, n=100, rate_bound=1.0)


M64 = 2**64 - 1
PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


def halves(state, inc):
    return [state & M64, state >> 64, inc & M64, inc >> 64]


def plain_rng(entropy, k):
    return np.random.default_rng(np.random.SeedSequence((*entropy, k)))


def assert_same_stream(entropy, k):
    fast, plain = segment_rng(entropy, k), plain_rng(entropy, k)
    assert fast.bit_generator.state == plain.bit_generator.state
    assert fast.poisson(37.5) == plain.poisson(37.5)


class TestSegmentStreams:
    """The block-derived streams against SeedSequence and PCG64 themselves."""

    TOP = 2**32 - 1

    @pytest.mark.parametrize("key", [
        (0,), (TOP,), (5, 0), (TOP, TOP), (7, 10**5, 3), (0, TOP, 0), (TOP, 0, TOP, 9),
        (1, 2, 3, 4), (0, 0, 0, 0),
    ])
    def test_generate_state_port(self, key):
        keys = np.zeros((4, 1), dtype=np.uint32)
        keys[: len(key), 0] = key
        expected = np.random.SeedSequence(key).generate_state(4, np.uint64)
        seeds = market_sim._generate_state(keys)
        assert seeds[0].tolist() == expected.tolist()
        # and the block's PCG64 words are the generator seeded by the key
        state = np.random.PCG64(np.random.SeedSequence(key)).state["state"]
        words = market_sim._pcg64_words(seeds, (0, 1, 2, 3))
        assert words[0].tolist() == halves(state["state"], state["inc"])

    @pytest.mark.parametrize("entropy", [(), (0,), (TOP,), (3, TOP), (7, 10**5, 63), (TOP, 0, 64)])
    @pytest.mark.parametrize("k", [0, 15, 16, 200, 4095])
    def test_keys_of_one_to_four_words(self, entropy, k):
        assert_same_stream(entropy, k)

    @pytest.mark.parametrize("entropy, k", [
        ((2**32, 5), 0),  # SeedSequence splits the word in two
        ((1, 2**40, 3), 7),
        ((1, 2, 3, 4), 0),  # a 5-word key
        ((1, 2, 3), 4096),  # past the largest block's last segment
    ])
    def test_keys_outside_the_blocks_take_the_plain_path(self, entropy, k):
        assert_same_stream(entropy, k)
        assert segment_rng(entropy, k) is not segment_rng(entropy, k)

    def test_blocks_reuse_one_generator(self):
        # after a failed probe every draw would get a fresh generator
        assert segment_rng((1, 2, 3), 0) is segment_rng((4, 5), 4000)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        keys=st.lists(
            st.tuples(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
                      st.integers(0, 4095)),
            min_size=1, max_size=5,
        )
    )
    def test_property_any_order_matches_seed_sequence(self, keys):
        for entropy, k in keys:
            assert_same_stream(tuple(entropy), k)

    @pytest.mark.parametrize("seed", [
        (M64, M64, M64, M64),  # every add and the multiply carry
        (0, M64, 0, M64),
        (M64, 0, M64, 0),
        (0x8000000000000000, 0xFFFFFFFF00000000, 0x00000000FFFFFFFF, 0x8000000000000001),
    ])
    def test_block_words_carry_across_the_halves(self, seed):
        seed_hi, seed_lo, seq_hi, seq_lo = seed
        inc = ((seq_hi << 64 | seq_lo) * 2 + 1) % 2**128
        state = ((seed_hi << 64 | seed_lo) + inc) * PCG_MULT + inc
        words = market_sim._pcg64_words(np.array([seed], dtype=np.uint64), (0, 1, 2, 3))
        assert words[0].tolist() == halves(state % 2**128, inc)

    def test_buffered_uint32_is_cleared_between_draws(self):
        rng = segment_rng((9, 8, 7), 5)
        rng.integers(0, 10, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        rng = segment_rng((9, 8, 7), 6)
        assert rng.bit_generator.state["has_uint32"] == 0
        assert_same_stream((9, 8, 7), 6)

    def test_failed_probe_falls_back_to_the_plain_path(self, monkeypatch):
        monkeypatch.setattr(market_sim, "_probe", lambda generator: None)
        monkeypatch.setattr(market_sim, "_STREAMS", market_sim._BlockStreams())
        assert_same_stream((1, 2, 3), 0)
        assert segment_rng((1, 2, 3), 0) is not segment_rng((1, 2, 3), 0)
        assert_seasons_match_the_plain_path("dpa", monkeypatch)

    @pytest.mark.parametrize("name", ["dpa", "dpa2", "single_phase", "clairvoyant", "fixed"])
    def test_seasons_match_the_plain_path(self, name, monkeypatch):
        fast = assert_seasons_match_the_plain_path(name, monkeypatch)
        if name == "dpa":  # long enough seasons to extend the block
            assert max(len(t.segments) for t in fast.values()) > market_sim._FIRST_SEGMENTS

    def test_import_does_not_load_numpy_random(self):
        # the generator is built on the first draw, so set-up stays cheap
        src = os.path.dirname(os.path.dirname(market_sim.__file__))
        code = "import sys, dynpricing; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "False"


def assert_seasons_match_the_plain_path(name, monkeypatch):
    """Traces of ``name`` with the current ``segment_rng`` equal those with
    the plain path; returns the traces.

    Reps in reverse across rep 256, a block boundary at every block size,
    interleaved over n, so the memo is rebuilt and extended out of order.
    """
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

    fast = seasons()
    monkeypatch.setattr(market_sim, "segment_rng", plain_rng)
    assert fast == seasons()
    return fast


class TestTraceCsv:
    def test_format_and_determinism(self, tmp_path):
        inst = make_instance(inventory=2.0)
        traces = [
            run_policy(inst, ScriptedPolicy([(5.0, 0.5), (6.0, 0.5)]), seed=(0, 1000, r))
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
            segments=(
                Segment(price=2.0, t_start=0.0, duration=0.5, sales=3),
                Segment(price=4.0, t_start=0.5, duration=0.5, sales=1),
            ),
            terminal_revenue=10.0,
            stockout_time=None,
            initial_inventory=100,
            horizon=1.0,
        )
        path = tmp_path / "t.csv"
        write_trace_csv(path, [trace])
        rows = path.read_text().splitlines()[1:]
        assert rows[0].endswith(",6.0")
        assert rows[1].endswith(",10.0")
