"""Unit and property tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import MILLISECOND, SECOND, Simulator, from_seconds, to_seconds
from repro.sim.simulator import SimulationError


class TestEventQueue:
    """The simulator's event queue, driven through schedule/cancel/run."""

    def test_empty_queue_pops_none(self):
        sim = Simulator()
        assert sim.run() == 0
        assert sim.pending_events() == 0
        assert sim.now == 0

    def test_orders_by_time(self):
        sim = Simulator()
        times = []
        for t in (30, 10, 20):
            sim.schedule_at(t, lambda: times.append(sim.now))
        sim.run()
        assert times == [10, 20, 30]

    def test_fifo_within_same_time(self):
        sim = Simulator()
        order = []
        for i in (1, 2, 3):
            sim.schedule(5, order.append, i)
        sim.run()
        assert order == [1, 2, 3]

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "keep")
        drop = sim.schedule(5, fired.append, "drop")
        sim.cancel(drop)
        assert sim.run() == 1
        assert fired == ["keep"]

    def test_clock_advance_skips_cancelled_head(self):
        sim = Simulator()
        first = sim.schedule(5, lambda: None)
        sim.schedule(10, lambda: None)
        sim.cancel(first)
        # Nothing live is due by t=8, so even a capped run reaches it.
        assert sim.run(until=8, max_events=0) == 0
        assert sim.now == 8
        assert sim.run(max_events=1) == 1
        assert sim.now == 10

    def test_pending_property(self):
        sim = Simulator()
        event = sim.schedule(1, lambda: None)
        assert sim.pending_events() == 1
        sim.cancel(event)
        assert sim.pending_events() == 0

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200))
    def test_property_pops_in_nondecreasing_time_order(self, times):
        sim = Simulator()
        popped = []
        for t in times:
            sim.schedule_at(t, lambda: popped.append(sim.now))
        sim.run()
        assert popped == sorted(times)


class TestSimulator:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0

    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "a")
        sim.schedule(50, fired.append, "b")
        sim.run()
        assert fired == ["b", "a"]
        assert sim.now == 100

    def test_run_until_advances_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10 * SECOND, lambda: None)
        sim.run(until=3 * SECOND)
        assert sim.now == 3 * SECOND
        sim.run(until=20 * SECOND)
        assert sim.now == 20 * SECOND

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, 1)
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, fired.append, 1)
        sim.schedule(2, sim.stop)
        sim.schedule(3, fired.append, 2)
        sim.run()
        assert fired == [1]

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i + 1, lambda: None)
        executed = sim.run(max_events=4)
        assert executed == 4

    def test_max_events_cap_keeps_clock_before_queued_events(self):
        sim = Simulator()
        seen = []
        for t in (10, 20, 30):
            sim.schedule_at(t, lambda: seen.append(sim.now))
        assert sim.run(until=100, max_events=1) == 1
        assert sim.now == 10  # the t=20 and t=30 events are still due
        assert sim.run(until=100) == 2
        assert seen == [10, 20, 30]
        assert sim.now == 100

    @pytest.mark.parametrize("cut", ["max_events", "stop"])
    def test_cancel_still_works_after_a_cut_run(self, cut):
        # The cut run drops the cancelled t=50 head before it stops at t=10;
        # a handle scheduled before t=50 afterwards must still cancel.
        sim = Simulator()
        fired = []
        dropped = sim.schedule(50, fired.append, "dropped")
        sim.schedule(10, sim.stop if cut == "stop" else lambda: fired.append("first"))
        sim.cancel(dropped)
        sim.schedule(60, fired.append, "last")
        assert sim.run(until=100, max_events=1 if cut == "max_events" else None) == 1
        assert sim.now == 10
        early = sim.schedule(5, fired.append, "early")
        sim.cancel(early)
        sim.cancel(dropped)
        assert sim.pending_events() == 1
        sim.run()
        assert fired == (["first", "last"] if cut == "max_events" else ["last"])
        assert sim.pending_events() == 0

    def test_cancel_still_works_after_a_run_drops_a_cancelled_tail(self):
        sim = Simulator()
        fired = []
        dropped = sim.schedule(50, fired.append, "dropped")
        sim.schedule(10, fired.append, "first")
        sim.cancel(dropped)
        assert sim.run() == 1
        assert sim.now == 10  # the drained run leaves the clock at t=10
        early = sim.schedule(5, fired.append, "early")
        sim.cancel(early)
        assert sim.pending_events() == 0
        assert sim.run() == 0
        assert fired == ["first"]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(10, chain, n + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def inner():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1, inner)
        sim.run()
        assert len(errors) == 1

    def test_named_rngs_are_independent_and_deterministic(self):
        a = Simulator(seed=42)
        b = Simulator(seed=42)
        assert a.rng("x").random() == b.rng("x").random()
        # Creating another stream must not disturb an existing one.
        c = Simulator(seed=42)
        c.rng("other")
        assert c.rng("x").random() == Simulator(seed=42).rng("x").random()

    def test_different_seeds_differ(self):
        assert Simulator(seed=1).rng("x").random() != Simulator(seed=2).rng("x").random()

    def test_now_seconds(self):
        sim = Simulator()
        sim.schedule(1500 * MILLISECOND, lambda: None)
        sim.run()
        assert sim.now_seconds == pytest.approx(1.5)


class TestUnits:
    def test_roundtrip(self):
        assert to_seconds(from_seconds(1.25)) == pytest.approx(1.25)

    def test_one_second_is_a_million_ticks(self):
        assert from_seconds(1.0) == 1_000_000

    @given(st.integers(min_value=0, max_value=2**52))
    def test_property_tick_roundtrip_exact(self, ticks):
        assert from_seconds(to_seconds(ticks)) == ticks


class TestTracer:
    def test_disabled_by_default(self):
        sim = Simulator()
        sim.tracer.emit("cat", "msg")
        assert sim.tracer.records == []

    def test_records_when_enabled(self):
        sim = Simulator()
        sim.tracer.enable()
        sim.schedule(7, lambda: sim.tracer.emit("cat", "msg", node=3, extra=1))
        sim.run()
        (record,) = sim.tracer.records
        assert record.time == 7
        assert record.node == 3
        assert record.data == {"extra": 1}

    def test_category_filter(self):
        sim = Simulator()
        sim.tracer.enable(categories={"keep"})
        sim.tracer.emit("keep", "a")
        sim.tracer.emit("drop", "b")
        assert [r.category for r in sim.tracer.records] == ["keep"]

    def test_filter_helper(self):
        sim = Simulator()
        sim.tracer.enable()
        sim.tracer.emit("a", "x", node=1)
        sim.tracer.emit("a", "y", node=2)
        sim.tracer.emit("b", "z", node=1)
        assert len(sim.tracer.filter(category="a")) == 2
        assert len(sim.tracer.filter(node=1)) == 2
        assert len(sim.tracer.filter(category="a", node=1)) == 1
