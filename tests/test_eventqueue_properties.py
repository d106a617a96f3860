"""Property tests for the simulator's event queue under lazy cancellation.

The heap holds ``[time, seq, callback, args]`` entries and cancellation only
clears the callback slot; these properties pin the contract the kernel
depends on: strict ``(time, seq)`` dispatch order, FIFO ties, cancelled
events never firing, ``run(until=)`` honouring its bound, ``cancel`` being a
no-op on an event that fired or was already cancelled, ``pending_events()``
staying an exact count, a run cut into ``run(until=)`` slices firing exactly
the events of one run (the benchmark's sliced clock depends on that), and
runs cut by ``max_events`` or ``stop()`` leaving every handle cancellable.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulator import Simulator

delays = st.integers(min_value=0, max_value=1_000)
schedules = st.lists(
    st.tuples(delays, st.booleans()), min_size=0, max_size=60
)


@given(schedules)
def test_fire_order_and_cancellation(plan):
    """Non-cancelled events fire in (time, seq) order; cancelled never fire."""
    sim = Simulator(seed=0)
    fired = []
    events = []
    for index, (delay, _cancel) in enumerate(plan):
        events.append(sim.schedule(delay, fired.append, index))
    expected = []
    for index, (delay, cancel) in enumerate(plan):
        if cancel:
            sim.cancel(events[index])
        else:
            expected.append((delay, index))
    sim.run()
    expected.sort()  # (time, schedule order) = (time, seq) order
    assert fired == [index for _, index in expected]
    assert sim.pending_events() == 0


@given(schedules)
def test_pending_accounting_is_exact_via_simulator_cancel(plan):
    """Cancelling through the simulator keeps len(queue) an exact live count."""
    sim = Simulator(seed=0)
    events = [sim.schedule(delay, lambda: None) for delay, _ in plan]
    live = len(plan)
    for event, (_delay, cancel) in zip(events, plan):
        if cancel:
            sim.cancel(event)
            live -= 1
            # Double-cancel must not decrement twice.
            sim.cancel(event)
        assert sim.pending_events() == live


@given(schedules, st.integers(min_value=0, max_value=1_000))
def test_run_until_respects_bound(plan, bound):
    """run(until=b) fires exactly the live events with time <= b, in order."""
    sim = Simulator(seed=0)
    fired = []
    events = [sim.schedule(delay, fired.append, index) for index, (delay, _) in enumerate(plan)]
    for event, (_delay, cancel) in zip(events, plan):
        if cancel:
            sim.cancel(event)
    sim.run(until=bound)
    live = [(delay, index) for index, (delay, cancel) in enumerate(plan) if not cancel]
    assert fired == [index for delay, index in sorted(live) if delay <= bound]
    assert sim.now == bound
    # The remainder is exactly the live events beyond the bound.
    assert sim.pending_events() == sum(1 for delay, _ in live if delay > bound)


class Recorder:
    """Labelled events on one simulator, beside the model the kernel must match.

    An event's callback records ``(now, label)``, then optionally schedules a
    child event, cancels another event by label (which may have fired, be
    pending, be cancelled already, or be the event itself) and stops the run.
    """

    def __init__(self):
        self.sim = Simulator(seed=0)
        self.handles = []
        self.due = []
        self.fired = []
        self.done = set()
        self.cancelled = set()

    def schedule(self, delay, child_delay=None, victim=None, stop=False):
        self.due.append(self.sim.now + delay)
        self.handles.append(self.sim.schedule(delay, self._fire, len(self.handles),
                                              child_delay, victim, stop))

    def cancel(self, label):
        if label not in self.done:
            self.cancelled.add(label)
        self.sim.cancel(self.handles[label])

    def _fire(self, label, child_delay, victim, stop):
        assert self.sim.now == self.due[label]
        self.fired.append((self.sim.now, label))
        self.done.add(label)
        if child_delay is not None:
            self.schedule(child_delay)
        if victim is not None and victim < len(self.handles):
            self.cancel(victim)
        if stop:
            self.sim.stop()
        self.check()

    def check(self):
        assert not self.done & self.cancelled, "a cancelled event fired"
        live = len(self.handles) - len(self.done) - len(self.cancelled)
        assert self.sim.pending_events() == live


modes = st.sampled_from(["keep", "cancel", "twice", "self", "after"])


@given(st.lists(st.tuples(delays, modes), max_size=40), st.integers(min_value=0, max_value=1_000))
def test_cancel_after_fire_inside_callback_or_twice_is_a_noop(plan, mid):
    """Cancelling a fired, running or cancelled event changes nothing."""
    rec = Recorder()
    for label, (delay, mode) in enumerate(plan):
        rec.schedule(delay, victim=label if mode == "self" else None)
    for label, (_delay, mode) in enumerate(plan):
        if mode in ("cancel", "twice"):
            rec.cancel(label)
        if mode == "twice":
            rec.cancel(label)
        rec.check()
    rec.sim.run(until=mid)
    rec.check()
    for label, (_delay, mode) in enumerate(plan):
        if mode in ("after", "twice"):
            rec.cancel(label)
            rec.check()
    rec.sim.run()
    rec.check()
    assert rec.sim.pending_events() == 0
    expected = sorted(
        (delay, label)
        for label, (delay, mode) in enumerate(plan)
        if mode in ("keep", "self") or (mode == "after" and delay <= mid)
    )
    assert rec.fired == expected


@given(
    st.lists(
        st.tuples(delays, st.none() | delays, st.none() | st.integers(min_value=0, max_value=60)),
        max_size=40,
    ),
    st.lists(st.integers(min_value=0, max_value=2_000), max_size=8),
    st.integers(min_value=0, max_value=2_000),
)
def test_sliced_runs_fire_the_events_of_one_run(plan, cuts, horizon):
    """run(until=t1), ..., run(until=T) equals one run(until=T).

    Callbacks schedule children and cancel other events, so slices also
    cross events scheduled and cancelled while the run is under way.
    """

    def drive(bounds):
        rec = Recorder()
        for delay, child_delay, victim in plan:
            rec.schedule(delay, child_delay, victim)
        for bound in bounds:
            rec.sim.run(until=bound)
            assert rec.sim.now == bound
            rec.check()
        return rec.fired, rec.sim.pending_events()

    slices = sorted(cut for cut in cuts if cut < horizon) + [horizon]
    assert drive(slices) == drive([horizon])


labels = st.integers(min_value=0, max_value=60)
operations = st.one_of(
    st.tuples(st.just("schedule"), delays, st.none() | delays, st.none() | labels, st.booleans()),
    st.tuples(st.just("cancel"), labels),
    st.tuples(st.just("run"), st.none() | delays, st.none() | st.integers(min_value=0, max_value=4)),
)


@given(st.lists(operations, max_size=60))
@settings(max_examples=300)
def test_cut_runs_leave_every_handle_cancellable(ops):
    """Runs cut by ``max_events``, ``stop()`` or ``until`` keep cancel exact.

    Between runs the driver schedules and cancels events, so handles created
    after a cut run (possibly due before entries the cut run dropped) must
    still cancel, and every event fires once, at its due time, unless
    cancelled first.
    """
    rec = Recorder()
    for op in ops:
        if op[0] == "schedule":
            rec.schedule(*op[1:])
        elif op[0] == "cancel":
            if rec.handles:
                rec.cancel(op[1] % len(rec.handles))
        else:
            until = None if op[1] is None else rec.sim.now + op[1]
            rec.sim.run(until=until, max_events=op[2])
        rec.check()
    while rec.sim.run():  # each pass fires at least once, up to a stop
        rec.check()
    rec.check()
    assert rec.sim.pending_events() == 0
    assert len(rec.done) + len(rec.cancelled) == len(rec.handles)
    assert rec.fired == sorted(rec.fired, key=lambda fired: fired[0])


@given(st.lists(st.tuples(delays, delays), min_size=1, max_size=30))
@settings(max_examples=50)
def test_reschedule_chains_fire_in_order(plan):
    """Events scheduled from inside callbacks still dispatch in global order."""
    sim = Simulator(seed=0)
    order = []

    def outer(index, inner_delay):
        order.append(("outer", index, sim.now))
        sim.schedule(inner_delay, inner, index)

    def inner(index):
        order.append(("inner", index, sim.now))

    for index, (delay, inner_delay) in enumerate(plan):
        sim.schedule(delay, outer, index, inner_delay)
    sim.run()
    times = [t for _, _, t in order]
    assert times == sorted(times)
    assert len(order) == 2 * len(plan)
    assert sim.pending_events() == 0


@given(schedules, st.integers(min_value=0, max_value=500))
@settings(max_examples=50)
def test_run_until_matches_full_run_prefix(plan, until):
    """run(until=t) fires exactly the full run's events with time <= t."""
    fired_full, fired_partial = [], []
    for fired, bound in ((fired_full, None), (fired_partial, until)):
        sim = Simulator(seed=0)
        for index, (delay, cancel) in enumerate(plan):
            event = sim.schedule(delay, lambda i=index: fired.append((sim.now, i)))
            if cancel:
                sim.cancel(event)
        sim.run(until=bound)
        if bound is not None:
            assert sim.now == bound
    assert fired_partial == [(t, i) for t, i in fired_full if t <= until]
