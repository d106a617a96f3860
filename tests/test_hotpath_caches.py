"""Properties of the per-beacon and per-reception hot-path caches.

Each cache must answer exactly what the computation it replaced would:

- ``LinkEstimator.etx`` against the ETX formula recomputed from the
  neighbour's estimate, after any sequence of estimator updates;
- ``CtpRouting._evaluate_route``'s single scan against the reference
  per-neighbour candidate-cost scan, over random tables with cost ties,
  TTL expiry, child and loop exclusion, and ``parent_unreachable``;
- the memoised ``CC2420.prr`` against the unmemoised curve;
- ``CPMNoiseModel.sample``'s draw table and inlined index draw against
  ``Random.choice``, for history lengths 1-5, a trace forcing the
  shorter-history and marginal fallbacks, and forks drawn interleaved.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ctp import CtpRouting, RouteEntry
from repro.net.linkest import UNKNOWN_ETX, LinkEstimator
from repro.net.messages import NO_ROUTE
from repro.radio.cc2420 import CC2420
from repro.radio.noise import CPMNoiseModel, synthesize_meyer_like_trace
from repro.sim import Simulator

NEIGHBORS = st.integers(min_value=1, max_value=5)

LINKEST_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("beacon"), NEIGHBORS, st.integers(0, 40)),
        st.tuples(st.just("data"), NEIGHBORS, st.booleans()),
        st.tuples(st.just("forget"), NEIGHBORS),
        st.tuples(st.just("reset")),
    ),
    max_size=120,
)


def _apply(est: LinkEstimator, op: tuple) -> None:
    kind = op[0]
    if kind == "beacon":
        est.beacon_received(op[1], op[2], rssi=-80.0)
    elif kind == "data":
        est.data_sent(op[1], op[2])
    elif kind == "forget":
        est.forget(op[1])
    else:
        est.reset()


def _formula_etx(est: LinkEstimator, neighbor: int) -> float:
    """The link-ETX rule, recomputed from the neighbour's raw estimate."""
    state = est._table.get(neighbor)
    if state is None:
        return UNKNOWN_ETX
    if state.data_etx is not None:
        return state.data_etx
    if state.beacon_windows > 0 and state.beacon_quality > 0:
        return min(1.0 / (state.beacon_quality**2), UNKNOWN_ETX)
    if state.beacons_received > 0:
        return 2.0
    return UNKNOWN_ETX


@settings(max_examples=200, deadline=None)
@given(LINKEST_OPS)
def test_cached_etx_matches_formula_after_any_update_sequence(ops):
    est = LinkEstimator()
    for op in ops:
        _apply(est, op)
        assert set(est.etx) == set(est._table)
        for neighbor in range(0, 7):
            assert est.link_etx(neighbor) == _formula_etx(est, neighbor)
            assert est.is_usable(neighbor) == (
                _formula_etx(est, neighbor) <= LinkEstimator.MAX_ETX
            )


# ------------------------------------------------------------ route scan
NODE = 0
NOW = 2 * CtpRouting.ENTRY_TTL

#: Few distinct values, so equal path costs (ties) are common.
PATH_ETX = st.sampled_from([0.0, 1.0, 1.5, 2.5, 4.0, float(NO_ROUTE)])
HEARD_AT = st.sampled_from(
    [NOW, NOW - 1, NOW - CtpRouting.ENTRY_TTL, NOW - CtpRouting.ENTRY_TTL - 1]
)
ENTRY = st.fixed_dictionaries(
    {
        "path_etx": PATH_ETX,
        "hop_count": st.sampled_from([0, 1, 2, 5, NO_ROUTE]),
        "parent": st.sampled_from([None, NODE, 6, 7]),
        "heard_at": HEARD_AT,
        # Successes in one 3-send data window: ETX 20 (unusable), 3, 1.5
        # or 1; None keeps the beacon bootstrap (2.0) or no estimate (16).
        "successes": st.one_of(st.none(), st.integers(0, 3)),
        "beaconed": st.booleans(),
        # A cached ETX at and around the usable ceiling, which no short
        # update sequence reaches exactly.
        "pinned_etx": st.one_of(
            st.none(), st.sampled_from([9.5, LinkEstimator.MAX_ETX, 10.5])
        ),
        "child": st.booleans(),
    }
)
ROUTING_STATE = st.fixed_dictionaries(
    {
        "entries": st.dictionaries(st.integers(1, 8), ENTRY, max_size=8),
        "parent": st.one_of(st.none(), st.integers(1, 9)),
        "path_etx": PATH_ETX,
        "hop_count": st.sampled_from([1, 3, NO_ROUTE]),
        # Insertion order of the table: ties resolve to the first entry.
        "order_seed": st.integers(0, 2**16),
    }
)


def _routing(state: dict) -> tuple:
    sim = Simulator(seed=1)
    sim.run(until=NOW)
    stack = SimpleNamespace(node_id=NODE, linkest=LinkEstimator())
    routing = CtpRouting(sim, stack)  # type: ignore[arg-type]
    events: List[tuple] = []
    routing.on_parent_change.append(lambda old, new: events.append(("change", old, new)))
    routing.on_parent_found.append(lambda: events.append(("found",)))
    neighbors = sorted(state["entries"])
    random.Random(state["order_seed"]).shuffle(neighbors)
    for neighbor in neighbors:
        spec = state["entries"][neighbor]
        if spec["beaconed"]:
            stack.linkest.beacon_received(neighbor, 1, rssi=-80.0)
        if spec["successes"] is not None:
            for i in range(LinkEstimator.DATA_WINDOW):
                stack.linkest.data_sent(neighbor, i < spec["successes"])
        if spec["pinned_etx"] is not None:
            stack.linkest.etx[neighbor] = spec["pinned_etx"]
        routing.table[neighbor] = RouteEntry(
            spec["path_etx"], spec["hop_count"], spec["parent"], spec["heard_at"]
        )
        if spec["child"]:
            routing.children[neighbor] = spec["heard_at"]
    if state["parent"] is not None:
        routing.parent = state["parent"]
        routing.path_etx = state["path_etx"]
        routing.hop_count = state["hop_count"]
        routing._had_parent = True
    return routing, events


def _reference_cost(routing: CtpRouting, neighbor: int) -> Optional[float]:
    entry = routing.table.get(neighbor)
    if entry is None or entry.path_etx >= NO_ROUTE:
        return None
    if routing.sim.now - entry.heard_at > routing.ENTRY_TTL:
        return None
    if entry.parent == routing.node_id or neighbor in routing.children:
        return None
    if not routing.linkest.is_usable(neighbor):
        return None
    return entry.path_etx + routing.linkest.link_etx(neighbor)


def _reference_evaluate(routing: CtpRouting) -> None:
    """Route selection as one candidate-cost call per table neighbour."""
    best: Optional[int] = None
    best_cost = float("inf")
    for neighbor in routing.table:
        cost = _reference_cost(routing, neighbor)
        if cost is not None and cost < best_cost:
            best, best_cost = neighbor, cost
    if best is None:
        return
    parent = routing.parent
    current = _reference_cost(routing, parent) if parent is not None else None
    switch = parent is None or current is None or (
        best != parent and best_cost < current - routing.PARENT_SWITCH_HYSTERESIS
    )
    if switch and best != parent:
        routing.parent = best
        routing.trickle.reset()
        for callback in routing.on_parent_change:
            callback(parent, best)
        if not routing._had_parent:
            routing._had_parent = True
            for callback in routing.on_parent_found:
                callback()
    routing._update_own_metric()


def _outcome(routing: CtpRouting, events: List[tuple]) -> tuple:
    return routing.parent, routing.path_etx, routing.hop_count, list(events)


@settings(max_examples=300, deadline=None)
@given(ROUTING_STATE)
def test_route_scan_matches_reference_candidate_scan(state):
    scanned, scanned_events = _routing(state)
    reference, reference_events = _routing(state)
    scanned._evaluate_route()
    _reference_evaluate(reference)
    assert _outcome(scanned, scanned_events) == _outcome(reference, reference_events)


@settings(max_examples=200, deadline=None)
@given(ROUTING_STATE)
def test_parent_unreachable_reselects_like_reference(state):
    scanned, scanned_events = _routing(state)
    reference, reference_events = _routing(state)
    reference._evaluate_route = lambda: _reference_evaluate(reference)  # type: ignore[method-assign]
    scanned.parent_unreachable()
    reference.parent_unreachable()
    assert _outcome(scanned, scanned_events) == _outcome(reference, reference_events)
    # A second evaluation on the post-failure table still agrees.
    scanned._evaluate_route()
    _reference_evaluate(reference)
    assert _outcome(scanned, scanned_events) == _outcome(reference, reference_events)


# ------------------------------------------------------- per reception
def _unmemoised_prr(snr_db: float, frame_bytes: int) -> float:
    if snr_db <= -10.0:
        return 0.0
    if snr_db >= 15.0:
        return 1.0
    ber = CC2420.bit_error_rate(round(snr_db * 10))
    return (1.0 - ber) ** (8 * max(frame_bytes, 1))


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-20.0, max_value=25.0, allow_nan=False),
    st.integers(min_value=0, max_value=127),
)
def test_memoised_prr_matches_curve(snr_db, frame_bytes):
    first = CC2420.prr(snr_db, frame_bytes)
    assert first == _unmemoised_prr(snr_db, frame_bytes)
    assert CC2420.prr(snr_db, frame_bytes) == first  # a memo hit


_TRACE = synthesize_meyer_like_trace(length=3000, seed=4)

#: A trace built to leave the trained patterns: the last reading's bin
#: occurs nowhere else, so drawing it makes a history whose newest bin has
#: no table entry (the marginal fallback), and the marginal draw after it
#: makes a history only a shorter suffix matches.
_FALLBACK_TRACE = [0.5, 2.5, 0.5, 0.5, 2.5, 2.5, 0.5, 41.0]

_MASTERS = {f"history-{h}": CPMNoiseModel(_TRACE, history=h, seed=4) for h in range(1, 6)}
_MASTERS["fallbacks"] = CPMNoiseModel(_FALLBACK_TRACE, history=2, seed=0)


def _choice_sample(model: CPMNoiseModel, levels: set) -> float:
    """One CPM step drawing its reading with ``Random.choice``.

    Adds the level the history matched at to ``levels``: ``"full"``,
    ``"shorter"`` or ``"marginal"``.
    """
    bins = model._state_bins
    history = model.history
    for h in range(history, 0, -1):
        candidates = model._tables[h - 1].get(bins[history - h :])
        if candidates:
            levels.add("full" if h == history else "shorter")
            value = model._rng.choice(candidates)
            break
    else:
        levels.add("marginal")
        value = model._rng.choice(model._marginal)
    model._state_bins = bins[1:] + (int(value // model.bin_width_db),)
    return value


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(sorted(_MASTERS)),
    st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=4, unique=True),
    st.integers(min_value=0, max_value=2**32),
)
def test_noise_draw_matches_random_choice(master, seeds, order_seed):
    # Several forks of one master draw interleaved, each against its own
    # reference: a draw table that kept per-fork state would diverge.
    models = [_MASTERS[master].fork(seed) for seed in seeds]
    references = [_MASTERS[master].fork(seed) for seed in seeds]
    order = random.Random(order_seed)
    levels: set = set()
    for _ in range(300 * len(seeds)):
        i = order.randrange(len(seeds))
        assert models[i].sample() == _choice_sample(references[i], levels)
    for model, reference in zip(models, references):
        assert model._rng.getstate() == reference._rng.getstate()
        assert model._state_bins == reference._state_bins
    if master == "fallbacks":
        assert levels == {"full", "shorter", "marginal"}
