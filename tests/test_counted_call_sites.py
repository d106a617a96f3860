"""The per-layer benchmark counts work by wrapping class methods.

``perfbench`` (see its README) wraps every method defined on a ``repro``
class and reads the call counts of a few of them as work counters: CCA
samples, noise draws, locked receptions, decoded frames and
transmissions. A refactor that inlined one of these calls into its caller
would silently zero a per-layer metric, so this test runs a tiny
duty-cycled network and holds each counted method to being a real method
on its class that the simulation calls.

The benchmark also replaces ``Simulator.schedule``/``schedule_at``/
``cancel`` (read through ``Simulator.__dict__``) and ``Simulator.run`` (its
sliced clock calls ``run(sim, until=...)``), so those stay plain functions,
and every event on the heap must have been pushed through ``schedule`` or
``schedule_at``: a component that bypassed them would escape the
benchmark's kernel span and callback tagging.
"""

from __future__ import annotations

import types

from repro.experiments.harness import Network, NetworkConfig
from repro.radio.channel import Channel, _PendingReception
from repro.radio.noise import CPMNoiseModel
from repro.radio.radio import Radio
from repro.sim.simulator import Simulator
from repro.topology import random_uniform

COUNTED = [
    (Radio, "cca_clear"),
    (CPMNoiseModel, "sample"),
    (_PendingReception, "__init__"),
    (Radio, "deliver"),
    (Channel, "start_transmission"),
]


def test_counted_methods_are_called_on_a_duty_cycled_network(monkeypatch):
    counts = {}
    for owner, name in COUNTED:
        method = vars(owner).get(name)
        assert isinstance(method, types.FunctionType), f"{owner.__name__}.{name}"
        key = f"{owner.__name__}.{name}"
        counts[key] = 0

        def counted(*args, _method=method, _key=key, **kwargs):
            counts[_key] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    net = _duty_cycled_network()
    net.run(20.0)

    assert not net.config.always_on
    assert all(count > 0 for count in counts.values()), counts


def _duty_cycled_network():
    deployment = random_uniform(n=6, width=30, height=30, seed=2)
    return Network(NetworkConfig(topology=deployment, protocol="tele", seed=2, noise="cpm"))


def test_kernel_hooks_are_plain_functions():
    for name in ("schedule", "schedule_at", "cancel", "run"):
        assert isinstance(Simulator.__dict__.get(name), types.FunctionType), name


def test_every_event_is_scheduled_through_the_kernel_hooks(monkeypatch):
    scheduled = [0]
    cancelled = [0]
    for name in ("schedule", "schedule_at"):

        def counted(*args, _method=Simulator.__dict__[name], **kwargs):
            scheduled[0] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(Simulator, name, counted)
    cancel = Simulator.__dict__["cancel"]

    def counted_cancel(sim, event):
        before = sim.pending_events()
        cancel(sim, event)
        cancelled[0] += before - sim.pending_events()

    monkeypatch.setattr(Simulator, "cancel", counted_cancel)

    net = _duty_cycled_network()
    net.run(20.0)

    sim = net.sim
    assert cancelled[0] > 0
    assert scheduled[0] == sim.events_executed + cancelled[0] + sim.pending_events()
