"""The per-layer benchmark counts work by wrapping class methods.

``perfbench`` (see its README) wraps every method defined on a ``repro``
class and reads the call counts of a few of them as work counters: CCA
samples, noise draws, locked receptions, decoded frames and
transmissions. A refactor that inlined one of these calls into its caller
would silently zero a per-layer metric, so this test runs a tiny
duty-cycled network and holds each counted method to being a real method
on its class that the simulation calls.
"""

from __future__ import annotations

import types

from repro.experiments.harness import Network, NetworkConfig
from repro.radio.channel import Channel, _PendingReception
from repro.radio.noise import CPMNoiseModel
from repro.radio.radio import Radio
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

    deployment = random_uniform(n=6, width=30, height=30, seed=2)
    net = Network(NetworkConfig(topology=deployment, protocol="tele", seed=2, noise="cpm"))
    net.run(20.0)

    assert not net.config.always_on
    assert all(count > 0 for count in counts.values()), counts
