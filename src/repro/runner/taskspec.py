"""Canonical task descriptions and content-addressed cache keys.

A :class:`TaskSpec` is the unit of work the execution engine schedules: one
experiment cell (one ``run_comparison`` invocation, one sweep point, …)
described entirely by JSON-serialisable parameters. Because the description
is canonical — sorted keys, plain scalars/lists/dicts only — it hashes to a
stable *fingerprint* that doubles as the result-cache key. The fingerprint
folds in :data:`repro.version.__version__`, so bumping the package version
invalidates every cached cell at once (simulation behaviour may have
changed), while an unchanged cell on an unchanged version is loaded from
disk instead of re-simulated.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.sim.simulator import KERNEL_BEHAVIOR_VERSION
from repro.version import __version__

#: Bump when the spec/result wire format changes incompatibly; folded into
#: every fingerprint so old cache entries become unreachable, not corrupt.
SPEC_SCHEMA = 1


def canonical_json(value: Any) -> str:
    """Serialise ``value`` to the canonical JSON text used for hashing.

    Sorted keys and tight separators make the text independent of dict
    insertion order; anything non-JSON-serialisable is a hard error (a cache
    key must never silently depend on ``repr`` of an arbitrary object).
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def fingerprint_of(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable experiment cell.

    ``kind`` selects the experiment record that runs it (see
    :mod:`repro.experiments.registry`);
    ``params`` must be JSON-serialisable and fully determine the cell's
    outcome. ``label`` and ``fault`` are *not* part of the fingerprint:
    the label is cosmetic and the fault hook exists only so tests can
    inject worker crashes/hangs/errors without changing cache identity.
    """

    kind: str
    params: Dict[str, Any]
    label: str = ""
    fault: Optional[Dict[str, Any]] = field(default=None)

    @property
    def fingerprint(self) -> str:
        """Content hash of (schema, kind, params, repro + kernel versions).

        :data:`repro.sim.KERNEL_BEHAVIOR_VERSION` is folded in so that a
        digest-affecting kernel change (bumped alongside the golden corpus
        in ``tests/golden/``) invalidates every cached cell even when the
        package version is unchanged — stale cells re-simulate instead of
        silently mixing two kernels' results in one grid.
        """
        return fingerprint_of(
            {
                "schema": SPEC_SCHEMA,
                "kind": self.kind,
                "kernel": KERNEL_BEHAVIOR_VERSION,
                "params": self.params,
                "version": __version__,
            }
        )

    @property
    def name(self) -> str:
        """Human-readable cell name for progress/telemetry lines."""
        return self.label or f"{self.kind}[{self.fingerprint[:10]}]"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (crosses the process boundary to workers)."""
        return {
            "kind": self.kind,
            "params": self.params,
            "label": self.label,
            "fault": self.fault,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=data["kind"],
            params=dict(data["params"]),
            label=data.get("label", "") or "",
            fault=data.get("fault"),
        )


# --------------------------------------------------------------- spec builders

def _schedule(
    defaults: Mapping[str, Any], overrides: Mapping[str, Any], driver: str
) -> Dict[str, Any]:
    """``defaults`` updated by ``overrides``, which must all be known keys."""
    schedule = dict(defaults)
    for key, value in overrides.items():
        if key not in schedule:
            raise TypeError(f"unknown {driver} argument: {key!r}")
        schedule[key] = value
    return schedule


def comparison_spec(
    variant: str,
    zigbee_channel: int = 26,
    seed: int = 0,
    **kwargs: Any,
) -> TaskSpec:
    """Spec for one :func:`repro.experiments.comparison.run_comparison` cell.

    The fingerprint covers the *derived* :class:`NetworkConfig` (via its
    canonical ``to_dict``), not just the front-end arguments, so any change
    to how a variant maps onto a network configuration invalidates the cache.
    """
    from repro.experiments.comparison import COMPARISON_DEFAULTS, config_for

    schedule = _schedule(COMPARISON_DEFAULTS, kwargs, "run_comparison")
    config = config_for(variant, zigbee_channel, seed)
    return TaskSpec(
        kind="comparison",
        params={
            "variant": variant,
            "zigbee_channel": zigbee_channel,
            "seed": seed,
            "schedule": schedule,
            "config": config.to_dict(),
        },
        label=f"{variant}/ch{zigbee_channel}/seed{seed}",
    )


def chaos_spec(
    variant: str,
    scenario: str = "mixed",
    intensity: float = 0.5,
    seed: int = 0,
    zigbee_channel: int = 26,
    **kwargs: Any,
) -> TaskSpec:
    """Spec for one :func:`repro.experiments.chaos.run_chaos` cell.

    The fingerprint covers the derived :class:`NetworkConfig` *including
    the canonical fault plan*, so editing a scenario preset (or the plan
    builder) invalidates cached chaos cells while leaving fault-free
    comparison cells untouched.
    """
    from repro.experiments.chaos import CHAOS_DEFAULTS, chaos_config

    schedule = _schedule(CHAOS_DEFAULTS, kwargs, "run_chaos")
    config = chaos_config(
        variant,
        scenario,
        intensity,
        seed,
        zigbee_channel,
        n_controls=schedule["n_controls"],
        control_interval_s=schedule["control_interval_s"],
    )
    return TaskSpec(
        kind="chaos",
        params={
            "variant": variant,
            "scenario": scenario,
            "intensity": intensity,
            "seed": seed,
            "zigbee_channel": zigbee_channel,
            "schedule": schedule,
            "config": config.to_dict(),
        },
        label=f"chaos/{scenario}/{variant}/i{intensity:g}/seed{seed}",
    )


def lora_spec(
    variant: str,
    seed: int = 0,
    radio_profile: str = "lora",
    **kwargs: Any,
) -> TaskSpec:
    """Spec for one :func:`repro.experiments.lora.run_lora` cell.

    The fingerprint covers the derived :class:`NetworkConfig` *including
    the profile-derived field topology* (``config.to_dict()`` serialises
    the deployment positions), so editing the profile's propagation or
    PRR model — which moves the nodes — invalidates cached cells.
    """
    from repro.experiments.lora import LORA_DEFAULTS, lora_config

    schedule = _schedule(LORA_DEFAULTS, kwargs, "run_lora")
    config = lora_config(variant, seed=seed, radio_profile=radio_profile)
    return TaskSpec(
        kind="lora",
        params={
            "variant": variant,
            "seed": seed,
            "radio_profile": radio_profile,
            "schedule": schedule,
            "config": config.to_dict(),
        },
        label=f"lora/{radio_profile}/{variant}/seed{seed}",
    )


def wake_interval_spec(
    wake_ms: int,
    protocol: str = "tele",
    seed: int = 1,
    n_controls: int = 12,
    converge_seconds: float = 240.0,
) -> TaskSpec:
    """Spec for one wake-interval sweep point."""
    from repro.protocols import REGISTRY

    # Reject unregistered protocols at spec-build time, not in a worker.
    REGISTRY.get(protocol)
    return TaskSpec(
        kind="wake-interval",
        params={
            "wake_ms": int(wake_ms),
            "protocol": protocol,
            "seed": seed,
            "n_controls": n_controls,
            "converge_seconds": converge_seconds,
        },
        label=f"wake{wake_ms}ms/{protocol}/seed{seed}",
    )


def network_size_spec(
    size: int,
    field_density: float = 170.0,
    seed: int = 1,
    n_controls: int = 10,
) -> TaskSpec:
    """Spec for one network-size sweep point."""
    return TaskSpec(
        kind="network-size",
        params={
            "size": int(size),
            "field_density": field_density,
            "seed": seed,
            "n_controls": n_controls,
        },
        label=f"n{size}/seed{seed}",
    )


def scale_spec(
    topo: str = "forest",
    size: int = 2000,
    seed: int = 1,
    spatial_index: object = True,
    **kwargs: Any,
) -> TaskSpec:
    """Spec for one city-scale cell (:func:`repro.experiments.scale.scale_point`).

    ``topo``/``size``/``seed`` deterministically rebuild the deployment in
    the worker (like ``network-size``), so positions need not ride in the
    params; ``spatial_index`` is part of the fingerprint because toggling
    the index must never be able to alias a cached brute-force run.
    """
    from repro.experiments.harness import _normalize_spatial_index
    from repro.experiments.scale import SCALE_DEFAULTS, SCALE_TOPOLOGIES

    if topo not in SCALE_TOPOLOGIES:
        raise ValueError(f"unknown scale topology {topo!r}; choose from {SCALE_TOPOLOGIES}")
    schedule = _schedule(SCALE_DEFAULTS, kwargs, "scale_point")
    normalized = _normalize_spatial_index(spatial_index)
    return TaskSpec(
        kind="scale",
        params={
            "topo": topo,
            "size": int(size),
            "seed": int(seed),
            "spatial_index": None if normalized is None else normalized.to_dict(),
            "schedule": schedule,
        },
        label=f"scale/{topo}/n{size}/seed{seed}"
        + ("" if normalized is not None else "/dense"),
    )


def soak_spec(
    variant: str = "tele",
    seed: int = 0,
    zigbee_channel: int = 26,
    **kwargs: Any,
) -> TaskSpec:
    """Spec for one endurance cell (:func:`repro.experiments.soak.run_soak`).

    The fingerprint covers the derived :class:`NetworkConfig` *including
    the mobility/battery/reclamation knobs* (via its canonical ``to_dict``),
    so a zero-churn zero-depletion soak fingerprints exactly like the
    comparison config plus the soak schedule — and any change to how the
    endurance knobs map onto a config invalidates cached cells.
    """
    from repro.experiments.soak import SOAK_DEFAULTS, soak_config

    schedule = _schedule(SOAK_DEFAULTS, kwargs, "run_soak")
    config = soak_config(
        variant,
        seed,
        zigbee_channel,
        churn_intensity=schedule["churn_intensity"],
        battery_mah=schedule["battery_mah"],
        reclaim_ttl_s=schedule["reclaim_ttl_s"],
        converge_seconds=schedule["converge_seconds"],
    )
    return TaskSpec(
        kind="soak",
        params={
            "variant": variant,
            "seed": seed,
            "zigbee_channel": zigbee_channel,
            "schedule": schedule,
            "config": config.to_dict(),
        },
        label=(
            f"soak/{variant}/i{schedule['churn_intensity']:g}"
            f"/{schedule['duration_s']:g}s/seed{seed}"
        ),
    )


def selftest_spec(
    index: int, sleep_s: float = 0.0, payload: int = 0, **extra: Any
) -> TaskSpec:
    """Cheap deterministic cell for engine tests and throughput canaries."""
    return TaskSpec(
        kind="selftest",
        params={"index": int(index), "sleep_s": float(sleep_s), "payload": int(payload)},
        label=f"selftest{index}",
        **extra,
    )
