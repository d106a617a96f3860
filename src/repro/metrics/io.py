"""Persisting experiment results as JSON, and loading them back.

Comparison and sweep results serialise to plain dicts so runs can be saved,
diffed across code versions, and re-plotted without re-simulating. The
``*_from_dict`` loaders invert the serialisers exactly (``to_dict →
from_dict`` round-trips are property-tested), which is what lets the
:mod:`repro.runner` cache rehydrate a stored cell into a live
:class:`ComparisonResult` instead of re-running the simulation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.experiments.comparison import ComparisonResult
from repro.metrics.control import ControlMetrics, ControlRecord


def control_record_to_dict(record: ControlRecord) -> Dict[str, Any]:
    """JSON-ready dict of one control record."""
    return {
        "index": record.index,
        "destination": record.destination,
        "hop_count": record.hop_count,
        "sent_at": record.sent_at,
        "delivered_at": record.delivered_at,
        "acked_at": record.acked_at,
        "athx": record.athx,
        "via_unicast": record.via_unicast,
        "latency_s": record.latency_s,
    }


def comparison_to_dict(result: ComparisonResult) -> Dict[str, Any]:
    """JSON-ready dict of one comparison run (records included)."""
    out: Dict[str, Any] = {
        "variant": result.variant,
        "zigbee_channel": result.zigbee_channel,
        "seed": result.seed,
        "n_controls": result.n_controls,
        "pdr": result.pdr,
        "pdr_by_hop": {str(k): v for k, v in result.pdr_by_hop.items()},
        "latency_by_hop": {str(k): v for k, v in result.latency_by_hop.items()},
        "mean_latency": result.mean_latency,
        "tx_per_control": result.tx_per_control,
        "duty_cycle": result.duty_cycle,
        "athx_samples": [list(sample) for sample in result.athx_samples],
        "events_executed": result.events_executed,
    }
    if result.control_metrics is not None:
        out["records"] = [
            control_record_to_dict(r) for r in result.control_metrics.records
        ]
    return out


def control_record_from_dict(data: Dict[str, Any]) -> ControlRecord:
    """Inverse of :func:`control_record_to_dict`.

    ``latency_s`` in the serialised form is a derived property and is
    ignored on load.
    """
    return ControlRecord(
        index=data["index"],
        destination=data["destination"],
        hop_count=data["hop_count"],
        sent_at=data["sent_at"],
        delivered_at=data.get("delivered_at"),
        acked_at=data.get("acked_at"),
        athx=data.get("athx"),
        via_unicast=data.get("via_unicast", False),
    )


def comparison_from_dict(data: Dict[str, Any]) -> ComparisonResult:
    """Inverse of :func:`comparison_to_dict`.

    Integer-keyed by-hop maps come back from JSON with string keys and are
    restored; per-request records (when present) rehydrate into a live
    :class:`~repro.metrics.control.ControlMetrics`.
    """
    control_metrics = None
    if "records" in data:
        control_metrics = ControlMetrics()
        for record in data["records"]:
            control_metrics.add(control_record_from_dict(record))
    return ComparisonResult(
        variant=data["variant"],
        zigbee_channel=data["zigbee_channel"],
        seed=data["seed"],
        n_controls=data["n_controls"],
        pdr=data["pdr"],
        pdr_by_hop={int(k): v for k, v in data["pdr_by_hop"].items()},
        latency_by_hop={int(k): v for k, v in data["latency_by_hop"].items()},
        mean_latency=data["mean_latency"],
        tx_per_control=data["tx_per_control"],
        duty_cycle=data["duty_cycle"],
        athx_samples=[tuple(sample) for sample in data["athx_samples"]],
        control_metrics=control_metrics,
        events_executed=data.get("events_executed"),
    )


def load_results(path: Union[str, Path], rehydrate: bool = False) -> Any:
    """Read back a results file: ``repro run --out`` writes a list of cells.

    By default returns the plain dicts/lists as stored; with
    ``rehydrate=True`` the payload is converted back into
    :class:`ComparisonResult` object(s) via :func:`comparison_from_dict`.
    """
    payload = json.loads(Path(path).read_text())
    if not rehydrate:
        return payload
    if isinstance(payload, list):
        return [comparison_from_dict(item) for item in payload]
    return comparison_from_dict(payload)
