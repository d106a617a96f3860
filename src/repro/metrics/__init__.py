"""Measurement: per-request control outcomes and network-wide counters.

- :mod:`repro.metrics.control` — one record per remote-control request
  (delivery, one-way latency, ATHX, end-to-end ack) with grouping by the
  destination's CTP hop count — the axes of Figures 7, 8 and 10.
- :mod:`repro.metrics.network` — radio duty cycle and transmission-count
  snapshots/deltas — Table III and Figure 9.
- :mod:`repro.metrics.streaming` — memory-flat windowed soak metrics
  (one JSONL line per window, running stream digest) for endurance
  runs — see ``docs/soak.md``.
- :mod:`repro.metrics.stats` — tiny summary-statistics helpers.
"""

from repro.metrics.control import ControlMetrics, ControlRecord
from repro.metrics.network import NetworkMetrics
from repro.metrics.stats import mean, percentile
from repro.metrics.streaming import StreamingMetrics

__all__ = [
    "ControlMetrics",
    "ControlRecord",
    "NetworkMetrics",
    "StreamingMetrics",
    "mean",
    "percentile",
]
