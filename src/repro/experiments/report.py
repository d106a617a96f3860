"""Rendering experiment results as ASCII tables and CSV.

The benchmark suite prints through these helpers, and the CLI
(``python -m repro``) uses them to regenerate any paper table/figure as
text or CSV for external plotting.
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, List, Optional, Sequence

from repro.experiments.comparison import ComparisonResult
from repro.metrics.stats import percentile


def ascii_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """A minimal fixed-width table (no external dependencies)."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def csv_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text (quoted minimally; values here never contain commas)."""
    out = io.StringIO()
    out.write(",".join(headers) + "\n")
    for row in rows:
        out.write(",".join(str(cell) for cell in row) + "\n")
    return out.getvalue()


def fmt(value: Optional[float], spec: str) -> str:
    """``value`` formatted by ``spec``, or "n/a" when it was not measured.

    A measured zero is a value like any other and prints as one.
    """
    return "n/a" if value is None else format(value, spec)


def comparison_metrics(result: ComparisonResult) -> List[str]:
    """A comparison run's pdr, tx per control, duty cycle % and latency."""
    duty = result.duty_cycle
    return [
        fmt(result.pdr, ".3f"),
        fmt(result.tx_per_control, ".2f"),
        fmt(None if duty is None else duty * 100, ".2f"),
        fmt(result.mean_latency, ".2f"),
    ]


def comparison_rows(results: Dict[tuple, ComparisonResult]) -> List[List[object]]:
    """Rows for the protocol-comparison summary (Fig 7/9/10 + Table III)."""
    return [
        [variant, channel, *comparison_metrics(result)]
        for (variant, channel), result in sorted(results.items())
    ]


COMPARISON_HEADERS = ["protocol", "channel", "pdr", "tx_per_control", "duty_pct", "latency_s"]


def pdr_by_hop_rows(results: Dict[str, ComparisonResult]) -> List[List[object]]:
    """Figure 7 rows: one per (protocol, hop)."""
    rows: List[List[object]] = []
    for variant, result in sorted(results.items()):
        for hop, ratio in sorted(result.pdr_by_hop.items()):
            rows.append([variant, hop, f"{ratio:.3f}"])
    return rows


def latency_by_hop_rows(results: Dict[str, ComparisonResult]) -> List[List[object]]:
    """Figure 10 rows: one per (protocol, hop)."""
    rows: List[List[object]] = []
    for variant, result in sorted(results.items()):
        for hop, latency in sorted(result.latency_by_hop.items()):
            rows.append([variant, hop, f"{latency:.3f}"])
    return rows


def athx_rows(results: Dict[str, ComparisonResult]) -> List[List[object]]:
    """Figure 8 rows: every delivered packet's (protocol, ctp_hops, athx)."""
    rows: List[List[object]] = []
    for variant, result in sorted(results.items()):
        for hop, athx in result.athx_samples:
            rows.append([variant, hop, athx])
    return rows


def code_length_rows(by_hop: Dict[int, List[int]]) -> List[List[object]]:
    """Figure 6(a) / Table II rows from a code-length grouping."""
    rows: List[List[object]] = []
    for hop, lengths in sorted(by_hop.items()):
        if hop >= 10**4:
            continue
        rows.append(
            [
                hop,
                len(lengths),
                f"{sum(lengths) / len(lengths):.2f}",
                min(lengths),
                max(lengths),
            ]
        )
    return rows


CODE_LENGTH_HEADERS = ["hop", "n", "avg_bits", "min_bits", "max_bits"]


def children_rows(by_hop: Dict[int, List[int]]) -> List[List[object]]:
    """Figure 6(b) rows from a children-per-node grouping."""
    return [
        [hop, len(counts), f"{sum(counts) / len(counts):.2f}", max(counts)]
        for hop, counts in sorted(by_hop.items())
        if hop < 10**4
    ]


CHILDREN_HEADERS = ["hop", "n", "avg_children", "max_children"]


def convergence_rows(beacons: List[float]) -> List[List[object]]:
    """Figure 6(c) rows: nodes converged, and the beacon rounds they took."""
    return [
        ["n", len(beacons)],
        ["median", fmt(percentile(beacons, 50), ".1f")],
        ["p90", fmt(percentile(beacons, 90), ".1f")],
        ["max", fmt(max(beacons, default=None), ".1f")],
    ]


CONVERGENCE_HEADERS = ["metric", "beacons (512 ms each)"]
