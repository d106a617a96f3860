"""Figure 6(a): path-code length vs hop count, Tight-grid and Sparse-linear.

Paper's claims to reproduce:
- Code length grows roughly linearly with hop count in both fields.
- In the 15×15 Tight-grid, 5 bytes (40 bits) of buffer suffice.
- Sparse-linear codes are longer per hop than Tight-grid codes would suggest
  from density alone (bit space wasted on reserve positions per hop).
"""

from repro.metrics.stats import mean

from .conftest import print_rows


def _rows(stats):
    by_hop = dict(stats["code_length_by_hop"])
    return [
        (hop, round(mean(lengths), 2), min(lengths), max(lengths))
        for hop, lengths in by_hop.items()
        if hop < 10**4
    ], by_hop


def test_fig6a_tight_grid(benchmark, get_construction):
    stats = benchmark.pedantic(
        lambda: get_construction("tight-grid"), rounds=1, iterations=1
    )
    rows, by_hop = _rows(stats)
    print_rows("Fig 6(a) Tight-grid: hop, avg/min/max code bits", rows)
    avg_by_hop = {r[0]: r[1] for r in rows}
    # Roughly linear growth: each extra hop adds a few bits; allow noise in
    # the sparsely populated deepest buckets.
    deeper = [avg_by_hop[h] for h in sorted(avg_by_hop) if h >= 1]
    assert all(b > a - 2.5 for a, b in zip(deeper, deeper[1:])), deeper
    populated = [avg_by_hop[h] for h in sorted(avg_by_hop) if 1 <= h <= 6]
    assert all(b > a for a, b in zip(populated, populated[1:])), populated
    # The paper: 5 bytes (40 bits) is enough for the Tight-grid field.
    max_bits = max(max(v) for v in by_hop.values())
    assert max_bits <= 40, f"codes unexpectedly long: {max_bits} bits"


def test_fig6a_sparse_linear(benchmark, get_construction):
    stats = benchmark.pedantic(
        lambda: get_construction("sparse-linear"), rounds=1, iterations=1
    )
    rows, by_hop = _rows(stats)
    print_rows("Fig 6(a) Sparse-linear: hop, avg/min/max code bits", rows)
    avg_by_hop = {r[0]: r[1] for r in rows}
    hops = sorted(h for h in avg_by_hop if h >= 1)
    assert hops, "no coded nodes"
    # Linear-ish growth over depth: compare shallow vs deep thirds.
    shallow = mean([avg_by_hop[h] for h in hops[: len(hops) // 3] or hops[:1]])
    deep = mean([avg_by_hop[h] for h in hops[-len(hops) // 3 :] or hops[-1:]])
    assert deep > shallow * 2, (shallow, deep)
