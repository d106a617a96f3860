"""Figure 6(b): distribution of the number of children per hop.

Paper's claim: in a tight network some nodes solicit many children
(inflating single-hop bit space) which *reduces total hop count* and thereby
the maximum code length; Sparse-linear has small per-node child counts but
many more hops.
"""

from repro.metrics.stats import mean

from .conftest import print_rows


def test_fig6b_children_distribution(benchmark, get_construction):
    tight = get_construction("tight-grid")
    sparse = benchmark.pedantic(
        lambda: get_construction("sparse-linear"), rounds=1, iterations=1
    )
    tight_children = dict(tight["children_by_hop"])
    sparse_children = dict(sparse["children_by_hop"])
    rows = [
        ("tight", hop, round(mean(counts), 2), max(counts))
        for hop, counts in tight_children.items()
    ] + [
        ("sparse", hop, round(mean(counts), 2), max(counts))
        for hop, counts in sparse_children.items()
    ]
    print_rows("Fig 6(b) field, hop, avg children, max children", rows)

    def overall_mean(grouped):
        values = [c for counts in grouped.values() for c in counts]
        return mean(values)

    def max_hop(grouped):
        return max(h for h in grouped if h < 10**4)

    # Tight-grid: fewer hops; sparse-linear: far deeper tree.
    assert max_hop(sparse_children) > max_hop(tight_children) * 2
    # Branching exists in both: someone has multiple children.
    assert max(max(c) for c in tight_children.values()) >= 3
    assert overall_mean(tight_children) >= overall_mean(sparse_children) * 0.8
