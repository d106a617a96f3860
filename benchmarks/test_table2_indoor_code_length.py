"""Table II: path-code length per hop on the 40-node indoor testbed.

Paper's measurements: average code length 4.23 bits at 1 hop growing to
15.8 bits at 6 hops; maximum 20 bits over the whole network.
"""

from repro.metrics.stats import mean

from .conftest import print_rows

PAPER_AVG = {1: 4.23, 2: 7.06, 3: 9.41, 4: 11.28, 5: 13.83, 6: 15.8}


def test_table2_indoor_code_lengths(benchmark, get_construction):
    stats = benchmark.pedantic(
        lambda: get_construction("indoor-testbed"), rounds=1, iterations=1
    )
    by_hop = dict(stats["code_length_by_hop"])
    rows = [
        (
            f"{hop} hops",
            f"avg={mean(lengths):.2f}",
            f"min={min(lengths)}",
            f"max={max(lengths)}",
            f"paper avg={PAPER_AVG.get(hop, '—')}",
        )
        for hop, lengths in by_hop.items()
        if 1 <= hop <= 8
    ]
    print_rows("Table II: indoor code length by hop", rows)
    coded = {h: v for h, v in by_hop.items() if 1 <= h <= 8}
    assert coded, "no coded nodes"
    # Monotone-ish growth with hop count (±1 bit tolerance between levels).
    averages = [mean(coded[h]) for h in sorted(coded)]
    assert all(b > a - 1.0 for a, b in zip(averages, averages[1:])), averages
    # Same order of magnitude as the paper's byte-scale codes: a 6-hop
    # network fits comfortably within ~24 bits.
    assert max(max(v) for v in coded.values()) <= 28
    # 1-hop codes are a handful of bits (paper: 4.23 on average).
    first = mean(coded[min(coded)])
    assert 2.0 <= first <= 8.0, first
