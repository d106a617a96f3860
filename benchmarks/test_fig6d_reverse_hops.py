"""Figure 6(d): downward (reverse) hop count vs CTP hop count.

Paper's claim: the reverse path (the encoded allocation chain) closely
tracks the CTP routing path — the ratio of average reverse hops to average
CTP hops is ≈ 1.08.
"""

from repro.experiments.codestats import mean_reverse_ratio

from .conftest import print_rows


def test_fig6d_reverse_vs_ctp_hops(benchmark, get_construction):
    tight = benchmark.pedantic(
        lambda: get_construction("tight-grid"), rounds=1, iterations=1
    )
    sparse = get_construction("sparse-linear")
    rows = []
    for label, stats in (("tight-grid", tight), ("sparse-linear", sparse)):
        samples = stats["reverse_hops"]
        ratio = mean_reverse_ratio(samples)
        rows.append((label, f"n={len(samples)}", f"reverse/ctp ratio={ratio:.3f}"))
        assert samples, f"{label}: no allocation chains"
        # Paper: ratio ≈ 1.08 — allow a modest band around parity.
        assert 0.85 <= ratio <= 1.35, (label, ratio)
        # Per-node sanity: reverse depth close to CTP depth for the vast
        # majority of nodes (absolute slack for shallow trees, relative for
        # the 40+ hop Sparse-linear chains).
        close = sum(
            1 for ctp, rev in samples if abs(ctp - rev) <= max(2, 0.25 * ctp)
        )
        assert close / len(samples) >= 0.75, (label, close / len(samples))
    print_rows("Fig 6(d) reverse vs CTP hop count", rows)
