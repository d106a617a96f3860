"""Differential digests: the spatial index must be behaviour-invisible.

Every pinned golden config is re-run with ``spatial_index=True`` — grid-hash
candidate culling with its squared-distance prefilter, sparse gain
materialisation — and must reproduce the exact digest pinned for the brute-force dense build.
This is the strongest equivalence statement in the suite: not "similar
results" but the same events, same RNG stream, same floats, across clean,
interference, fault-injection, and always-on scenarios.

A mismatch here (with ``test_golden_digests`` green) means the spatial
dispatch path diverged from the dense walk: a culled audible link, reordered
neighbour iteration, or a prefilter that dropped a pair inside the radius.
Fix the spatial path; never regenerate the corpus to match it.
"""

import pytest

from tests.golden import regenerate


@pytest.mark.parametrize("name", sorted(regenerate.GOLDEN))
def test_spatial_index_reproduces_pinned_digest(name):
    pinned = regenerate.load_pinned()[name]["digest"]
    computed = regenerate.compute_digest(name, spatial_index=True)
    assert computed == pinned, (
        f"golden config {name!r} diverged with spatial_index=True:\n"
        f"  pinned (dense): {pinned}\n"
        f"  spatial:        {computed}\n"
        "The spatial index changed simulated behaviour — a culled audible "
        "link, reordered neighbour iteration, or a prefilter miss. Fix "
        "the index; do not regenerate the corpus."
    )
