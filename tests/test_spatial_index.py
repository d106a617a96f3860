"""Spatial-index equivalence: grid culling must never change behaviour.

The contracts held here (see docs/performance.md, "Spatial index"):

- grid range queries return a **superset** of the true disc, exactly
  refined by the caller;
- the candidate set is a superset of every receiver that can clear the
  interference floor, shadowing margin included;
- sparse gains are bit-identical to the dense matrix's floats for every
  pair both materialise, and the sparse map misses no pair the channel
  could ever hear;
- a Channel built on a SpatialChannel derives the same audible rows and
  rx-power maps as one built on the dense O(N²) matrix;
- mobility (``move_node``) and dense gain patches (``update_link_gains``)
  invalidate the memoised per-source rx maps (the PR 3 caches) — a moved
  node must never be priced at its old position.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.channel import Channel
from repro.radio.frame import Frame, FrameType
from repro.radio.noise import ConstantNoise
from repro.radio.propagation import LogDistancePathLoss
from repro.radio.radio import Radio
from repro.radio.spatial import (
    GridIndex,
    SpatialChannel,
    SpatialIndexParams,
    interference_range_m,
    sparse_gain_matrix,
)
from repro.sim import Simulator

# Coordinates use a bounded grid so hypothesis explores collisions and
# cell-boundary cases (multiples of typical cell sizes) aggressively.
coord = st.floats(
    min_value=-400.0, max_value=400.0, allow_nan=False, allow_infinity=False
)
positions_strategy = st.lists(st.tuples(coord, coord), min_size=1, max_size=60)


def brute_force_disc(positions, center, radius):
    return sorted(
        i
        for i, p in enumerate(positions)
        if math.dist(p, center) <= radius
    )


class TestGridIndexSuperset:
    @given(
        positions=positions_strategy,
        center=st.tuples(coord, coord),
        radius=st.floats(min_value=0.0, max_value=150.0, allow_nan=False),
        cell=st.floats(min_value=2.0, max_value=200.0, allow_nan=False),
    )
    @settings(max_examples=120)
    def test_candidates_superset_of_disc(self, positions, center, radius, cell):
        index = GridIndex(positions, cell_size=cell)
        got = index.candidates_within(center, radius)
        assert got == sorted(got), "candidates must come back ascending"
        assert set(got) >= set(brute_force_disc(positions, center, radius))

    @given(
        positions=positions_strategy,
        node=st.integers(min_value=0, max_value=59),
        radius=st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_neighbors_exclude_self(self, positions, node, radius):
        node = node % len(positions)
        index = GridIndex(positions, cell_size=25.0)
        got = index.neighbors_of(node, radius)
        assert node not in got
        expected = set(brute_force_disc(positions, positions[node], radius))
        expected.discard(node)
        assert set(got) >= expected

    @given(positions=positions_strategy)
    @settings(max_examples=40)
    def test_move_keeps_queries_consistent(self, positions):
        index = GridIndex(positions, cell_size=30.0)
        index.move(0, (999.0, -999.0))
        # The moved node is findable at its new home, absent from a query
        # that covers the whole original field but not the new home, and no
        # node was lost from the index.
        assert 0 in index.candidates_within((999.0, -999.0), 1.0)
        assert 0 not in index.candidates_within((0.0, 0.0), 500.0)
        total = index.candidates_within((0.0, 0.0), 2_000.0)
        assert total == list(range(len(positions)))


class TestCullingSuperset:
    """Candidates cover every receiver that can clear the floor."""

    @given(
        positions=st.lists(st.tuples(coord, coord), min_size=2, max_size=40),
        seed=st.integers(min_value=0, max_value=2**16),
        floor=st.floats(min_value=-120.0, max_value=-80.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_candidates_cover_above_floor_pairs(self, positions, seed, floor):
        propagation = LogDistancePathLoss(
            pl_d0=40.0, seed=seed, shadowing_sigma=3.2
        )
        spatial = SpatialChannel(positions, propagation, cull_floor_dbm=floor)
        dense = propagation.gain_matrix(positions)
        for (a, b), gain in dense.items():
            if gain >= floor:
                assert b in spatial.candidates(a), (
                    f"pair {(a, b)} clears the floor ({gain:.1f} >= {floor}) "
                    "but was culled"
                )

    @given(
        positions=st.lists(st.tuples(coord, coord), min_size=2, max_size=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_sparse_gains_bit_identical_to_dense(self, positions, seed):
        propagation = LogDistancePathLoss(pl_d0=40.0, seed=seed, shadowing_sigma=3.2)
        dense = propagation.gain_matrix(positions)
        sparse, _ = sparse_gain_matrix(
            propagation, positions, interference_floor_dbm=-110.0
        )
        # Bit-identical floats wherever both materialise a pair…
        for key, gain in sparse.items():
            assert gain == dense[key]
        # …and nothing audible is missing (6σ margin over the -110 floor).
        for key, gain in dense.items():
            if gain >= -110.0 + 3.0:
                assert key in sparse

    def test_interference_range_monotone_in_floor(self):
        propagation = LogDistancePathLoss(pl_d0=40.0, seed=1, shadowing_sigma=3.2)
        ranges = [
            interference_range_m(propagation, 0.0, floor)
            for floor in (-90.0, -100.0, -110.0)
        ]
        assert ranges == sorted(ranges), "lower floor must mean larger radius"


def build_pair_of_channels(positions, seed, fading=0.0):
    """One dense and one spatial Channel over identical physics."""
    propagation = LogDistancePathLoss(pl_d0=40.0, seed=seed, shadowing_sigma=3.2)
    dense_gains = propagation.gain_matrix(positions)
    dense = Channel(
        Simulator(seed=seed),
        dense_gains,
        noise_model=ConstantNoise(),
        fading_sigma_db=fading,
    )
    spatial = Channel(
        Simulator(seed=seed),
        noise_model=ConstantNoise(),
        fading_sigma_db=fading,
        spatial=SpatialChannel(
            positions, propagation, cull_floor_dbm=-110.0 - 3.0 * fading
        ),
    )
    return dense, spatial


class TestChannelEquivalence:
    @pytest.mark.parametrize("fading", [0.0, 2.5])
    def test_audible_rows_and_rx_maps_match(self, fading):
        rng_positions = __import__("random").Random(7)
        positions = [
            (rng_positions.uniform(0, 300), rng_positions.uniform(0, 300))
            for _ in range(120)
        ]
        dense, spatial = build_pair_of_channels(positions, seed=3, fading=fading)
        assert dense._audible.keys() == spatial._audible.keys()
        for src in dense._audible:
            assert dense._audible[src] == spatial._audible[src]
            for bucket in (-1, 0, 4):
                want = dense._compute_rx_map(src, 0.0, bucket)
                got = spatial._compute_rx_map(src, 0.0, bucket)
                assert want == got
                assert all(
                    type(k) is int and type(v) is float for k, v in got.items()
                ), "rx maps must hold plain ints and floats"

    def test_link_gain_on_demand_matches_dense(self):
        rng = __import__("random").Random(11)
        positions = [(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(60)]
        dense, spatial = build_pair_of_channels(positions, seed=5)
        for a in range(len(positions)):
            for b in range(len(positions)):
                if a == b:
                    continue
                want = dense.link_gain(a, b)
                got = spatial.link_gain(a, b)
                if got is None:
                    # Culled ⇒ far below audibility in the dense map too.
                    assert want is None or want < -110.0
                else:
                    assert got == want
                    if want >= -110.0:
                        assert spatial.expected_prr(a, b) == dense.expected_prr(a, b)


def make_spatial_channel(positions, seed=1):
    sim = Simulator(seed=seed)
    propagation = LogDistancePathLoss(pl_d0=40.0, seed=seed, shadowing_sigma=0.0)
    channel = Channel(
        sim,
        noise_model=ConstantNoise(),
        spatial=SpatialChannel(positions, propagation, cull_floor_dbm=-110.0),
    )
    radios = [Radio(sim, channel, i) for i in range(len(positions))]
    return sim, channel, radios


class TestRxCacheInvalidation:
    """The memoised per-source rx maps must die with the topology they priced."""

    def _prime_cache(self, sim, channel, radios, src=0):
        radios[src].turn_on()
        radios[src].transmit(Frame(src=src, dst=1, type=FrameType.DATA))
        sim.run(until=sim.now + 10_000_000)
        assert src in channel._rx_cache
        return channel._rx_cache[src][3]

    def test_move_node_invalidates_rx_cache(self):
        positions = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]
        sim, channel, radios = make_spatial_channel(positions)
        for r in radios[1:]:
            r.turn_on()
        old_map = self._prime_cache(sim, channel, radios)
        assert 1 in old_map
        epoch_before = channel._fault_epoch
        channel.move_node(1, (5000.0, 5000.0))
        assert channel._fault_epoch > epoch_before
        assert channel.link_gain(0, 1) is None
        new_map = self._prime_cache(sim, channel, radios)
        assert new_map is not old_map, "stale rx map survived the move"
        assert 1 not in new_map, "moved node still priced at its old position"

    def test_move_node_back_restores_links(self):
        positions = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]
        sim, channel, radios = make_spatial_channel(positions)
        gain_before = channel.link_gain(0, 1)
        channel.move_node(1, (4000.0, 0.0))
        channel.move_node(1, (10.0, 0.0))
        # Shadowing is pinned to the node pair, so the gain comes back exact.
        assert channel.link_gain(0, 1) == gain_before
        assert 1 in channel.audible_neighbors(0)
        assert 0 in channel.audible_neighbors(1)

    def test_move_node_requires_spatial_mode(self):
        sim = Simulator(seed=1)
        propagation = LogDistancePathLoss(pl_d0=40.0, seed=1, shadowing_sigma=0.0)
        gains = propagation.gain_matrix([(0.0, 0.0), (10.0, 0.0)])
        channel = Channel(sim, gains, noise_model=ConstantNoise())
        with pytest.raises(ValueError, match="spatial"):
            channel.move_node(0, (1.0, 1.0))

    def test_update_link_gains_invalidates_rx_cache(self):
        sim = Simulator(seed=1)
        propagation = LogDistancePathLoss(pl_d0=40.0, seed=1, shadowing_sigma=0.0)
        positions = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]
        channel = Channel(
            sim, propagation.gain_matrix(positions), noise_model=ConstantNoise()
        )
        radios = [Radio(sim, channel, i) for i in range(3)]
        for r in radios:
            r.turn_on()
        radios[0].transmit(Frame(src=0, dst=1, type=FrameType.DATA))
        sim.run(until=sim.now + 10_000_000)
        old_map = channel._rx_cache[0][3]
        assert 1 in old_map
        channel.update_link_gains({(0, 1): None, (1, 0): None})
        assert 1 not in channel.audible_neighbors(0)
        radios[0].transmit(Frame(src=0, dst=2, type=FrameType.DATA))
        sim.run(until=sim.now + 10_000_000)
        new_map = channel._rx_cache[0][3]
        assert new_map is not old_map
        assert 1 not in new_map, "severed link still priced in the rx map"

    def test_spatial_rejects_dense_gains_too(self):
        positions = [(0.0, 0.0), (10.0, 0.0)]
        propagation = LogDistancePathLoss(pl_d0=40.0, seed=1, shadowing_sigma=0.0)
        with pytest.raises(ValueError, match="not both"):
            Channel(
                Simulator(seed=1),
                gains={(0, 1): -60.0},
                noise_model=ConstantNoise(),
                spatial=SpatialChannel(positions, propagation),
            )

    def test_culling_floor_above_audible_floor_rejected(self):
        positions = [(0.0, 0.0), (10.0, 0.0)]
        propagation = LogDistancePathLoss(pl_d0=40.0, seed=1, shadowing_sigma=0.0)
        with pytest.raises(ValueError, match="culling"):
            Channel(
                Simulator(seed=1),
                noise_model=ConstantNoise(),
                fading_sigma_db=3.0,  # audible floor −119; culling at −110 drops links
                spatial=SpatialChannel(positions, propagation, cull_floor_dbm=-110.0),
            )


class TestParams:
    def test_params_canonical_dict(self):
        params = SpatialIndexParams()
        assert params.to_dict() == {
            "cell_size_m": None,
            "interference_floor_dbm": -110.0,
            "shadow_sigma_multiple": 6.0,
        }
