"""Spatial-index equivalence: grid culling must never change behaviour.

The contracts held here (see docs/performance.md, "Spatial index"):

- grid range queries return a **superset** of the true disc, exactly
  refined by the caller;
- the candidate set is a superset of every receiver that can clear the
  interference floor, shadowing margin included, and candidacy is
  symmetric: the one-pass builders visit each unordered pair once;
- the builders that price each unordered pair once (``gain_matrix``, the
  spatial channel's audible rows, the city-scale ``link_graph``) give
  exactly what one ``link_gain_db`` call per ordered pair gives, and the
  spatial channel misses no pair it could ever hear;
- a spatial build keeps no shadowing draws; only single-pair queries
  (mobility, on-demand gains) memoise theirs;
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

from repro.experiments.harness import Network
from repro.experiments.scale import scale_config
from repro.radio.channel import Channel
from repro.radio.frame import Frame, FrameType
from repro.radio.noise import ConstantNoise
from repro.radio.profiles import get_radio_profile
from repro.radio.propagation import LogDistancePathLoss
from repro.radio.radio import Radio
from repro.radio.spatial import (
    GridIndex,
    SpatialChannel,
    SpatialIndexParams,
    interference_range_m,
)
from repro.sim import Simulator
from repro.topology import forest
from repro.topology.analysis import link_graph

# Coordinates use a bounded grid so hypothesis explores collisions and
# cell-boundary cases (multiples of typical cell sizes) aggressively.
coord = st.floats(
    min_value=-400.0, max_value=400.0, allow_nan=False, allow_infinity=False
)
positions_strategy = st.lists(st.tuples(coord, coord), min_size=1, max_size=60)


def reference_gains(model, positions):
    """One ``link_gain_db`` call per ordered pair, in row-major order.

    The construction the one-pass builders replaced; ``model`` should be
    fresh, so that nothing it memoised came from the code under test.
    """
    return {
        (a, b): model.link_gain_db(a, b, pos_a, pos_b)
        for a, pos_a in enumerate(positions)
        for b, pos_b in enumerate(positions)
        if a != b
    }


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
        reference = reference_gains(
            LogDistancePathLoss(pl_d0=40.0, seed=seed, shadowing_sigma=3.2), positions
        )
        sparse = Channel(
            Simulator(seed=seed),
            noise_model=ConstantNoise(),
            spatial=SpatialChannel(
                positions,
                LogDistancePathLoss(pl_d0=40.0, seed=seed, shadowing_sigma=3.2),
                cull_floor_dbm=-110.0,
            ),
        ).gains
        # Bit-identical floats wherever both materialise a pair…
        for key, gain in sparse.items():
            assert gain == reference[key]
        # …and nothing audible is missing (6σ margin over the -110 floor).
        for key, gain in reference.items():
            if gain >= -110.0 + 3.0:
                assert key in sparse

    @given(
        positions=st.lists(st.tuples(coord, coord), min_size=2, max_size=40),
        seed=st.integers(min_value=0, max_value=2**16),
        sigma=st.sampled_from([0.0, 3.2]),
        floor=st.floats(min_value=-120.0, max_value=-80.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_candidacy_symmetric_and_matches_link_gain(
        self, positions, seed, sigma, floor
    ):
        spatial = SpatialChannel(
            positions,
            LogDistancePathLoss(pl_d0=40.0, seed=seed, shadowing_sigma=sigma),
            cull_floor_dbm=floor,
        )
        candidates = [set(spatial.candidates(a)) for a in range(len(positions))]
        for a, row in enumerate(candidates):
            for b in range(len(positions)):
                if a == b:
                    continue
                assert (b in row) == (a in candidates[b]), (a, b)
                assert (spatial.link_gain(a, b) is not None) == (b in row), (a, b)

    def test_interference_range_monotone_in_floor(self):
        propagation = LogDistancePathLoss(pl_d0=40.0, seed=1, shadowing_sigma=3.2)
        ranges = [
            interference_range_m(propagation, 0.0, floor)
            for floor in (-90.0, -100.0, -110.0)
        ]
        assert ranges == sorted(ranges), "lower floor must mean larger radius"


class TestSinglePairReference:
    """Builders that price each unordered pair once equal the per-pair API."""

    @given(
        positions=st.lists(st.tuples(coord, coord), min_size=2, max_size=40),
        seed=st.integers(min_value=0, max_value=2**16),
        sigma=st.sampled_from([0.0, 3.2]),
    )
    @settings(max_examples=80, deadline=None)
    def test_builders_match_reference(self, positions, seed, sigma):
        def model():
            return LogDistancePathLoss(pl_d0=40.0, seed=seed, shadowing_sigma=sigma)

        reference = reference_gains(model(), positions)
        assert list(model().gain_matrix(positions).items()) == list(
            reference.items()
        )
        channel = Channel(
            Simulator(seed=seed),
            noise_model=ConstantNoise(),
            spatial=SpatialChannel(positions, model(), cull_floor_dbm=-110.0),
        )
        rows, gains = {}, {}
        for a in range(len(positions)):
            for b in channel._spatial.candidates(a):
                gain = reference[(a, b)]
                if gain >= channel._audible_floor:
                    rows.setdefault(a, []).append((b, gain, (min(a, b), max(a, b))))
                    gains[(a, b)] = gain
        assert list(channel._audible.items()) == list(rows.items())
        assert channel.gains == gains

    def test_city_scale_link_graph_matches_reference(self):
        deployment = forest(n=600, seed=1)
        profile = get_radio_profile(None)
        model = LogDistancePathLoss(**deployment.propagation.to_dict())
        positions = deployment.positions
        expected = {node: [] for node in range(deployment.size)}
        # Every pair, not only those inside the culling radius: the sparse
        # graph must lose no link the whole field could carry.
        for a, pos_a in enumerate(positions):
            for b in range(a + 1, len(positions)):
                rx = min(
                    deployment.node_tx_power(a)
                    + model.link_gain_db(a, b, pos_a, positions[b]),
                    deployment.node_tx_power(b)
                    + model.link_gain_db(b, a, positions[b], pos_a),
                )
                if rx < profile.sensitivity_dbm:
                    continue
                if profile.prr(rx - profile.noise_floor_dbm, 40) >= 0.5:
                    expected[a].append(b)
                    expected[b].append(a)
        assert link_graph(deployment) == expected


class TestShadowingMemo:
    """City-scale builds keep no per-pair draws; single-pair queries do."""

    def test_spatial_build_memoises_nothing_and_a_move_only_its_pairs(self):
        net = Network(scale_config("forest", 600, 1))
        memo = net.deployment.propagation._shadowing
        assert memo == {}, f"the build left {len(memo)} shadowing draws behind"
        node = 7
        x, y = net.deployment.positions[node]
        net.channel.move_node(node, (x + 3.0, y - 2.0))
        spatial = net.channel._spatial
        assert set(memo) == {
            (min(node, b), max(node, b)) for b in spatial.candidates(node)
        }


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
