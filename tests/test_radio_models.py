"""Tests for propagation, noise, and the CC2420 PHY model."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.radio.cc2420 import CC2420, packet_airtime
from repro.radio.noise import CPMNoiseModel, ConstantNoise, synthesize_meyer_like_trace
from repro.radio.propagation import LogDistancePathLoss


class TestPropagation:
    def test_path_loss_grows_with_distance(self):
        model = LogDistancePathLoss(shadowing_sigma=0.0)
        assert model.path_loss_db(10) > model.path_loss_db(5) > model.path_loss_db(1)

    def test_exponent_four_slope(self):
        model = LogDistancePathLoss(path_loss_exponent=4.0, pl_d0=40.0, shadowing_sigma=0.0)
        # 40 dB per decade of distance at n=4.
        assert model.path_loss_db(10) - model.path_loss_db(1) == pytest.approx(40.0)

    def test_below_reference_distance_clamped(self):
        model = LogDistancePathLoss(shadowing_sigma=0.0)
        assert model.path_loss_db(0.1) == model.path_loss_db(1.0)

    def test_gains_are_symmetric(self):
        model = LogDistancePathLoss(seed=7)
        a, b = (0.0, 0.0), (13.0, 5.0)
        assert model.link_gain_db(1, 2, a, b) == model.link_gain_db(2, 1, b, a)

    def test_shadowing_is_stable_per_link(self):
        model = LogDistancePathLoss(seed=7)
        g1 = model.link_gain_db(1, 2, (0, 0), (10, 0))
        g2 = model.link_gain_db(1, 2, (0, 0), (10, 0))
        assert g1 == g2

    def test_shadowing_differs_across_links(self):
        model = LogDistancePathLoss(seed=7, shadowing_sigma=4.0)
        g12 = model.link_gain_db(1, 2, (0, 0), (10, 0))
        g13 = model.link_gain_db(1, 3, (0, 0), (10, 0))
        assert g12 != g13

    def test_gain_matrix_covers_all_ordered_pairs(self):
        model = LogDistancePathLoss(seed=1)
        gains = model.gain_matrix([(0, 0), (5, 0), (10, 0)])
        assert len(gains) == 6
        assert (0, 0) not in gains

    def test_invalid_reference_distance(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(d0=0)


class TestCC2420:
    def test_power_level_anchors(self):
        assert CC2420.power_level_to_dbm(31) == 0.0
        assert CC2420.power_level_to_dbm(3) == -25.0

    def test_power_level_interpolation_monotone(self):
        previous = -100.0
        for level in range(2, 32):
            dbm = CC2420.power_level_to_dbm(level)
            assert dbm >= previous
            previous = dbm

    def test_level_two_extrapolates_below_minus_25(self):
        assert CC2420.power_level_to_dbm(2) < -25.0

    def test_prr_monotone_in_snr(self):
        prrs = [CC2420.prr(snr, 40) for snr in range(-5, 15)]
        assert all(b >= a - 1e-12 for a, b in zip(prrs, prrs[1:]))

    def test_prr_extremes(self):
        assert CC2420.prr(-20.0, 40) == 0.0
        assert CC2420.prr(20.0, 40) == 1.0

    def test_longer_frames_are_more_fragile(self):
        snr = 4.0
        assert CC2420.prr(snr, 100) <= CC2420.prr(snr, 20)

    def test_transitional_region_exists(self):
        # Somewhere between 0 and 8 dB the PRR must be genuinely intermediate.
        mid = [CC2420.prr(snr / 2, 40) for snr in range(0, 17)]
        assert any(0.05 < p < 0.95 for p in mid)

    def test_airtime_scales_with_length(self):
        assert packet_airtime(100) > packet_airtime(20)
        # 46 bytes at 250 kbps = 1472 µs.
        assert packet_airtime(40) == pytest.approx(1472, abs=2)

    @given(st.floats(min_value=-9.9, max_value=14.9), st.integers(min_value=1, max_value=127))
    def test_property_prr_is_probability(self, snr, length):
        prr = CC2420.prr(snr, length)
        assert 0.0 <= prr <= 1.0


class TestNoise:
    def test_trace_length_and_values(self):
        trace = synthesize_meyer_like_trace(length=5000, seed=1)
        assert len(trace) == 5000
        assert all(-120 < x < -20 for x in trace)

    def test_trace_has_quiet_floor_and_bursts(self):
        trace = synthesize_meyer_like_trace(length=20_000, seed=1)
        quiet = sum(1 for x in trace if x < -92)
        loud = sum(1 for x in trace if x > -85)
        assert quiet > len(trace) * 0.7  # mostly floor
        assert loud > 0  # but bursts exist

    def test_trace_deterministic_per_seed(self):
        assert synthesize_meyer_like_trace(seed=3) == synthesize_meyer_like_trace(seed=3)
        assert synthesize_meyer_like_trace(seed=3) != synthesize_meyer_like_trace(seed=4)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            synthesize_meyer_like_trace(length=0)

    def test_cpm_samples_match_training_range(self):
        trace = synthesize_meyer_like_trace(length=5000, seed=2)
        model = CPMNoiseModel(trace, seed=5)
        samples = [model.sample() for _ in range(2000)]
        assert min(samples) >= min(trace) - 1e-9
        assert max(samples) <= max(trace) + 1e-9

    def test_cpm_preserves_burstiness(self):
        # Consecutive samples correlate: after a burst reading, the next
        # reading is much more likely to be loud than the marginal rate.
        trace = synthesize_meyer_like_trace(length=30_000, seed=2, burst_probability=0.02)
        model = CPMNoiseModel(trace, seed=5)
        samples = [model.sample() for _ in range(30_000)]
        loud = [x > -85 for x in samples]
        p_loud = sum(loud) / len(loud)
        follow = [loud[i + 1] for i in range(len(loud) - 1) if loud[i]]
        if follow:
            p_loud_after_loud = sum(follow) / len(follow)
            assert p_loud_after_loud > p_loud * 2

    def test_cpm_forks_are_independent(self):
        trace = synthesize_meyer_like_trace(length=3000, seed=2)
        master = CPMNoiseModel(trace, seed=5)
        a, b = master.fork(1), master.fork(2)
        sa = [a.sample() for _ in range(100)]
        sb = [b.sample() for _ in range(100)]
        assert sa != sb

    def test_cpm_validation(self):
        trace = synthesize_meyer_like_trace(length=100, seed=0)
        with pytest.raises(ValueError):
            CPMNoiseModel(trace, history=0)
        with pytest.raises(ValueError):
            CPMNoiseModel(trace, bin_width_db=0)
        with pytest.raises(ValueError):
            CPMNoiseModel(trace[:3], history=4)

    def test_constant_noise(self):
        noise = ConstantNoise(-95.0)
        assert noise.sample() == -95.0
        assert noise.fork(7).sample() == -95.0
