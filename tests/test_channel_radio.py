"""Integration tests for the channel + radio layer."""

import gc

import pytest

from repro.radio.channel import Channel, _PendingReception, _Transmission, dbm_to_mw, mw_to_dbm
from repro.radio.frame import BROADCAST, Frame, FrameType
from repro.radio.noise import ConstantNoise
from repro.radio.propagation import LogDistancePathLoss
from repro.radio.radio import Radio, RadioError, RadioState
from repro.sim import MILLISECOND, SECOND, Simulator


def make_pair(distance=8.0, seed=1, fading=0.0):
    sim = Simulator(seed=seed)
    positions = [(0.0, 0.0), (distance, 0.0)]
    gains = LogDistancePathLoss(pl_d0=40.0, seed=seed, shadowing_sigma=0.0).gain_matrix(
        positions
    )
    channel = Channel(sim, gains, noise_model=ConstantNoise(), fading_sigma_db=fading)
    radios = [Radio(sim, channel, i) for i in range(2)]
    return sim, channel, radios


class TestUnitConversions:
    def test_dbm_roundtrip(self):
        assert mw_to_dbm(dbm_to_mw(-80.0)) == pytest.approx(-80.0)

    def test_zero_power_floors(self):
        assert mw_to_dbm(0.0) == -200.0


class TestRadioStates:
    def test_initially_off(self):
        _, _, (a, _) = make_pair()
        assert a.state is RadioState.OFF
        assert not a.is_on

    def test_on_off_cycle(self):
        sim, _, (a, _) = make_pair()
        a.turn_on()
        assert a.state is RadioState.IDLE
        a.turn_off()
        assert a.state is RadioState.OFF

    def test_transmit_while_off_rejected(self):
        _, _, (a, _) = make_pair()
        with pytest.raises(RadioError):
            a.transmit(Frame(src=0, dst=1, type=FrameType.DATA))

    def test_double_transmit_rejected(self):
        sim, _, (a, _) = make_pair()
        a.turn_on()
        a.transmit(Frame(src=0, dst=1, type=FrameType.DATA))
        with pytest.raises(RadioError):
            a.transmit(Frame(src=0, dst=1, type=FrameType.DATA))

    def test_turn_off_mid_tx_rejected(self):
        sim, _, (a, _) = make_pair()
        a.turn_on()
        a.transmit(Frame(src=0, dst=1, type=FrameType.DATA))
        with pytest.raises(RadioError):
            a.turn_off()

    def test_on_time_accounting(self):
        sim, _, (a, _) = make_pair()
        a.turn_on()
        sim.schedule(100 * MILLISECOND, a.turn_off)
        sim.schedule(200 * MILLISECOND, a.turn_on)
        sim.run(until=300 * MILLISECOND)
        assert a.on_time() == 200 * MILLISECOND

    def test_reset_on_time(self):
        sim, _, (a, _) = make_pair()
        a.turn_on()
        sim.schedule(50 * MILLISECOND, lambda: None)
        sim.run()
        a.reset_on_time()
        assert a.on_time() == 0


class TestDelivery:
    def test_good_link_delivers(self):
        sim, _, (a, b) = make_pair(distance=8.0)
        received = []
        b.on_receive = lambda frame, rssi: received.append((frame, rssi))
        a.turn_on()
        b.turn_on()
        a.transmit(Frame(src=0, dst=1, type=FrameType.DATA, length=40))
        sim.run(until=1 * SECOND)
        assert len(received) == 1
        assert received[0][1] < -40  # a plausible RSSI

    def test_out_of_range_never_delivers(self):
        sim, _, (a, b) = make_pair(distance=200.0)
        received = []
        b.on_receive = lambda frame, rssi: received.append(frame)
        a.turn_on()
        b.turn_on()
        for _ in range(5):
            a.transmit(Frame(src=0, dst=1, type=FrameType.DATA))
            sim.run(until=sim.now + 50 * MILLISECOND)
        assert received == []

    def test_receiver_off_misses(self):
        sim, _, (a, b) = make_pair(distance=8.0)
        received = []
        b.on_receive = lambda frame, rssi: received.append(frame)
        a.turn_on()
        a.transmit(Frame(src=0, dst=1, type=FrameType.DATA))
        sim.run(until=1 * SECOND)
        assert received == []

    def test_receiver_turning_off_mid_packet_misses(self):
        sim, _, (a, b) = make_pair(distance=8.0)
        received = []
        b.on_receive = lambda frame, rssi: received.append(frame)
        a.turn_on()
        b.turn_on()
        a.transmit(Frame(src=0, dst=1, type=FrameType.DATA, length=100))
        sim.schedule(200, b.turn_off)  # mid-airtime
        sim.run(until=1 * SECOND)
        assert received == []

    def test_strong_interferer_destroys_weak_reception(self):
        sim = Simulator(seed=1)
        # Receiver (2) is far from the sender (0) but right next to the
        # interferer (1): the wanted signal arrives ~24 dB under the
        # interference, far below any capture threshold.
        positions = [(0.0, 0.0), (10.0, 0.0), (8.0, 0.0)]
        gains = LogDistancePathLoss(pl_d0=40.0, seed=1, shadowing_sigma=0.0).gain_matrix(
            positions
        )
        channel = Channel(sim, gains, noise_model=ConstantNoise())
        radios = [Radio(sim, channel, i) for i in range(3)]
        received = []
        radios[2].on_receive = lambda frame, rssi: received.append(frame)
        for r in radios:
            r.turn_on()
        radios[0].transmit(Frame(src=0, dst=2, type=FrameType.DATA, length=60))
        radios[1].transmit(Frame(src=1, dst=2, type=FrameType.WIFI, length=60))
        sim.run(until=1 * SECOND)
        assert received == []

    def test_delivery_observer_called(self):
        sim, channel, (a, b) = make_pair(distance=8.0)
        observed = []
        channel.delivery_observers.append(
            lambda receiver, frame, rssi: observed.append(receiver)
        )
        b.on_receive = lambda frame, rssi: None
        a.turn_on()
        b.turn_on()
        a.transmit(Frame(src=0, dst=1, type=FrameType.DATA))
        sim.run(until=1 * SECOND)
        assert observed == [1]

    def test_receptions_leave_no_cyclic_garbage(self):
        # A transmission and the receptions locked onto it must be freed by
        # reference counting; a cycle between them leaves every locked
        # frame to the cyclic collector.
        gc.collect()
        gc.disable()
        try:
            sim, channel, (a, b) = make_pair(distance=8.0)
            received = []
            b.on_receive = lambda frame, rssi: received.append(frame)
            a.turn_on()
            b.turn_on()
            a.transmit(Frame(src=0, dst=1, type=FrameType.DATA))
            sim.run(until=1 * SECOND)
            assert len(received) == 1
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [
                obj for obj in gc.garbage if isinstance(obj, (_Transmission, _PendingReception))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []

    def test_duplicate_radio_id_rejected(self):
        sim, channel, _ = make_pair()
        with pytest.raises(ValueError):
            Radio(sim, channel, 0)


class TestCCA:
    def test_quiet_channel_is_clear(self):
        sim, _, (a, b) = make_pair()
        a.turn_on()
        assert a.cca_clear()

    def test_transmission_trips_cca(self):
        sim, _, (a, b) = make_pair(distance=5.0)
        a.turn_on()
        b.turn_on()
        a.transmit(Frame(src=0, dst=1, type=FrameType.DATA, length=120))
        busy = []
        sim.schedule(500, lambda: busy.append(b.cca_clear()))
        sim.run(until=1 * SECOND)
        assert busy == [False]

    def test_cca_while_off_rejected(self):
        _, _, (a, _) = make_pair()
        with pytest.raises(RadioError):
            a.cca_clear()


class _FixedInterferer:
    """External source holding one in-band power at every node."""

    def __init__(self, dbm):
        self.dbm = dbm

    def interference_dbm_at(self, node_id):
        return self.dbm


class TestInterfererGrouping:
    """Interferers join the noise as ``noise + (i1 + i2)``, never ``(noise + i1) + i2``.

    The golden corpus runs one interferer, so only these pins would see the
    sum reassociated. The powers are chosen so the two groupings differ in
    the last bit, and each test asserts that they do.
    """

    INTERFERERS_DBM = (-93.7, -92.3)

    def _channel(self):
        sim, channel, radios = make_pair()
        for dbm in self.INTERFERERS_DBM:
            channel.add_interferer(_FixedInterferer(dbm))
        return sim, channel, radios

    def _groupings(self):
        noise_mw = dbm_to_mw(ConstantNoise().dbm)
        a_mw, b_mw = (dbm_to_mw(dbm) for dbm in self.INTERFERERS_DBM)
        return noise_mw + (a_mw + b_mw), (noise_mw + a_mw) + b_mw

    def test_energy_read_sums_interferers_first(self):
        _, channel, (a, _) = self._channel()
        a.turn_on()
        grouped, chained = self._groupings()
        assert mw_to_dbm(grouped) != mw_to_dbm(chained)
        assert channel.energy_dbm_at(0) == mw_to_dbm(grouped)

    def test_reception_sinr_sums_interferers_first(self):
        sim, channel, (a, b) = self._channel()
        prr = channel._prr
        sinrs = []

        def capture(sinr_db, frame_bytes):
            sinrs.append(sinr_db)
            return prr(sinr_db, frame_bytes)

        channel._prr = capture
        a.turn_on()
        b.turn_on()
        a.transmit(Frame(src=0, dst=1, type=FrameType.DATA))
        sim.run(until=1 * SECOND)
        rx_power = a.tx_power_dbm + channel.link_gain(0, 1)
        grouped, chained = self._groupings()
        assert rx_power - mw_to_dbm(grouped) != rx_power - mw_to_dbm(chained)
        assert sinrs == [rx_power - mw_to_dbm(grouped)]


class TestFading:
    def test_fading_stable_within_bucket(self):
        sim, channel, _ = make_pair(fading=3.0)
        assert channel.fading_db(0, 1) == channel.fading_db(0, 1)
        assert channel.fading_db(0, 1) == channel.fading_db(1, 0)  # symmetric

    def test_fading_changes_across_buckets(self):
        sim, channel, _ = make_pair(fading=3.0)
        first = channel.fading_db(0, 1)
        sim.schedule(channel.fading_coherence + 1, lambda: None)
        sim.run()
        second = channel.fading_db(0, 1)
        assert first != second

    def test_fading_disabled_is_zero(self):
        _, channel, _ = make_pair(fading=0.0)
        assert channel.fading_db(0, 1) == 0.0

    def test_expected_prr_reflects_distance(self):
        _, channel, _ = make_pair(distance=8.0)
        assert channel.expected_prr(0, 1) > 0.9
        _, far_channel, _ = make_pair(distance=50.0)
        assert far_channel.expected_prr(0, 1) == 0.0
