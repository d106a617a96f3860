"""ResultCache under concurrent writers (several runs share one cache dir).

The hazard being pinned: a reader observes a damaged entry, decides to
quarantine it, and meanwhile a concurrent writer atomically installs a
fresh valid entry in the same slot. Without the re-verify-under-lock
discipline the reader's ``os.replace`` would rename the *fresh* entry to
``*.corrupt`` — destroying a valid result. With it, the quarantine is
abandoned and the fresh entry survives.
"""

import threading

import pytest

from repro.runner import ResultCache, selftest_spec


def result_for(index):
    return {"index": index, "value": index * 7}


class TestQuarantineReVerify:
    def test_stale_observation_never_quarantines_a_healed_entry(self, tmp_path):
        """The exact interleave: damaged read → concurrent heal → quarantine."""
        cache = ResultCache(tmp_path)
        spec = selftest_spec(0)
        cache.store(spec, result_for(0))
        path = cache.path_for(spec)
        healed = path.read_bytes()
        # The reader observed these damaged bytes...
        damaged = b"{truncated garbage"
        # ...but by quarantine time the writer has already healed the slot.
        cache._quarantine(path, "invalid JSON", observed=damaged)
        assert path.exists(), "fresh valid entry was renamed aside"
        assert path.read_bytes() == healed
        assert cache.quarantined == 0
        assert cache.load(spec) == result_for(0)

    def test_matching_observation_still_quarantines(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = selftest_spec(1)
        cache.store(spec, result_for(1))
        path = cache.path_for(spec)
        path.write_bytes(b"{truncated garbage")
        assert cache.load(spec) is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_vanished_entry_is_a_silent_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = selftest_spec(2)
        path = cache.path_for(spec)
        cache._quarantine(path, "gone", observed=b"whatever")
        assert cache.quarantined == 0

    def test_locking_flag_degrades_gracefully(self, tmp_path):
        """locking=False keeps the rename discipline (no flock taken)."""
        cache = ResultCache(tmp_path, locking=False)
        assert cache.locking is False
        spec = selftest_spec(3)
        cache.store(spec, result_for(3))
        assert cache.load(spec) == result_for(3)
        assert not (tmp_path / ".lock").exists()


class TestTwoWriterStress:
    @pytest.mark.parametrize("locking", [True, False])
    def test_two_writers_one_vandal_no_lost_results(self, tmp_path, locking):
        """Two writer threads + a corrupting thread hammer one cache dir.

        Invariants: no call ever raises, and once the dust settles every
        slot heals to the canonical result — corruption costs misses,
        never a wrong payload and never a permanently destroyed slot.
        """
        specs = [selftest_spec(i) for i in range(8)]
        rounds = 40
        caches = [ResultCache(tmp_path, locking=locking) for _ in range(3)]
        errors = []

        def writer(cache):
            try:
                for _ in range(rounds):
                    for spec in specs:
                        cache.store(spec, result_for(spec.params["index"]))
                        loaded = cache.load(spec)
                        # A hit must be the canonical payload; a miss means a
                        # vandalised entry was quarantined mid-heal.
                        if loaded is not None:
                            assert loaded == result_for(spec.params["index"])
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        def vandal(cache):
            try:
                for _ in range(rounds * 2):
                    for spec in specs[::2]:
                        path = cache.path_for(spec)
                        try:
                            path.write_bytes(b"\xff\xfe not json")
                        except OSError:
                            pass
                        cache.load(spec)  # exercises the quarantine path
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(caches[0],)),
            threading.Thread(target=writer, args=(caches[1],)),
            threading.Thread(target=vandal, args=(caches[2],)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors

        # Quiescent heal: one more store per slot must be durably loadable.
        final = ResultCache(tmp_path, locking=locking)
        for spec in specs:
            final.store(spec, result_for(spec.params["index"]))
            assert final.load(spec) == result_for(spec.params["index"])
