"""The havoc filesystem seam and the fail-closed storage it hardens.

The contract under test: any injected ENOSPC / EIO / torn write may cost
a retry or a cache miss, but never yields a wrong result.
"""

import errno

import pytest

import repro.havoc as havoc
from repro.havoc import HavocEvent, HavocPlan
from repro.havoc import fs as havocfs
from repro.runner import ParallelRunner
from repro.runner.cache import ResultCache
from repro.runner.taskspec import selftest_spec


def plan_of(*events):
    return HavocPlan(events=tuple(events), name="test")


@pytest.fixture(autouse=True)
def _clean_seams():
    yield
    havoc.deactivate()


class TestHavocFSDecisions:
    def test_window_covers_exact_op_indices(self, tmp_path):
        plan = plan_of(HavocEvent(kind="enospc", op="write", start=1, count=2))
        with havoc.active(plan):
            for index in range(4):
                target = tmp_path / f"f{index}"
                with open(target, "w") as handle:
                    if index in (1, 2):
                        with pytest.raises(OSError) as info:
                            havocfs.write(handle, "data")
                        assert info.value.errno == errno.ENOSPC
                    else:
                        havocfs.write(handle, "data")

    def test_decision_log_is_reproducible(self, tmp_path):
        plan = plan_of(
            HavocEvent(kind="eio", op="read", scope="victim", start=0)
        )
        target = tmp_path / "victim.json"
        target.write_bytes(b"x")
        logs = []
        for _ in range(2):
            with havoc.active(plan) as injector:
                with pytest.raises(OSError):
                    havocfs.read_bytes(target)
                assert havocfs.read_bytes(tmp_path / "victim.json") == b"x"
                logs.append(list(injector.log))
        assert logs[0] == logs[1]
        assert logs[0] == [("read", 0, str(target), "eio")]

    def test_torn_write_leaves_a_genuine_prefix(self, tmp_path):
        plan = plan_of(HavocEvent(kind="torn", op="write", start=0))
        target = tmp_path / "torn.json"
        with havoc.active(plan):
            with open(target, "w") as handle:
                with pytest.raises(OSError) as info:
                    havocfs.write(handle, "0123456789")
            assert info.value.errno == errno.ENOSPC
        content = target.read_bytes()
        assert content == b"01234"  # half landed, exactly like a full disk

    def test_scope_filters_by_path_substring(self, tmp_path):
        plan = plan_of(
            HavocEvent(kind="enospc", op="write", scope="queue", count=99)
        )
        with havoc.active(plan):
            with open(tmp_path / "cache-entry", "w") as handle:
                havocfs.write(handle, "ok")  # out of scope: untouched
            with open(tmp_path / "queue-marker", "w") as handle:
                with pytest.raises(OSError):
                    havocfs.write(handle, "boom")

    def test_passthrough_when_inactive(self, tmp_path):
        target = tmp_path / "plain"
        with open(target, "w") as handle:
            havocfs.write(handle, "plain")
        assert havocfs.read_bytes(target) == b"plain"
        assert havocfs.current() is None


class TestFailClosedCache:
    def test_torn_store_raises_and_installs_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = selftest_spec(0)
        plan = plan_of(HavocEvent(kind="torn", op="write", count=1))
        with havoc.active(plan):
            with pytest.raises(OSError):
                cache.store(spec, {"value": 1})
        # Fail closed: no entry, no temp litter, and a later store works.
        assert list((tmp_path / "cache").glob("*.json")) == []
        assert list((tmp_path / "cache").glob("*.tmp")) == []
        cache.store(spec, {"value": 1})
        assert cache.load(spec) == {"value": 1}

    def test_eio_load_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = selftest_spec(1)
        cache.store(spec, {"value": 2})
        plan = plan_of(
            HavocEvent(kind="eio", op="read", scope=spec.fingerprint)
        )
        with havoc.active(plan):
            assert cache.load(spec) is None  # miss, not a crash
        assert cache.load(spec) == {"value": 2}  # entry itself unharmed


class TestZeroFaultIdentity:
    def test_empty_plan_is_bit_identical_to_no_plan(self, tmp_path):
        specs = [selftest_spec(i) for i in range(3)]
        plain = ParallelRunner(jobs=1).run(specs)
        with havoc.active(plan_of()) as injector:
            under_plan = ParallelRunner(jobs=1).run(specs)
            assert injector.injected == 0
        assert [o.result for o in under_plan] == [o.result for o in plain]
