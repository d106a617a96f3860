"""Havoc plans: event validation and operation matching."""

import pytest

from repro.havoc import HavocEvent


class TestEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown havoc kind"):
            HavocEvent(kind="meteor")

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            HavocEvent(kind="enospc", start=-1)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            HavocEvent(kind="enospc", count=0)

    def test_stall_without_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_s"):
            HavocEvent(kind="slow_fsync")


class TestEventMatching:
    def test_empty_filters_match_everything(self):
        event = HavocEvent(kind="enospc")
        assert event.matches("write", "/any/path")
        assert event.matches("fsync", "")

    def test_op_filter_is_exact(self):
        event = HavocEvent(kind="enospc", op="write")
        assert event.matches("write", "x")
        assert not event.matches("fsync", "x")

    def test_scope_filter_is_substring(self):
        event = HavocEvent(kind="enospc", scope="journal")
        assert event.matches("write", "/run/journal/abc.jsonl")
        assert not event.matches("write", "/run/cache/abc.json")
