"""Unit and property tests for path codes (paper §III-B1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pathcode import PathCode


def codes(max_length: int = 64):
    """Hypothesis strategy producing arbitrary path codes."""
    return st.integers(min_value=0, max_value=max_length).flatmap(
        lambda length: st.builds(
            PathCode,
            st.integers(min_value=0, max_value=max(0, (1 << length) - 1)),
            st.just(length),
        )
    )


class TestConstruction:
    def test_sink_code_is_one_zero_bit(self):
        sink = PathCode.sink()
        assert sink.length == 1
        assert str(sink) == "0"

    def test_from_bits_roundtrip(self):
        for bits in ("0", "1", "00101", "0010101", "00110010"):
            assert str(PathCode.from_bits(bits)) == bits

    def test_from_bits_rejects_garbage(self):
        with pytest.raises(ValueError):
            PathCode.from_bits("01x1")

    def test_empty_code(self):
        empty = PathCode.from_bits("")
        assert empty.length == 0
        assert str(empty) == "ε"

    def test_value_must_fit_length(self):
        with pytest.raises(ValueError):
            PathCode(4, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PathCode(-1, 3)
        with pytest.raises(ValueError):
            PathCode(0, -1)

    def test_immutability(self):
        code = PathCode.sink()
        with pytest.raises(AttributeError):
            code.value = 1


class TestPaperExamples:
    """The concrete codes of Figure 2."""

    def setup_method(self):
        self.sink = PathCode.from_bits("0")
        self.a = PathCode.from_bits("001")
        self.m = PathCode.from_bits("010")
        self.b = PathCode.from_bits("00101")
        self.e = PathCode.from_bits("0010101")
        self.d = PathCode.from_bits("0011001")

    def test_sink_extends_to_children(self):
        assert self.sink.extend(0b01, 2) == self.a
        assert self.sink.extend(0b10, 2) == self.m

    def test_parent_prefixes_child(self):
        assert self.sink.is_prefix_of(self.a)
        assert self.a.is_prefix_of(self.b)
        assert self.b.is_prefix_of(self.e)
        assert not self.b.is_prefix_of(self.d)

    def test_figure2_forwarding_check(self):
        # M overhears a packet for D with expected relay A (3 valid bits);
        # C's code (the paper gives D under C) is longer than A's, so any
        # node on D's path with more than 3 matched bits is a better relay.
        assert self.a.length == 3
        assert self.d.common_prefix_length(self.e) == 3  # diverge after "001"

    def test_c_example_position_encoding(self):
        # Figure 3: p's child c takes position 2 in a 5-bit space.
        p = PathCode.from_bits("0010")
        c = p.extend(2, 5)
        assert str(c) == "001000010"


class TestPrefixOperations:
    def test_is_prefix_of_self(self):
        code = PathCode.from_bits("0101")
        assert code.is_prefix_of(code)

    def test_longer_is_never_prefix_of_shorter(self):
        assert not PathCode.from_bits("0101").is_prefix_of(PathCode.from_bits("010"))

    def test_common_prefix_length(self):
        a = PathCode.from_bits("0010101")
        b = PathCode.from_bits("0011001")
        assert a.common_prefix_length(b) == 3
        assert b.common_prefix_length(a) == 3

    def test_common_prefix_with_empty(self):
        assert PathCode.from_bits("").common_prefix_length(PathCode.sink()) == 0

    def test_prefix_extraction(self):
        code = PathCode.from_bits("0010101")
        assert str(code.prefix(3)) == "001"
        assert code.prefix(0).length == 0
        assert code.prefix(7) == code

    def test_prefix_out_of_range(self):
        with pytest.raises(ValueError):
            PathCode.from_bits("01").prefix(3)

    def test_bit_access(self):
        code = PathCode.from_bits("0110")
        assert [code.bit(i) for i in range(4)] == [0, 1, 1, 0]
        assert list(code.bits()) == [0, 1, 1, 0]

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError):
            PathCode.from_bits("01").bit(2)


class TestExtend:
    def test_extend_appends_position(self):
        parent = PathCode.from_bits("001")
        child = parent.extend(5, 3)
        assert str(child) == "001101"

    def test_extend_zero_space_rejected(self):
        with pytest.raises(ValueError):
            PathCode.sink().extend(0, 0)

    def test_extend_position_overflow_rejected(self):
        with pytest.raises(ValueError):
            PathCode.sink().extend(4, 2)


class TestEqualityAndHash:
    def test_equal_codes_hash_equal(self):
        assert hash(PathCode.from_bits("010")) == hash(PathCode.from_bits("010"))

    def test_length_matters(self):
        # "01" != "001" even though both have value 1.
        assert PathCode(1, 2) != PathCode(1, 3)

    def test_usable_in_sets(self):
        s = {PathCode.from_bits("01"), PathCode.from_bits("01"), PathCode.from_bits("10")}
        assert len(s) == 2

    def test_not_equal_to_other_types(self):
        assert PathCode.sink() != "0"


class TestProperties:
    @given(codes(), st.integers(min_value=0, max_value=31), st.integers(min_value=1, max_value=5))
    def test_extend_makes_strict_prefix(self, parent, position, space):
        position %= 1 << space
        child = parent.extend(position, space)
        assert parent.is_prefix_of(child)
        assert child.length == parent.length + space
        assert not child.is_prefix_of(parent) or child == parent

    @given(codes(), codes())
    def test_common_prefix_is_symmetric(self, a, b):
        assert a.common_prefix_length(b) == b.common_prefix_length(a)

    @given(codes(), codes())
    def test_prefix_iff_common_prefix_covers(self, a, b):
        assert a.is_prefix_of(b) == (a.common_prefix_length(b) == a.length)

    @given(codes())
    def test_string_roundtrip(self, code):
        if code.length == 0:
            return
        assert PathCode.from_bits(str(code)) == code

    @given(codes(), st.integers(min_value=0, max_value=64))
    def test_prefix_of_prefix(self, code, n):
        n = min(n, code.length)
        assert code.prefix(n).is_prefix_of(code)

    @given(codes(), codes(), codes())
    def test_common_prefix_triangle(self, a, b, c):
        # cp(a,c) >= min(cp(a,b), cp(b,c)) — prefix metric ultrametricity.
        assert a.common_prefix_length(c) >= min(
            a.common_prefix_length(b), b.common_prefix_length(c)
        )
