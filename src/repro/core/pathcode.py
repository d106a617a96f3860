"""The path code: a variable-length binary string encoding the reverse path.

Every node's code is its parent's code followed by the *position* the parent
allocated to it, written in the parent's current bit-space width (paper
§III-B1, Figure 2). The sink's code is the single bit ``0``. Consequently a
node ``a`` lies on the (encoded) path from the sink to ``d`` exactly when
``a``'s code is a prefix of ``d``'s code, and "closer to the destination"
means "longer matching prefix" — the two predicates the forwarding strategy
is built from.

Codes are immutable and hashable. Internally a code is ``(value, length)``
with the first (sink-side) bit in the most significant position of ``value``.
"""

from __future__ import annotations

from typing import Iterator


class PathCode:
    """An immutable binary path code."""

    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int) -> None:
        if length < 0:
            raise ValueError(f"negative code length: {length}")
        if value < 0:
            raise ValueError(f"negative code value: {value}")
        if length == 0 and value != 0:
            raise ValueError("empty code must have value 0")
        if length > 0 and value >= (1 << length):
            raise ValueError(f"value {value:#b} does not fit in {length} bits")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name: str, value: object) -> None:  # immutability
        raise AttributeError("PathCode is immutable")

    # ------------------------------------------------------------ constructors
    @classmethod
    def sink(cls) -> "PathCode":
        """The sink's code: one valid bit, ``0``."""
        return cls(0, 1)

    @classmethod
    def from_bits(cls, bits: str) -> "PathCode":
        """Parse from a string like ``"00101"`` (leading zeros significant)."""
        if bits == "":
            return cls(0, 0)
        if any(b not in "01" for b in bits):
            raise ValueError(f"invalid bit string: {bits!r}")
        return cls(int(bits, 2), len(bits))

    def extend(self, position: int, space_bits: int) -> "PathCode":
        """Child code: this code followed by ``position`` in ``space_bits`` bits.

        ``position`` ranges over ``[0, 2**space_bits)``; the paper reserves
        position 0 patterns implicitly by allocating from 1, but the encoding
        itself supports the full space.
        """
        if space_bits <= 0:
            raise ValueError(f"space must be at least 1 bit, got {space_bits}")
        if not 0 <= position < (1 << space_bits):
            raise ValueError(
                f"position {position} does not fit in {space_bits} bits"
            )
        return PathCode((self.value << space_bits) | position, self.length + space_bits)

    # ----------------------------------------------------------------- queries
    def is_prefix_of(self, other: "PathCode") -> bool:
        """True when this code's valid bits lead ``other``'s (or are equal)."""
        if self.length > other.length:
            return False
        return (other.value >> (other.length - self.length)) == self.value

    def common_prefix_length(self, other: "PathCode") -> int:
        """Number of leading bits the two codes share."""
        n = min(self.length, other.length)
        if n == 0:
            return 0
        a = self.value >> (self.length - n)
        b = other.value >> (other.length - n)
        x = a ^ b
        if x == 0:
            return n
        return n - x.bit_length()

    def prefix(self, n: int) -> "PathCode":
        """The first ``n`` bits as a code."""
        if not 0 <= n <= self.length:
            raise ValueError(f"prefix length {n} out of range 0..{self.length}")
        return PathCode(self.value >> (self.length - n) if n else 0, n)

    def bit(self, i: int) -> int:
        """The ``i``-th bit (0 = sink-side/most significant)."""
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> (self.length - 1 - i)) & 1

    def bits(self) -> Iterator[int]:
        """Iterate the code's bits, sink-side first."""
        for i in range(self.length):
            yield self.bit(i)

    # ---------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathCode):
            return NotImplemented
        return self.value == other.value and self.length == other.length

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        if self.length == 0:
            return "ε"
        return format(self.value, f"0{self.length}b")

    def __repr__(self) -> str:
        return f"PathCode({str(self)})"

