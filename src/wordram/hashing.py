"""Seeded hash families with small, exactly accountable representations.

Everything here is deterministic in the seed, so runs replay bit-for-bit.
Multiply-add-shift serves as the universal family; a per-byte table hash
stands in where a highly independent selector is called for (the table
hash only weakens the concentration analysis, not correctness, since every
consumer validates what it reads).
"""

from __future__ import annotations

import random

_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(master: int, label: int) -> int:
    """Split one master seed into independent per-component seeds."""
    z = (master ^ (label * _MIX)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class MultiplyShiftHash:
    """Universal hash from in_bits-bit keys to out_bits-bit values."""

    __slots__ = ("in_bits", "out_bits", "_mult", "_add", "_mask", "_shift")

    def __init__(self, seed: int, in_bits: int, out_bits: int):
        if not 1 <= out_bits <= in_bits:
            raise ValueError(f"need 1 <= out_bits <= in_bits, got {in_bits}->{out_bits}")
        rng = random.Random(seed)
        m = in_bits + out_bits
        self.in_bits = in_bits
        self.out_bits = out_bits
        self._mult = rng.getrandbits(m) | 1
        self._add = rng.getrandbits(m)
        self._mask = (1 << m) - 1
        self._shift = m - out_bits

    def __call__(self, x: int) -> int:
        return ((self._mult * x + self._add) & self._mask) >> self._shift

    def terms(self) -> tuple[int, int, int, int]:
        """(mult, add, mask, shift) with h(x) = ((mult*x + add) & mask) >> shift."""
        return self._mult, self._add, self._mask, self._shift

    def representation_bits(self) -> int:
        # multiplier + addend, each in_bits + out_bits wide
        return 2 * (self.in_bits + self.out_bits)


class TabulationHash:
    """Per-byte table hash from in_bits-bit keys onto {1, ..., buckets}."""

    __slots__ = ("buckets", "_tables")

    _TABLE_OUT = 30

    def __init__(self, seed: int, in_bits: int, buckets: int):
        if buckets < 1:
            raise ValueError("buckets must be positive")
        rng = random.Random(seed)
        self.buckets = buckets
        n_tables = -(-in_bits // 8)
        self._tables = [
            [rng.getrandbits(self._TABLE_OUT) for _ in range(256)]
            for _ in range(n_tables)
        ]

    def __call__(self, x: int) -> int:
        acc = 0
        for table in self._tables:
            acc ^= table[x & 0xFF]
            x >>= 8
        return acc % self.buckets + 1

    def tables(self) -> list[list[int]]:
        """Per-byte tables, lowest byte first: h(x) is the xor of
        tables[i][byte i of x], reduced mod buckets, plus 1."""
        return self._tables

    def representation_bits(self) -> int:
        return len(self._tables) * 256 * self._TABLE_OUT


class BucketHashFamily:
    """Bucket selector plus an independently seeded per-bucket hash array.

    The selector maps reduced keys onto {1, ..., buckets}; member(i) hashes
    reduced keys down to short bucket-local keys.
    """

    def __init__(self, seed: int, in_bits: int, buckets: int, member_out_bits: int):
        self.buckets = buckets
        self.selector = TabulationHash(derive_seed(seed, 0), in_bits, buckets)
        self._members = [
            MultiplyShiftHash(derive_seed(seed, i + 1), in_bits, member_out_bits)
            for i in range(buckets)
        ]

    def bucket_of(self, reduced_key: int) -> int:
        return self.selector(reduced_key)

    def member(self, index: int) -> MultiplyShiftHash:
        """The hash attached to bucket `index` (1-based, like the selector)."""
        return self._members[index - 1]

    def representation_bits(self) -> int:
        return self.selector.representation_bits() + sum(
            h.representation_bits() for h in self._members
        )
