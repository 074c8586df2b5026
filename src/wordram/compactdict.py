"""Small fixed-capacity dictionaries with bit-exact space accounting.

A SmallDict is accounted as a packed slot array of short keys; the slot
index doubles as the key's associated value, so storage is one field per
slot plus an occupancy vector with one full-block summary bit per block.
Both bit vectors are words of the dictionary itself.  Slot allocation
always returns the lowest vacant index, found from the lowest clear
summary bit and then one block of the occupancy word.
"""

from __future__ import annotations


class SmallDict:
    """Capacity-j dictionary of s-bit keys; each key owns one slot in [0, j).

    The packed key array is the accounted layout; in memory a plain dict
    holds each key with its slot.  Capacity and key width are clamped to 4
    because the sizing formulas degenerate below that.
    """

    def __init__(self, capacity: int, key_bits: int, summary_block: int = 8):
        if summary_block < 1:
            raise ValueError("summary_block must be positive")
        self.capacity = max(4, capacity)
        self.key_bits = max(4, key_bits)
        self._block = summary_block
        n_blocks = -(-self.capacity // summary_block)
        self._all_blocks = (1 << n_blocks) - 1
        self._block_ones = (1 << summary_block) - 1
        # occupancy bit i is set while slot i is allocated; the bits past the
        # last slot start out set, so the last block fills like any other
        self._occ = (1 << (n_blocks * summary_block)) - (1 << self.capacity)
        # summary bit b is set while block b is completely allocated
        self._full = 0
        self._slot_of: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._slot_of)

    def insert(self, key: int) -> int:
        """Give `key` the lowest vacant slot and return it.

        Raises ValueError if the key is too wide, already present, or the
        dictionary is full; a dictionary below capacity always has a vacant
        slot.
        """
        slot_of = self._slot_of
        if key >> self.key_bits:
            raise ValueError(f"key {key} does not fit in {self.key_bits} bits")
        if key in slot_of:
            raise ValueError("duplicate")
        if len(slot_of) >= self.capacity:
            raise ValueError("bucket full")
        # lowest clear summary bit, then the lowest clear bit of that block
        open_blocks = self._full ^ self._all_blocks
        block_bit = open_blocks & -open_blocks
        base = (block_bit.bit_length() - 1) * self._block
        vacant = ~(self._occ >> base) & self._block_ones
        low = vacant & -vacant
        self._occ |= low << base
        if vacant == low:
            self._full |= block_bit
        slot = base + low.bit_length() - 1
        slot_of[key] = slot
        return slot

    def lookup(self, key: int) -> int | None:
        return self._slot_of.get(key)

    def delete(self, key: int) -> None:
        slot = self._slot_of.pop(key, None)
        if slot is None:
            raise KeyError(f"key {key} absent")
        self._occ ^= 1 << slot
        self._full &= ~(1 << (slot // self._block))

    def space_bits(self) -> int:
        """Serialized size: header, key array, occupancy vector, summaries."""
        return (64 + self.capacity * self.key_bits
                + self.capacity + self._all_blocks.bit_length())

    def occupied_space_bits(self) -> int:
        """Sparse serialization: header, occupancy, summaries, stored keys only."""
        return (64 + self.capacity + self._all_blocks.bit_length()
                + len(self._slot_of) * self.key_bits)
