"""Small fixed-capacity dictionaries with bit-exact space accounting.

A SmallDict holds keys of any fixed width, each in its own slot; the slot
index doubles as the key's associated value.  Its accounted layout is
sparse: a header, an occupancy vector with one full-block summary bit per
block, and the occupied slots' keys.  Both bit vectors are words of the
dictionary itself.  Slot allocation always returns the lowest vacant
index, found from the lowest clear summary bit and then one block of the
occupancy word.
"""

from __future__ import annotations


class SmallDict:
    """Capacity-j dictionary of s-bit keys; each key owns one slot in [0, j).

    In memory a plain dict, `slot_of`, holds each key with its slot; read
    it directly for a lookup that makes no call.  Capacity and key width
    are taken as given: a capacity-0 dictionary refuses every insert.
    """

    def __init__(self, capacity: int, key_bits: int, summary_block: int = 8):
        if summary_block < 1:
            raise ValueError("summary_block must be positive")
        if capacity < 0 or key_bits < 0:
            raise ValueError("capacity and key_bits must be non-negative")
        self.capacity = capacity
        self.key_bits = key_bits
        self._block = summary_block
        n_blocks = -(-capacity // summary_block)
        self._all_blocks = (1 << n_blocks) - 1
        self._block_ones = (1 << summary_block) - 1
        # occupancy bit i is set while slot i is allocated; the bits past the
        # last slot start out set, so the last block fills like any other
        self._occ = (1 << (n_blocks * summary_block)) - (1 << capacity)
        # summary bit b is set while block b is completely allocated
        self._full = 0
        self.slot_of: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.slot_of)

    def insert(self, key: int) -> int:
        """Give `key` the lowest vacant slot and return it.

        Raises ValueError if the key is too wide, already present, or the
        dictionary is full; a dictionary below capacity always has a vacant
        slot.
        """
        slot_of = self.slot_of
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
        return self.slot_of.get(key)

    def delete(self, key: int) -> None:
        slot = self.slot_of.pop(key, None)
        if slot is None:
            raise KeyError(f"key {key} absent")
        self._occ ^= 1 << slot
        self._full &= ~(1 << (slot // self._block))

    def space_bits(self) -> int:
        """Serialized size: header, occupancy vector, summaries, stored keys."""
        return (64 + self.capacity + self._all_blocks.bit_length()
                + len(self.slot_of) * self.key_bits)
