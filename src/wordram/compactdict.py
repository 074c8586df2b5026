"""Small fixed-capacity dictionaries with bit-exact space accounting.

A SmallDict is accounted as a packed slot array of short keys; the slot
index doubles as the key's associated value, so storage is one field per
slot plus an occupancy vector with block summaries.  Slot allocation always
returns the lowest vacant index, found by scanning full-block summary bits
and then one occupancy word.
"""

from __future__ import annotations


class VacancyTracker:
    """Occupancy bit vector with per-block full/not-full summary bits.

    Summary bit b is set when block b is completely allocated, so the
    lowest vacant slot is found from the lowest clear summary bit.
    """

    def __init__(self, slots: int, block: int):
        if slots < 1 or block < 1:
            raise ValueError("slots and block must be positive")
        self.slots = slots
        self.block = block
        self.n_blocks = -(-slots // block)
        self._occ = 0
        self._full = 0
        self._free = slots

    @property
    def free_count(self) -> int:
        return self._free

    def alloc(self) -> int:
        if self._free == 0:
            raise ValueError("no vacant slot")
        # lowest clear summary bit, then the lowest clear bit of that block
        open_blocks = ~self._full & ((1 << self.n_blocks) - 1)
        b = (open_blocks & -open_blocks).bit_length() - 1
        base = b * self.block
        ones = (1 << min(self.block, self.slots - base)) - 1
        vacant = ~(self._occ >> base) & ones
        low = vacant & -vacant
        self._occ |= low << base
        self._free -= 1
        if vacant == low:
            self._full |= 1 << b
        return base + low.bit_length() - 1

    def free(self, slot: int) -> None:
        if not self._occ >> slot & 1:
            raise ValueError(f"slot {slot} is not allocated")
        self._occ &= ~(1 << slot)
        self._full &= ~(1 << (slot // self.block))
        self._free += 1

    def space_bits(self) -> int:
        return self.slots + self.n_blocks


class SmallDict:
    """Capacity-j dictionary of s-bit keys; each key owns one slot in [0, j).

    The packed key array is the accounted layout; in memory a plain dict
    holds each key with its slot.  Capacity and key width are clamped to 4
    because the sizing formulas degenerate below that.
    """

    def __init__(self, capacity: int, key_bits: int, summary_block: int = 8):
        self.capacity = max(4, capacity)
        self.key_bits = max(4, key_bits)
        self._vt = VacancyTracker(self.capacity, summary_block)
        self._slot_of: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._slot_of)

    def insert(self, key: int) -> int:
        slot_of = self._slot_of
        if key >> self.key_bits:
            raise ValueError(f"key {key} does not fit in {self.key_bits} bits")
        if key in slot_of:
            raise ValueError("duplicate")
        if len(slot_of) >= self.capacity:
            raise ValueError("bucket full")
        slot = self._vt.alloc()
        slot_of[key] = slot
        return slot

    def lookup(self, key: int) -> int | None:
        return self._slot_of.get(key)

    def delete(self, key: int) -> None:
        slot = self._slot_of.pop(key, None)
        if slot is None:
            raise KeyError(f"key {key} absent")
        self._vt.free(slot)

    def space_bits(self) -> int:
        """Serialized size: header, key array, occupancy vector, summaries."""
        return 64 + self.capacity * self.key_bits + self._vt.space_bits()

    def occupied_space_bits(self) -> int:
        """Sparse serialization: header, occupancy, summaries, stored keys only."""
        return 64 + self._vt.space_bits() + len(self._slot_of) * self.key_bits
