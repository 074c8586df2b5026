"""Dynamic perfect hashing in space sublinear in the key length.

Keys are first reduced to O(log n) bits, then scattered over ~n/log^2(n)
buckets, each a SmallDict of short bucket-local keys whose slot index gives
the key's position inside the bucket's value interval.  A bucket holds its
own occupancy and full-block summary words, so placing, reading or removing
a key is one call into one bucket object.  Keys that land in a
full bucket or collide inside one spill into one more SmallDict, of full
keys, whose slots cover a small dedicated interval at the end of the
range; it hands out the lowest vacant spill slot, as a bucket does.  A live
key keeps its value until deleted; reinserting may assign a different
value.

Evaluating an absent key returns an arbitrary in-range value, as perfect
hashing semantics permit.  Deleting one is not harmless: delete only live
keys, since an absent key that shares a live key's bucket and short key
removes that key.

Routing a key (reduce, pick its bucket, hash it to its short key) runs as
one flat kernel, `_route`: the structure binds the reduction's terms, the
selector's byte tables and each bucket's multiplier and addend once, and
evaluates the three hashes inline.  The selector's byte tables are bound
as blocks of eight, padded with one shared all-zero table (a zero read
leaves the xor unchanged), and each block is one straight-line xor of
eight reads: a low block over the reduced key's low 64 bits and, since
reduced keys have at most 128 bits, an optional high block over the rest.
The classes in `hashing` remain the only definition of the hashes; the
kernel reads their terms through `terms()` and `tables()`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .compactdict import SmallDict
from .hashing import BucketHashFamily, MultiplyShiftHash, derive_seed

_MASK64 = (1 << 64) - 1


class RebuildRequired(RuntimeError):
    """Spill interval exhausted; the caller must rebuild with a fresh seed."""


@dataclass(frozen=True)
class PerfectHashConfig:
    capacity: int
    universe_bits: int
    reduced_bits: int
    bucket_count: int
    bucket_key_bits: int
    bucket_capacity: int
    spill_capacity: int
    summary_block: int

    @classmethod
    def create(cls, capacity: int, universe_bits: int) -> "PerfectHashConfig":
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if universe_bits < 3 or universe_bits > 128:
            raise ValueError("universe_bits out of range")
        lg_n = max(2.0, math.log2(capacity))
        ceil_lg_n = max(2, math.ceil(math.log2(max(2, capacity))))
        # reducing never widens a key
        reduced = min(3 * ceil_lg_n + 16, universe_bits)
        buckets = max(1, math.ceil(capacity / lg_n**2))
        lglg_u = math.log2(universe_bits)
        key_bits = max(4, math.ceil(6 * lglg_u))
        key_bits = min(key_bits, reduced)
        bucket_cap = max(16, math.ceil(lg_n**2 + lg_n ** (5 / 3)))
        spill = 8 * math.ceil(capacity / universe_bits)
        block = max(4, ceil_lg_n)
        return cls(capacity, universe_bits, reduced, buckets, key_bits,
                   bucket_cap, spill, block)

    @property
    def range_size(self) -> int:
        return self.bucket_count * self.bucket_capacity + self.spill_capacity

    @property
    def bucket_range(self) -> int:
        return self.bucket_count * self.bucket_capacity


class PerfectHash:
    def __init__(self, config: PerfectHashConfig, seed: int):
        self.config = config
        self._reduce = MultiplyShiftHash(
            derive_seed(seed, 0xF00D), config.universe_bits, config.reduced_bits
        )
        self._family = BucketHashFamily(
            derive_seed(seed, 0xFEED), config.reduced_bits,
            config.bucket_count, config.bucket_key_bits,
        )
        self._buckets = [
            SmallDict(config.bucket_capacity, config.bucket_key_bits, config.summary_block)
            for _ in range(config.bucket_count)
        ]
        self._spill = SmallDict(config.spill_capacity, config.universe_bits,
                                config.summary_block)
        # the spill's own key -> slot dict, read directly so that every op
        # probes the spill with one dict read (the dict and not its bound
        # get: copy.deepcopy would share a builtin method with the original)
        self._spilled = self._spill.slot_of
        self.live_count = 0
        self.spill_peak = 0
        self._universe_bits = config.universe_bits
        self._capacity = config.capacity
        # the routing kernel's terms, bound once from the hash objects
        self._rmult, self._radd, self._rmask, self._rshift = self._reduce.terms()
        tables = self._family.selector.tables()
        tables = tables + [[0] * 256] * (16 - len(tables))  # one shared zero table
        self._lo = tuple(tables[:8])
        self._hi = tuple(tables[8:]) if config.reduced_bits > 64 else None
        self._n_buckets = config.bucket_count
        members = [self._family.member(i + 1).terms() for i in range(config.bucket_count)]
        self._mults = [t[0] for t in members]
        self._adds = [t[1] for t in members]
        # every member maps reduced keys to bucket-local keys of one width
        _, _, self._mmask, self._mshift = members[0]
        self._cap = config.bucket_capacity
        self._spill_base = config.bucket_range

    def _route(self, key: int) -> tuple[int, int]:
        """(bucket, short key), bucket 0-based: the reduction, the selector
        and the bucket's member hash evaluated in one frame.

        The selector xors tables[i][byte i of r], lowest byte first, as
        `TabulationHash.__call__` does: eight reads from the low block over
        r's low 64 bits, and eight more from the high block over the rest
        when r is wider than 64 bits.
        """
        r = ((self._rmult * key + self._radd) & self._rmask) >> self._rshift
        t0, t1, t2, t3, t4, t5, t6, t7 = self._lo
        c0, c1, c2, c3, c4, c5, c6, c7 = (r & _MASK64).to_bytes(8, "little")
        b = t0[c0] ^ t1[c1] ^ t2[c2] ^ t3[c3] ^ t4[c4] ^ t5[c5] ^ t6[c6] ^ t7[c7]
        if self._hi is not None:
            t0, t1, t2, t3, t4, t5, t6, t7 = self._hi
            c0, c1, c2, c3, c4, c5, c6, c7 = (r >> 64).to_bytes(8, "little")
            b ^= t0[c0] ^ t1[c1] ^ t2[c2] ^ t3[c3] ^ t4[c4] ^ t5[c5] ^ t6[c6] ^ t7[c7]
        b %= self._n_buckets
        return b, ((self._mults[b] * r + self._adds[b]) & self._mmask) >> self._mshift

    def insert(self, key: int) -> tuple[int, bool]:
        """Assign a stable in-range value to `key`; returns (value, inserted).

        A key already resident in the spill is flagged as a duplicate;
        duplicates hiding in a bucket are indistinguishable from genuine
        collisions and are routed to the spill (callers must not insert
        live keys).  The key is placed with one call to its bucket's
        `SmallDict.insert`, whose refusal (bucket full, or short key already
        present) sends it to the spill.
        """
        if key >> self._universe_bits:
            raise ValueError("key does not fit the universe")
        slot = self._spilled.get(key)
        if slot is not None:
            return self._spill_base + slot, False
        if self.live_count >= self._capacity:
            raise ValueError("capacity exceeded")
        b, short = self._route(key)
        try:
            slot = self._buckets[b].insert(short)
        except ValueError:
            # short < 2**bucket_key_bits by construction, so the bucket
            # refused it for being full or for holding it already
            try:
                slot = self._spill.insert(key)
            except ValueError:
                # the key fits the universe and is not spilled, so the
                # spill refused it for being full
                raise RebuildRequired("rebuild required") from None
            self.live_count += 1
            if len(self._spilled) > self.spill_peak:
                self.spill_peak = len(self._spilled)
            return self._spill_base + slot, True
        self.live_count += 1
        return b * self._cap + slot, True

    def delete(self, key: int) -> bool:
        """Remove a live key; returns whether something was removed.

        Delete only live keys: an absent key that shares its route (bucket
        and short key) with a live one removes that key and returns True.
        """
        if key in self._spilled:
            self._spill.delete(key)
            self.live_count -= 1
            return True
        b, short = self._route(key)
        try:
            self._buckets[b].delete(short)
        except KeyError:
            return False
        self.live_count -= 1
        return True

    def evaluate(self, key: int) -> int:
        slot = self._spilled.get(key)
        if slot is not None:
            return self._spill_base + slot
        b, short = self._route(key)
        slot = self._buckets[b].lookup(short)
        if slot is None:
            return b * self._cap  # arbitrary in-range answer for non-live keys
        return b * self._cap + slot

    def space_bits(self) -> int:
        """Exact serialized size of every component."""
        return (
            5 * 64
            + self._reduce.representation_bits()
            + self._family.representation_bits()
            + sum(d.space_bits() for d in self._buckets)
            + self._spill.space_bits()
        )

    def rebuild(self, live_keys, seed: int) -> "PerfectHash":
        """Fresh structure over the caller-supplied live keys.

        Values are reassigned; the structure itself cannot enumerate live
        keys, which is the point of its size.
        """
        fresh = PerfectHash(self.config, seed)
        for key in live_keys:
            fresh.insert(key)
        return fresh
