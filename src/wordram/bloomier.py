"""Dynamic approximate key-value store for sparse vectors.

A universal hash compresses keys from a universe of size u down to a range
sized so that collisions are rare; hashed keys and their values live in one
exact dictionary, and the few keys whose hashes collide with earlier ones
live (unhashed) in a second exact dictionary.  Lookups of stored keys are
always exact; lookups of absent keys return 0 except when the hash collides
with a live key's hash, which happens with probability at most the
configured error rate.

Updates are assumed valid: insert only keys currently mapped to 0, delete
only keys currently mapped to nonzero.  Each update comes as a batch call
(``insert_all``, ``replace_all``, ``delete_all``) that checks the value it
writes once and evaluates the hash inline per key; the per-key calls are
one-key batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hashing import MultiplyShiftHash, derive_seed


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


@dataclass(frozen=True)
class BloomierConfig:
    max_items: int
    universe_bits: int
    value_bits: int
    error_rate: float
    hash_range_bits: int

    @classmethod
    def create(cls, max_items: int, universe_bits: int, value_bits: int,
               error_rate: float) -> "BloomierConfig":
        if max_items < 1:
            raise ValueError("max_items must be positive")
        if value_bits < 1:
            raise ValueError("value_bits must be positive")
        if not 0 < error_rate <= 1:
            raise ValueError("error_rate must be in (0, 1]")
        universe = 1 << universe_bits
        if universe < 2 * max_items:
            raise ValueError("universe must be at least twice max_items")
        spread = max_items * math.log2(universe / max_items)
        hash_range = _next_pow2(max(math.ceil(spread), math.ceil(max_items / error_rate)))
        return cls(max_items, universe_bits, value_bits, error_rate,
                   hash_range.bit_length() - 1)

    @property
    def hash_range(self) -> int:
        return 1 << self.hash_range_bits


class BloomierFilter:
    def __init__(self, config: BloomierConfig, seed: int):
        self.config = config
        self._hash = MultiplyShiftHash(
            derive_seed(seed, 0xB100), config.universe_bits, config.hash_range_bits
        )
        # each method evaluates the hash inline, saving a call per key
        self._mult, self._add, self._mask, self._shift = self._hash.terms()
        self._exact: dict[int, int] = {}   # colliding keys, stored verbatim
        self._hashed: dict[int, int] = {}  # hash image -> value

    @property
    def live_count(self) -> int:
        return len(self._exact) + len(self._hashed)

    def insert(self, key: int, value: int) -> None:
        self.insert_all((key,), value)

    def insert_all(self, keys, value: int) -> None:
        """Map each of `keys`, in order, from absent to a nonzero value.

        The value and the capacity are checked once, before the first
        write, so a rejected batch leaves the filter as it was.  The keys
        must not be live.  Inserting a live key finds its own hash image
        taken, so it stores a verbatim duplicate and counts twice in
        live_count; the filter cannot tell that from a collision without
        storing every key.  Callers that cannot rule it out keep their own
        record of present keys, as the range reporter's audit mirror does.
        """
        if value == 0:
            raise ValueError("value 0 means absent; use delete")
        if value >> self.config.value_bits:
            raise ValueError(f"value {value} exceeds {self.config.value_bits} bits")
        exact, hashed = self._exact, self._hashed
        if len(exact) + len(hashed) + len(keys) > self.config.max_items:
            raise ValueError("capacity exceeded")
        mult, add, mask, shift = self._mult, self._add, self._mask, self._shift
        for key in keys:
            hk = ((mult * key + add) & mask) >> shift
            if hk in hashed:
                exact[key] = value
            else:
                hashed[hk] = value

    def delete(self, key: int) -> None:
        self.delete_all((key,))

    def delete_all(self, keys) -> None:
        """Unmap each of `keys`, in order."""
        exact, hashed = self._exact, self._hashed
        mult, add, mask, shift = self._mult, self._add, self._mask, self._shift
        for key in keys:
            if key in exact:
                del exact[key]
            else:
                hashed.pop(((mult * key + add) & mask) >> shift, None)

    def replace(self, key: int, value: int) -> None:
        self.replace_all((key,), value)

    def replace_all(self, keys, value: int) -> None:
        """Delete followed by insert of each live key of `keys`, in order,
        hashing each once.

        A key leaving the verbatim dictionary may fall back into the hashed
        one (its collision partner may have gone); a hashed key's slot is
        free again by the time the insert half runs, so it stays hashed.
        """
        if value == 0:
            raise ValueError("value 0 means absent; use delete")
        exact, hashed = self._exact, self._hashed
        mult, add, mask, shift = self._mult, self._add, self._mask, self._shift
        for key in keys:
            hk = ((mult * key + add) & mask) >> shift
            if key in exact:
                del exact[key]
                if hk in hashed:
                    exact[key] = value
                else:
                    hashed[hk] = value
            elif hk in hashed:
                hashed[hk] = value

    def lookup(self, key: int) -> int:
        v = self._exact.get(key)
        if v is not None:
            return v
        return self._hashed.get(((self._mult * key + self._add) & self._mask) >> self._shift, 0)

    def depth_reader(self):
        """A one-call read for a caller that stores depth + 1, so that 0
        means absent: ``lookup(key) - 1``, or None where lookup gives 0.
        Like lookup it probes the verbatim dictionary first; it binds the
        dictionaries, which change only in place, and the hash terms once.
        """
        exact_get, hashed_get = self._exact.get, self._hashed.get
        mult, add, mask, shift = self._mult, self._add, self._mask, self._shift

        def read(key: int) -> int | None:
            v = exact_get(key)
            if v is None:
                v = hashed_get(((mult * key + add) & mask) >> shift)
                if v is None:
                    return None
            return v - 1

        return read

    def space_bits(self) -> int:
        """Serialized size: header, hash seed, and both dictionaries."""
        cfg = self.config
        per_exact = cfg.universe_bits + cfg.value_bits
        per_hashed = cfg.hash_range_bits + cfg.value_bits
        return (
            192
            + self._hash.representation_bits()
            + len(self._exact) * per_exact
            + len(self._hashed) * per_hashed
        )
