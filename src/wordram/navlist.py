"""Ordered list of set elements interleaved with branching-node extreme points.

Entries are kept in buckets of Theta(sqrt(width)) consecutive entries, with
superbuckets of Theta(sqrt(width)) buckets above them.  Each bucket holds
its entries in list order in one plain list, plus a summary word
with one bit per entry in that order (is it a set element).  Superbuckets
carry one bit per bucket: does it contain at least one element.

The structure answers "nearest element at or before/after this entry" by
examining a bounded number of summary words; runs of non-element entries
are short by construction, so the walk never inspects more than a few
buckets.  An entry is its own handle: the caller holds the entry object,
which stays valid across splits and merges until it is deleted.
"""

from __future__ import annotations

import math

from .wordops import ensure

ELEMENT = 1
OPEN = 2
CLOSE = 3


class _Entry:
    __slots__ = ("kind", "value", "owner", "prev", "next", "bucket")

    def __init__(self, kind: int, value: int | None, owner: int | None,
                 prev: _Entry | None, next: _Entry | None, bucket: _Bucket):
        self.kind = kind
        self.value = value  # element key; None for parentheses
        self.owner = owner  # encoded branching-node key for parentheses
        self.prev = prev
        self.next = next
        self.bucket = bucket  # None once deleted


class _Bucket:
    __slots__ = ("entries", "summary", "sup")

    def __init__(self, sup: _Super, entries: list[_Entry], summary: int):
        self.entries = entries  # in list order
        self.summary = summary  # bit i set iff entries[i] is an element
        self.sup = sup


class _Super:
    __slots__ = ("buckets", "summary", "prev", "next")

    def __init__(self):
        self.buckets: list[_Bucket] = []
        self.summary = 0  # bit i set iff buckets[i] holds an element
        self.prev: _Super | None = None
        self.next: _Super | None = None


def _bit_insert(word: int, pos: int, bit: int) -> int:
    low = word & ((1 << pos) - 1)
    return low | (bit << pos) | ((word >> pos) << (pos + 1))


def _bit_remove(word: int, pos: int) -> int:
    low = word & ((1 << pos) - 1)
    return low | ((word >> (pos + 1)) << pos)


def _lowbit(word: int) -> int:
    return (word & -word).bit_length() - 1


class NavList:
    def __init__(self, width: int):
        self.width = width
        self.base = math.isqrt(width)
        if self.base * self.base < width:
            self.base += 1
        self.cap = 2 * self.base
        self._head: _Super | None = None
        self.n_elements = 0
        self.max_examined = 0

    def __len__(self) -> int:
        """The number of entries, counted by a walk (for audits and tests)."""
        return sum(1 for _ in self)

    # -- insertion ----------------------------------------------------------

    def insert_first(self, kind: int, value: int | None = None,
                     owner: int | None = None) -> _Entry:
        if self._head is not None:
            bucket = self._head.buckets[0]
            return self._insert(bucket, 0, None, bucket.entries[0], kind, value, owner)
        sup = self._head = _Super()
        bucket = _Bucket(sup, [], 0)
        sup.buckets.append(bucket)
        return self._insert(bucket, 0, None, None, kind, value, owner)

    def insert_after(self, after: _Entry, kind: int, value: int | None = None,
                     owner: int | None = None) -> _Entry:
        bucket = after.bucket
        if bucket is None:
            raise KeyError("insert after a deleted entry")
        return self._insert(bucket, bucket.entries.index(after) + 1, after, after.next,
                            kind, value, owner)

    def _insert(self, bucket: _Bucket, pos: int, after: _Entry | None,
                next_nb: _Entry | None, kind: int, value: int | None,
                owner: int | None) -> _Entry:
        """Put a new entry at position pos of bucket, between after and next_nb."""
        e = _Entry(kind, value, owner, after, next_nb, bucket)
        if after is not None:
            after.next = e
        if next_nb is not None:
            next_nb.prev = e
        entries = bucket.entries
        entries.insert(pos, e)
        summary = bucket.summary
        if kind == ELEMENT:
            self.n_elements += 1
            bucket.summary = _bit_insert(summary, pos, 1)
            if not summary:
                self._refresh_sup_bit(bucket)
        else:
            bucket.summary = _bit_insert(summary, pos, 0)
        if len(entries) > self.cap:
            self._split_bucket(bucket)
        return e

    def _refresh_sup_bit(self, bucket: _Bucket) -> None:
        sup = bucket.sup
        b_pos = sup.buckets.index(bucket)
        if bucket.summary:
            sup.summary |= 1 << b_pos
        else:
            sup.summary &= ~(1 << b_pos)

    def _split_bucket(self, bucket: _Bucket) -> None:
        entries = bucket.entries
        half = len(entries) // 2
        sup = bucket.sup
        b_pos = sup.buckets.index(bucket)
        right = _Bucket(sup, entries[half:], bucket.summary >> half)
        del entries[half:]
        bucket.summary &= (1 << half) - 1
        for e in right.entries:
            e.bucket = right
        sup.buckets.insert(b_pos + 1, right)
        sup.summary = _bit_insert(sup.summary, b_pos + 1, 0)
        self._refresh_sup_bit(bucket)
        self._refresh_sup_bit(right)
        if len(sup.buckets) > self.cap:
            self._split_sup(sup)

    def _split_sup(self, sup: _Super) -> None:
        half = len(sup.buckets) // 2
        right = _Super()
        right.buckets = sup.buckets[half:]
        right.summary = sup.summary >> half
        del sup.buckets[half:]
        sup.summary &= (1 << half) - 1
        for bucket in right.buckets:
            bucket.sup = right
        right.prev, right.next = sup, sup.next
        if sup.next is not None:
            sup.next.prev = right
        sup.next = right

    # -- deletion -----------------------------------------------------------

    def delete(self, e: _Entry) -> None:
        bucket = e.bucket
        if bucket is None:
            raise KeyError("delete of a deleted entry")
        e.bucket = None
        entries = bucket.entries
        pos = entries.index(e)
        del entries[pos]
        bucket.summary = summary = _bit_remove(bucket.summary, pos)
        if e.kind == ELEMENT:
            self.n_elements -= 1
            if not summary:
                self._refresh_sup_bit(bucket)
        if e.prev is not None:
            e.prev.next = e.next
        if e.next is not None:
            e.next.prev = e.prev
        if len(entries) < self.base:
            self._shrink(bucket)

    def _shrink(self, bucket: _Bucket) -> None:
        sup = bucket.sup
        if not bucket.entries:
            b_pos = sup.buckets.index(bucket)
            sup.buckets.pop(b_pos)
            sup.summary = _bit_remove(sup.summary, b_pos)
            self._shrink_sup(sup)
            return
        if len(sup.buckets) == 1:
            # pull in siblings by merging superbuckets first, if any exist
            self._shrink_sup(sup)
            sup = bucket.sup
            if len(sup.buckets) == 1:
                return  # the whole structure is one bucket; bounds waived
        b_pos = sup.buckets.index(bucket)
        o_pos = b_pos + 1 if b_pos + 1 < len(sup.buckets) else b_pos - 1
        l_pos = min(b_pos, o_pos)
        left, right = sup.buckets[l_pos], sup.buckets.pop(l_pos + 1)
        sup.summary = _bit_remove(sup.summary, l_pos + 1)
        for e in right.entries:
            e.bucket = left
        left.summary |= right.summary << len(left.entries)
        left.entries += right.entries
        self._refresh_sup_bit(left)
        if len(left.entries) > self.cap:
            self._split_bucket(left)
        self._shrink_sup(left.sup)

    def _shrink_sup(self, sup: _Super) -> None:
        if not sup.buckets:
            if sup.prev is not None:
                sup.prev.next = sup.next
            if sup.next is not None:
                sup.next.prev = sup.prev
            if self._head is sup:
                self._head = sup.next
            return
        if len(sup.buckets) >= self.base:
            return
        if sup.next is not None:
            left, right = sup, sup.next
        elif sup.prev is not None:
            left, right = sup.prev, sup
        else:
            return  # lone superbucket; bounds waived
        left.summary |= right.summary << len(left.buckets)
        left.buckets.extend(right.buckets)
        for bucket in right.buckets:
            bucket.sup = left
        left.next = right.next
        if right.next is not None:
            right.next.prev = left
        if len(left.buckets) > self.cap:
            self._split_sup(left)

    # -- navigation ----------------------------------------------------------

    def nearest_element_left(self, e: _Entry) -> _Entry | None:
        """Nearest element entry at or before `e` in list order."""
        if e.kind == ELEMENT:
            return e
        bucket = e.bucket
        pos = bucket.entries.index(e)
        examined = 1
        mask = bucket.summary & ((1 << (pos + 1)) - 1)
        if mask:
            self._note(examined)
            return bucket.entries[mask.bit_length() - 1]
        sup = bucket.sup
        b_pos = sup.buckets.index(bucket)
        examined += 1
        smask = sup.summary & ((1 << b_pos) - 1)
        if smask:
            hit = sup.buckets[smask.bit_length() - 1]
            self._note(examined + 1)
            return hit.entries[hit.summary.bit_length() - 1]
        sup = sup.prev
        while sup is not None:
            examined += 1
            if sup.summary:
                hit = sup.buckets[sup.summary.bit_length() - 1]
                self._note(examined + 1)
                return hit.entries[hit.summary.bit_length() - 1]
            sup = sup.prev
        self._note(examined)
        return None

    def nearest_element_right(self, e: _Entry) -> _Entry | None:
        """Nearest element entry at or after `e` in list order."""
        if e.kind == ELEMENT:
            return e
        bucket = e.bucket
        pos = bucket.entries.index(e)
        examined = 1
        mask = bucket.summary >> pos
        if mask:
            self._note(examined)
            return bucket.entries[pos + _lowbit(mask)]
        sup = bucket.sup
        b_pos = sup.buckets.index(bucket)
        examined += 1
        smask = sup.summary >> (b_pos + 1)
        if smask:
            hit = sup.buckets[b_pos + 1 + _lowbit(smask)]
            self._note(examined + 1)
            return hit.entries[_lowbit(hit.summary)]
        sup = sup.next
        while sup is not None:
            examined += 1
            if sup.summary:
                hit = sup.buckets[_lowbit(sup.summary)]
                self._note(examined + 1)
                return hit.entries[_lowbit(hit.summary)]
            sup = sup.next
        self._note(examined)
        return None

    def _note(self, examined: int) -> None:
        if examined > self.max_examined:
            self.max_examined = examined

    # -- iteration / audit -----------------------------------------------------

    def __iter__(self):
        """Entries in list order, via the bucket hierarchy."""
        sup = self._head
        while sup is not None:
            for bucket in sup.buckets:
                yield from bucket.entries
            sup = sup.next

    def validate(self) -> None:
        """Cross-check buckets, summaries, links, and size bounds; a breach
        raises AssertionError, also under ``python -O``."""
        order = list(self)
        chained: list[_Entry] = []
        e = order[0] if order else None
        if e is not None:
            while e.prev is not None:
                e = e.prev
        while e is not None:
            chained.append(e)
            e = e.next
        ensure(chained == order, "linked list disagrees with bucket order")
        ensure(len(set(order)) == len(order), "entry listed twice")

        sups = []
        sup = self._head
        while sup is not None:
            ensure(sup.next is None or sup.next.prev is sup, "superbucket links broken")
            sups.append(sup)
            sup = sup.next
        n_buckets = sum(len(s.buckets) for s in sups)
        n_el = 0
        for sup in sups:
            ensure(sup.buckets, "empty superbucket survived")
            if len(sups) > 1:
                ensure(self.base <= len(sup.buckets) <= self.cap,
                       "superbucket size out of bounds")
            for b_pos, bucket in enumerate(sup.buckets):
                entries = bucket.entries
                ensure(bucket.sup is sup, "bucket points at another superbucket")
                ensure(1 <= len(entries) <= self.cap, "bucket size out of bounds")
                if n_buckets > 1:
                    ensure(len(entries) >= self.base, "undersized bucket with siblings")
                ensure(all(e.bucket is bucket for e in entries),
                       "entry points at another bucket")
                summary = sum(1 << pos for pos, e in enumerate(entries) if e.kind == ELEMENT)
                ensure(bucket.summary == summary, "bucket summary word is wrong")
                n_el += summary.bit_count()
                ensure(((sup.summary >> b_pos) & 1) == (summary != 0),
                       "superbucket summary bit is wrong")
            ensure(sup.summary >> len(sup.buckets) == 0, "superbucket summary too long")
        ensure(n_el == self.n_elements, "element count is wrong")
