"""Ordered list of set elements interleaved with branching-node extreme points.

Entries are kept in buckets of Theta(sqrt(width)) consecutive entries, with
superbuckets of Theta(sqrt(width)) buckets above them.  Each bucket holds
its entries' handles in list order in one plain list, plus a summary word
with one bit per entry in that order (is it a set element).  Superbuckets
carry one bit per bucket: does it contain at least one element.

The structure answers "nearest element at or before/after this entry" by
examining a bounded number of summary words; runs of non-element entries
are short by construction, so the walk never inspects more than a few
buckets.  Handles are stable integers, unaffected by splits and merges.
"""

from __future__ import annotations

import math

ELEMENT = 1
OPEN = 2
CLOSE = 3


class _Entry:
    __slots__ = ("kind", "value", "owner", "hint", "prev", "next", "bucket")

    def __init__(self, kind: int, value: int | None, owner: int | None,
                 hint: int | None, prev: int | None, next: int | None,
                 bucket: _Bucket):
        self.kind = kind
        self.value = value  # element key; None for parentheses
        self.owner = owner  # encoded branching-node key for parentheses
        self.hint = hint    # caller-supplied total-order key, audit only
        self.prev = prev
        self.next = next
        self.bucket = bucket


class _Bucket:
    __slots__ = ("handles", "summary", "sup")

    def __init__(self, sup: _Super, handles: list[int], summary: int):
        self.handles = handles  # entries in list order
        self.summary = summary  # bit i set iff handles[i] is an element
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
    def __init__(self, width: int, audit: bool = False):
        self.width = width
        self.audit = audit
        self.base = math.isqrt(width)
        if self.base * self.base < width:
            self.base += 1
        self.cap = 2 * self.base
        self._entries: dict[int, _Entry] = {}
        self._head: _Super | None = None
        self._next_id = 0
        self.n_elements = 0
        self.max_examined = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, handle: int) -> _Entry:
        return self._entries[handle]

    # -- insertion ----------------------------------------------------------

    def insert_first(self, kind: int, value: int | None = None,
                     owner: int | None = None, hint: int | None = None) -> int:
        if self._head is not None:
            bucket = self._head.buckets[0]
            return self._insert(bucket, 0, None, bucket.handles[0], kind, value, owner, hint)
        sup = self._head = _Super()
        bucket = _Bucket(sup, [], 0)
        sup.buckets.append(bucket)
        return self._insert(bucket, 0, None, None, kind, value, owner, hint)

    def insert_after(self, after: int, kind: int, value: int | None = None,
                     owner: int | None = None, hint: int | None = None) -> int:
        prev_e = self._entries.get(after)
        if prev_e is None:
            raise KeyError(f"invalid handle {after}")
        bucket = prev_e.bucket
        return self._insert(bucket, bucket.handles.index(after) + 1, after, prev_e.next,
                            kind, value, owner, hint)

    def _insert(self, bucket: _Bucket, pos: int, after: int | None, next_nb: int | None,
                kind: int, value: int | None, owner: int | None, hint: int | None) -> int:
        """Put a new entry at position pos of bucket, between after and next_nb."""
        handle = self._next_id
        self._next_id += 1
        entries = self._entries

        if self.audit and hint is not None:
            for nb, side in ((after, "left"), (next_nb, "right")):
                if nb is None:
                    continue
                other = entries[nb].hint
                if other is None:
                    continue
                in_order = other < hint if side == "left" else hint < other
                if not in_order:
                    raise ValueError(f"ordering violation against {side} neighbor")

        entries[handle] = _Entry(kind, value, owner, hint, after, next_nb, bucket)
        if after is not None:
            entries[after].next = handle
        if next_nb is not None:
            entries[next_nb].prev = handle
        handles = bucket.handles
        handles.insert(pos, handle)
        summary = bucket.summary
        if kind == ELEMENT:
            self.n_elements += 1
            bucket.summary = _bit_insert(summary, pos, 1)
            if not summary:
                self._refresh_sup_bit(bucket)
        else:
            bucket.summary = _bit_insert(summary, pos, 0)
        if len(handles) > self.cap:
            self._split_bucket(bucket)
        return handle

    def _refresh_sup_bit(self, bucket: _Bucket) -> None:
        sup = bucket.sup
        b_pos = sup.buckets.index(bucket)
        if bucket.summary:
            sup.summary |= 1 << b_pos
        else:
            sup.summary &= ~(1 << b_pos)

    def _split_bucket(self, bucket: _Bucket) -> None:
        handles = bucket.handles
        half = len(handles) // 2
        sup = bucket.sup
        b_pos = sup.buckets.index(bucket)
        right = _Bucket(sup, handles[half:], bucket.summary >> half)
        del handles[half:]
        bucket.summary &= (1 << half) - 1
        entries = self._entries
        for h in right.handles:
            entries[h].bucket = right
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

    def delete(self, handle: int) -> None:
        entries = self._entries
        e = entries.pop(handle, None)
        if e is None:
            raise KeyError(f"invalid handle {handle}")
        bucket = e.bucket
        handles = bucket.handles
        pos = handles.index(handle)
        del handles[pos]
        bucket.summary = summary = _bit_remove(bucket.summary, pos)
        if e.kind == ELEMENT:
            self.n_elements -= 1
            if not summary:
                self._refresh_sup_bit(bucket)
        if e.prev is not None:
            entries[e.prev].next = e.next
        if e.next is not None:
            entries[e.next].prev = e.prev
        if len(handles) < self.base:
            self._shrink(bucket)

    def _shrink(self, bucket: _Bucket) -> None:
        sup = bucket.sup
        if not bucket.handles:
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
        entries = self._entries
        for h in right.handles:
            entries[h].bucket = left
        left.summary |= right.summary << len(left.handles)
        left.handles += right.handles
        self._refresh_sup_bit(left)
        if len(left.handles) > self.cap:
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

    def nearest_element_left(self, handle: int) -> int | None:
        """Nearest element entry at or before `handle` in list order."""
        e = self._entries[handle]
        if e.kind == ELEMENT:
            return handle
        bucket = e.bucket
        pos = bucket.handles.index(handle)
        examined = 1
        mask = bucket.summary & ((1 << (pos + 1)) - 1)
        if mask:
            self._note(examined)
            return bucket.handles[mask.bit_length() - 1]
        sup = bucket.sup
        b_pos = sup.buckets.index(bucket)
        examined += 1
        smask = sup.summary & ((1 << b_pos) - 1)
        if smask:
            hit = sup.buckets[smask.bit_length() - 1]
            self._note(examined + 1)
            return hit.handles[hit.summary.bit_length() - 1]
        sup = sup.prev
        while sup is not None:
            examined += 1
            if sup.summary:
                hit = sup.buckets[sup.summary.bit_length() - 1]
                self._note(examined + 1)
                return hit.handles[hit.summary.bit_length() - 1]
            sup = sup.prev
        self._note(examined)
        return None

    def nearest_element_right(self, handle: int) -> int | None:
        """Nearest element entry at or after `handle` in list order."""
        e = self._entries[handle]
        if e.kind == ELEMENT:
            return handle
        bucket = e.bucket
        pos = bucket.handles.index(handle)
        examined = 1
        mask = bucket.summary >> pos
        if mask:
            self._note(examined)
            return bucket.handles[pos + _lowbit(mask)]
        sup = bucket.sup
        b_pos = sup.buckets.index(bucket)
        examined += 1
        smask = sup.summary >> (b_pos + 1)
        if smask:
            hit = sup.buckets[b_pos + 1 + _lowbit(smask)]
            self._note(examined + 1)
            return hit.handles[_lowbit(hit.summary)]
        sup = sup.next
        while sup is not None:
            examined += 1
            if sup.summary:
                hit = sup.buckets[_lowbit(sup.summary)]
                self._note(examined + 1)
                return hit.handles[_lowbit(hit.summary)]
            sup = sup.next
        self._note(examined)
        return None

    def _note(self, examined: int) -> None:
        if examined > self.max_examined:
            self.max_examined = examined

    # -- iteration / audit -----------------------------------------------------

    def __iter__(self):
        """Handles in list order, via the bucket hierarchy."""
        sup = self._head
        while sup is not None:
            for bucket in sup.buckets:
                yield from bucket.handles
            sup = sup.next

    def validate(self) -> None:
        """Cross-check buckets, summaries, links, and size bounds."""
        order = list(self)
        chained: list[int] = []
        h = order[0] if order else None
        if h is not None:
            while self._entries[h].prev is not None:
                h = self._entries[h].prev
        while h is not None:
            chained.append(h)
            h = self._entries[h].next
        assert chained == order, "linked list disagrees with bucket order"
        assert len(order) == len(self._entries)
        assert len(set(order)) == len(order), "handle listed twice"

        sups = []
        sup = self._head
        while sup is not None:
            assert sup.next is None or sup.next.prev is sup, "superbucket links broken"
            sups.append(sup)
            sup = sup.next
        n_buckets = sum(len(s.buckets) for s in sups)
        n_el = 0
        for sup in sups:
            assert sup.buckets, "empty superbucket survived"
            if len(sups) > 1:
                assert self.base <= len(sup.buckets) <= self.cap
            for b_pos, bucket in enumerate(sup.buckets):
                assert bucket.sup is sup
                assert 1 <= len(bucket.handles) <= self.cap
                if n_buckets > 1:
                    assert len(bucket.handles) >= self.base, "undersized bucket with siblings"
                for pos, handle in enumerate(bucket.handles):
                    e = self._entries[handle]
                    assert e.bucket is bucket
                    bit = (bucket.summary >> pos) & 1
                    assert bit == (1 if e.kind == ELEMENT else 0)
                    n_el += bit
                assert bucket.summary >> len(bucket.handles) == 0
                assert ((sup.summary >> b_pos) & 1) == (1 if bucket.summary else 0)
            assert sup.summary >> len(sup.buckets) == 0
        assert n_el == self.n_elements
