"""Ordered list of set elements interleaved with branching-node extreme points.

Entries are kept in buckets of Theta(sqrt(width)) consecutive entries, with
superbuckets of Theta(sqrt(width)) buckets above them.  Each bucket holds
its entries in list order in one plain list, plus a summary word
with one bit per entry in that order (is it a set element).  Superbuckets
carry one bit per bucket: does it contain at least one element.

Sizes: with base = ceil(sqrt(width)), a bucket that has siblings holds
base..3*base entries, and a superbucket that has siblings holds base..3*base
buckets; a lone bucket or superbucket may hold fewer.  A bucket above
3*base entries splits into halves, and one below base merges with a
neighbor (and the merged bucket splits again if it passes 3*base); a
superbucket does the same with its buckets.  The split threshold sits well
above twice the floor so that a restructure leaves room on both sides: a
split leaves halves of about 1.5*base, each of which must lose about base/2
entries before it merges, and a merge leaves at least 2*base - 1 entries,
which must gain about base before they split.  At twice the floor, a
split's halves would sit at the floor and the next delete would merge
them back.

The buckets are the list's only order: an entry keeps no links to its
neighbors.  The structure answers "nearest element strictly before/after
this entry" by examining a bounded number of summary words, provided runs
of non-element entries (counting a run at either end of the list) hold at
most 2*width entries.  Every superbucket but a lone one holds at least
base * base >= width entries, so such a run covers at most two whole
superbuckets.  The walk reads the entry's bucket, its superbucket's
summary, at most two superbuckets with no element, the superbucket holding
the answer and the bucket holding it: at most 6 summary words.  (Lowering
the bucket floor to base/2 would let a superbucket hold width/2 entries and
raise that bound to 8.)  Calling the walk again from the element it returns
walks the elements in list order.

An entry is its own handle: the caller builds it, inserts it, and holds it,
and it stays valid across splits and merges until it is deleted.  An entry
holds only its value and its bucket; its kind is its class's, ``Element``,
``Open`` or ``Close``, so a caller may subclass ``Open`` or ``Close`` to
keep its own fields on the entry itself.  An insert reads the new entry's
kind once; deletes and walks read only the buckets' summary bits.

A deep copy or a pickle of the list is flat: an entry's state leaves out
its bucket, and the list's state holds, per superbucket, its buckets'
entry lists and summary words, from which a load rebuilds the buckets and
the superbuckets' links.  So neither follows the superbucket chain or an
entry's bucket link by link, and the copy's depth of recursion does not
grow with the list's length.  A shallow copy raises TypeError: it would
share the entries, and an entry belongs to one list.
"""

from __future__ import annotations

import math

from .wordops import ensure

ELEMENT = 1
OPEN = 2
CLOSE = 3


class _Entry:
    """One list entry; its place is its slot in its bucket's entries."""

    __slots__ = ("value", "bucket")
    kind: int

    def __init__(self, value: int | None):
        self.value = value  # an element's key, or a parenthesis's owner key
        self.bucket: _Bucket | None = None  # None while not listed

    def __getstate__(self) -> dict:
        # every slot but the bucket: the list's own state places its
        # entries, and a bucket would pull the whole list into the state of
        # each entry that reaches it
        return {name: getattr(self, name) for cls in type(self).__mro__[:-1]
                for name in cls.__slots__ if name != "bucket"}

    def __setstate__(self, state: dict) -> None:
        self.bucket = None
        for name, value in state.items():
            setattr(self, name, value)


class Element(_Entry):
    __slots__ = ()
    kind = ELEMENT


class Open(_Entry):
    __slots__ = ()
    kind = OPEN


class Close(_Entry):
    __slots__ = ()
    kind = CLOSE


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
        self.cap = 3 * self.base  # split threshold; the merge floor is base
        self._head: _Super | None = None
        self.max_examined = 0

    def __len__(self) -> int:
        """The number of entries, counted by a walk (for audits and tests)."""
        return sum(1 for _ in self)

    def __getstate__(self) -> dict:
        # flat: per superbucket its summary and its buckets' entry lists and
        # summaries, so that neither pickle nor deepcopy recurses along the
        # superbucket chain; buckets and links are rebuilt on load
        state = self.__dict__.copy()
        sups = []
        sup = state.pop("_head")
        while sup is not None:
            sups.append((sup.summary, [(b.entries, b.summary) for b in sup.buckets]))
            sup = sup.next
        state["_sups"] = sups
        return state

    def __copy__(self):
        # a load points every entry at the new buckets, so a copy that
        # shared its entries would take them from this list
        raise TypeError("a navigation list shares no entries; use copy.deepcopy")

    def __setstate__(self, state: dict) -> None:
        sups = state.pop("_sups")
        self.__dict__.update(state)
        self._head = prev = None
        for summary, buckets in sups:
            sup = _Super()
            sup.summary = summary
            for entries, b_summary in buckets:
                bucket = _Bucket(sup, entries, b_summary)
                for e in entries:
                    e.bucket = bucket
                sup.buckets.append(bucket)
            if prev is None:
                self._head = sup
            else:
                prev.next, sup.prev = sup, prev
            prev = sup

    # -- insertion ----------------------------------------------------------

    def insert_first(self, e: _Entry) -> None:
        """Put the new entry e first in the list."""
        if self._head is not None:
            self._insert(self._head.buckets[0], 0, e)
            return
        sup = self._head = _Super()
        bucket = _Bucket(sup, [], 0)
        sup.buckets.append(bucket)
        self._insert(bucket, 0, e)

    def insert_after(self, after: _Entry, e: _Entry) -> None:
        """Put the new entry e just after the listed entry `after`."""
        bucket = after.bucket
        if bucket is None:
            raise KeyError("insert after an unlisted entry")
        self._insert(bucket, bucket.entries.index(after) + 1, e)

    def insert_before(self, before: _Entry, e: _Entry) -> None:
        """Put the new entry e just before the listed entry `before`."""
        bucket = before.bucket
        if bucket is None:
            raise KeyError("insert before an unlisted entry")
        self._insert(bucket, bucket.entries.index(before), e)

    def _insert(self, bucket: _Bucket, pos: int, e: _Entry) -> None:
        """Put e, which no list holds, at position pos of bucket."""
        if e.bucket is not None:
            raise KeyError("insert of a listed entry")
        e.bucket = bucket
        entries = bucket.entries
        entries.insert(pos, e)
        summary = bucket.summary
        # adding the bits at and above pos to the word shifts them up by one
        # and leaves bit pos clear
        shifted = summary + (summary >> pos << pos)
        if e.kind == ELEMENT:
            bucket.summary = shifted | (1 << pos)
            if not summary:
                self._refresh_sup_bit(bucket)
        else:
            bucket.summary = shifted
        if len(entries) > self.cap:
            self._split_bucket(bucket)

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
        # shift the bits above b_pos up by one, leaving bit b_pos + 1 clear
        sup.summary += sup.summary >> (b_pos + 1) << (b_pos + 1)
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
            raise KeyError("delete of an unlisted entry")
        e.bucket = None
        entries = bucket.entries
        pos = entries.index(e)
        del entries[pos]
        old = bucket.summary
        # _bit_remove, inline: keep the bits below pos, shift those above down
        summary = bucket.summary = (old & ((1 << pos) - 1)) | (old >> (pos + 1) << pos)
        # bit pos says whether e was an element
        if not summary and old >> pos & 1:
            self._refresh_sup_bit(bucket)
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
        """Nearest element entry strictly before `e` in list order."""
        bucket = e.bucket
        try:
            pos = bucket.entries.index(e)
        except AttributeError:
            raise KeyError("nearest element of an unlisted entry") from None
        examined = 1
        mask = bucket.summary & ((1 << pos) - 1)
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
        """Nearest element entry strictly after `e` in list order."""
        bucket = e.bucket
        try:
            pos = bucket.entries.index(e)
        except AttributeError:
            raise KeyError("nearest element of an unlisted entry") from None
        examined = 1
        mask = bucket.summary >> (pos + 1)
        if mask:
            self._note(examined)
            return bucket.entries[pos + 1 + _lowbit(mask)]
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
        """Cross-check buckets, summaries, superbucket links, and size bounds;
        a breach raises AssertionError, also under ``python -O``."""
        order = list(self)
        ensure(len(set(order)) == len(order), "entry listed twice")

        sups = []
        sup = self._head
        while sup is not None:
            ensure(sup.next is None or sup.next.prev is sup, "superbucket links broken")
            sups.append(sup)
            sup = sup.next
        n_buckets = sum(len(s.buckets) for s in sups)
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
                ensure(((sup.summary >> b_pos) & 1) == (summary != 0),
                       "superbucket summary bit is wrong")
            ensure(sup.summary >> len(sup.buckets) == 0, "superbucket summary too long")
