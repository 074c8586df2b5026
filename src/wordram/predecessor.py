"""Dynamic predecessor over fixed-width integer keys.

Keys live in sorted buckets of Theta(width) size with an x-fast-style top
structure over the bucket representatives: hash tables of key prefixes per
level, binary-searched for the longest match.  The top stores only the
levels down to where consecutive representatives stop sharing prefixes,
and a search starts below the deepest level that holds every prefix, so
it probes lg(height - full + 1) <= lg(width + 1) tables; on uniform keys
height is about lg of the number of representatives, and full a few
levels less.  Bucket splits and merges keep top updates rare.

The buckets are the only ordered copy of the keys.  An update returns the
key's neighbors from its bucket position; at a bucket edge the neighbor is
in the adjacent bucket, found through the top's links between
representatives.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


class _XFastTop:
    """Prefix tables over a dynamic set of representative keys.

    Levels 1..height are stored, where height is one more than the longest
    prefix two consecutive representatives have shared since the top was
    built (1 while none has).  So a height-bit prefix names at most one
    representative, and deeper levels, which would hold one private entry
    per representative, are never needed.

    full is the deepest level whose table holds all 2**full prefixes (0
    while the top is empty or level 1 lacks a prefix; the root's level is
    implied).  Every key's prefix is in that table, so a search
    binary-searches only levels full..height, which is at most
    lg(height - full + 1) <= lg(width + 1) probes.  An insert advances full
    while the next level is complete; a delete that empties a prefix at a
    level L <= full sets it to L - 1.  Deep keys, which never complete a
    level, search all of 0..height.

    height only grows, and never past width.  The pair a delete joins
    shares the shorter of its two old prefixes, so only an insert can grow
    height.  A grow fills the new levels for every representative, which
    costs O(#reps * added levels) in that one insert: a latency spike on a
    single operation.  height grows at most width times in all, and there
    are O(n / width) representatives, so the grows cost amortized O(1) per
    insert.
    """

    def __init__(self, width: int):
        self.width = width
        self.height = 1
        self.full = 0
        # level L maps the leading L bits of each rep to (min, max) under it;
        # level 0, the root, is implied and its dict stays empty.  Tuples of
        # ints drop out of the cyclic collector's tracking, lists would not.
        # Tuples are replaced, never mutated, so one (rep, rep) pair is
        # shared by every level where rep is alone under its prefix
        self._levels: list[dict[int, tuple[int, int]]] = [{}, {}]
        self._link: dict[int, list[int | None]] = {}
        self.min: int | None = None
        self.max: int | None = None

    def insert(self, rep: int) -> None:
        p = self.pred(rep)
        nxt = self._link[p][1] if p is not None else self.min
        w = self.width
        # the longest prefix rep shares with a neighbor, which is w minus
        # the bit length of their xor; grow before rep is linked in
        shared = w - min((rep ^ p).bit_length() if p is not None else w + 1,
                         (rep ^ nxt).bit_length() if nxt is not None else w + 1)
        if shared >= self.height:
            self._grow(shared + 1)
        self._link[rep] = [p, nxt]
        if p is not None:
            self._link[p][1] = rep
        if nxt is not None:
            self._link[nxt][0] = rep
        alone = (rep, rep)
        for level in range(1, self.height + 1):
            table = self._levels[level]
            pref = rep >> (w - level)
            entry = table.get(pref)
            if entry is None:
                table[pref] = alone
            elif rep < entry[0]:
                table[pref] = (rep, entry[1])
            elif rep > entry[1]:
                table[pref] = (entry[0], rep)
        full = self.full
        while full < self.height and len(self._levels[full + 1]) == 2 << full:
            full += 1
        self.full = full
        if self.min is None or rep < self.min:
            self.min = rep
        if self.max is None or rep > self.max:
            self.max = rep

    def _grow(self, height: int) -> None:
        """Store levels up to height for the reps present before an insert.
        From the old height down no two of them share a prefix, so each one
        is alone."""
        w = self.width
        old = self.height
        new = [{} for _ in range(old, height)]
        rep = self.min
        while rep is not None:
            alone = (rep, rep)
            for level, table in enumerate(new, old + 1):
                table[rep >> (w - level)] = alone
            rep = self._link[rep][1]
        self._levels += new
        self.height = height

    def delete(self, rep: int) -> None:
        prv, nxt = self._link.pop(rep)
        if prv is not None:
            self._link[prv][1] = nxt
        if nxt is not None:
            self._link[nxt][0] = prv
        w = self.width
        for level in range(1, self.height + 1):
            table = self._levels[level]
            pref = rep >> (w - level)
            entry = table[pref]
            if entry[0] == entry[1]:
                del table[pref]
                # the shallowest emptied prefix comes first; deeper ones
                # lie below full once it drops
                if level <= self.full:
                    self.full = level - 1
            elif entry[0] == rep:
                # the next rep shares the prefix when the entry survives
                table[pref] = (nxt, entry[1])
            elif entry[1] == rep:
                table[pref] = (entry[0], prv)
        if self.min == rep:
            self.min = nxt
        if self.max == rep:
            self.max = prv

    def prev_of(self, rep: int) -> int | None:
        return self._link[rep][0]

    def next_of(self, rep: int) -> int | None:
        return self._link[rep][1]

    def pred(self, x: int) -> int | None:
        """Largest representative <= x, or None."""
        if self.min is None or x < self.min:
            return None
        if x >= self.max:  # type: ignore[operator]
            return self.max
        w = self.width
        # deepest stored level whose table contains x's prefix; every table
        # down to full contains it
        lo, hi = self.full, self.height
        levels = self._levels
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if (x >> (w - mid)) in levels[mid]:
                lo = mid
            else:
                hi = mid - 1
        if lo == self.height:
            # one rep has x's prefix at this depth
            rep = levels[lo][x >> (w - lo)][0]
            return rep if rep <= x else self._link[rep][0]
        child = x >> (w - lo - 1)
        if child & 1:
            # x descends right of the divergence; left sibling subtree holds pred
            return levels[lo + 1][child ^ 1][1]
        # everything under the match is greater than x
        under_min = levels[lo + 1][child | 1][0]
        return self._link[under_min][0]


class PredecessorSet:
    """Ordered integer set with predecessor/successor queries.

    pred/succ increment an instrumentation counter; the neighbors that
    insert and delete return do not.
    """

    def __init__(self, width: int):
        self.width = width
        self.query_count = 0
        # a bucket's representative is its first key, so the top's min is
        # the set's min and its max heads the last bucket
        self._top = _XFastTop(width)
        self._buckets: dict[int, list[int]] = {}
        self._cap = 2 * width

    def __iter__(self):
        top = self._top
        rep = top.min
        while rep is not None:
            yield from self._buckets[rep]
            rep = top.next_of(rep)

    @property
    def min(self) -> int | None:
        return self._top.min

    @property
    def max(self) -> int | None:
        rep = self._top.max
        return None if rep is None else self._buckets[rep][-1]

    # -- updates ---------------------------------------------------------

    def insert(self, x: int) -> tuple[int | None, int | None, bool]:
        """Add x; returns (predecessor, successor, was_new)."""
        if x >> self.width:
            raise ValueError(f"key {x} does not fit in {self.width} bits")
        top = self._top
        rep = top.pred(x)
        if rep is not None:
            bucket = self._buckets[rep]
        elif top.min is None:
            self._buckets[x] = [x]
            top.insert(x)
            return None, None, True
        else:
            # new global minimum joins (and re-labels) the first bucket
            rep = top.min
            bucket = self._buckets.pop(rep)
            top.delete(rep)
            top.insert(x)
            self._buckets[x] = bucket
        # x's predecessor, if any, is in this bucket
        i = bisect_left(bucket, x)
        if i < len(bucket) and bucket[i] == x:
            prv, nxt = self._neighbors(bucket, i)
            return prv, nxt, False
        prv = bucket[i - 1] if i else None
        nxt = bucket[i] if i < len(bucket) else top.next_of(bucket[0])
        bucket.insert(i, x)
        if len(bucket) > self._cap:
            self._split(bucket)
        return prv, nxt, True

    def delete(self, x: int) -> tuple[int | None, int | None, bool]:
        """Remove x; returns (predecessor, successor, was_present)."""
        top = self._top
        rep = top.pred(x)
        if rep is None:
            return None, None, False
        bucket = self._buckets[rep]
        i = bisect_left(bucket, x)
        if i == len(bucket) or bucket[i] != x:
            return None, None, False
        prv, nxt = self._neighbors(bucket, i)
        del bucket[i]
        if not bucket:
            del self._buckets[rep]
            top.delete(rep)
        else:
            if x == rep:
                del self._buckets[rep]
                top.delete(rep)
                rep = bucket[0]
                self._buckets[rep] = bucket
                top.insert(rep)
            if len(bucket) < self.width // 2:
                nxt_rep = top.next_of(rep)
                if nxt_rep is not None:
                    bucket += self._buckets.pop(nxt_rep)
                    top.delete(nxt_rep)
                    if len(bucket) > self._cap:
                        self._split(bucket)
        return prv, nxt, True

    # -- counted queries --------------------------------------------------

    def pred(self, x: int) -> int | None:
        """Largest key <= x."""
        self.query_count += 1
        rep = self._top.pred(x)
        if rep is None:
            return None
        bucket = self._buckets[rep]
        return bucket[bisect_right(bucket, x) - 1]

    def succ(self, x: int) -> int | None:
        """Smallest key >= x."""
        self.query_count += 1
        top = self._top
        rep = top.pred(x)
        if rep is None:
            return top.min
        bucket = self._buckets[rep]
        i = bisect_left(bucket, x)
        return bucket[i] if i < len(bucket) else top.next_of(rep)

    # -- internals ---------------------------------------------------------

    def _neighbors(self, bucket: list[int], i: int) -> tuple[int | None, int | None]:
        """The keys before and after bucket[i]; at a bucket edge they are the
        last key of the previous bucket and the next bucket's representative."""
        top = self._top
        if i:
            prv = bucket[i - 1]
        else:
            prev_rep = top.prev_of(bucket[0])
            prv = None if prev_rep is None else self._buckets[prev_rep][-1]
        nxt = bucket[i + 1] if i + 1 < len(bucket) else top.next_of(bucket[0])
        return prv, nxt

    def _split(self, bucket: list[int]) -> None:
        half = len(bucket) // 2
        right = bucket[half:]
        del bucket[half:]
        self._buckets[right[0]] = right
        self._top.insert(right[0])
