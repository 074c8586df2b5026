"""Dynamic predecessor over fixed-width integer keys.

Keys live in sorted buckets of Theta(width) size with an x-fast-style top
structure over the bucket representatives: hash tables of key prefixes per
level, binary-searched for the longest match.  Queries cost O(log width)
expected; bucket splits and merges keep top updates rare.  An update whose
key falls inside the bucket the previous update touched skips the top
search: the keys of one range-reporting update sit close.

Every instance also threads all keys into a doubly linked list in
increasing order; neighbor links are exposed separately from (and cheaper
than) counted predecessor queries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


class _XFastTop:
    """Prefix tables over a dynamic set of representative keys."""

    def __init__(self, width: int):
        self.width = width
        # level L maps the leading L bits of each rep to (min, max) under it;
        # tuples of ints drop out of the cyclic collector's tracking, lists
        # would not.  Tuples are replaced, never mutated, so one (rep, rep)
        # pair is shared by every level where rep is alone under its prefix
        self._levels: list[dict[int, tuple[int, int]]] = [{} for _ in range(width + 1)]
        self._link: dict[int, list[int | None]] = {}
        self.min: int | None = None
        self.max: int | None = None

    def __len__(self) -> int:
        return len(self._link)

    def __contains__(self, rep: int) -> bool:
        return rep in self._link

    def insert(self, rep: int) -> None:
        p = self.pred(rep)
        nxt = self._link[p][1] if p is not None else self.min
        self._link[rep] = [p, nxt]
        if p is not None:
            self._link[p][1] = rep
        if nxt is not None:
            self._link[nxt][0] = rep
        w = self.width
        alone = (rep, rep)
        for level in range(1, w + 1):
            table = self._levels[level]
            pref = rep >> (w - level)
            entry = table.get(pref)
            if entry is None:
                table[pref] = alone
            elif rep < entry[0]:
                table[pref] = (rep, entry[1])
            elif rep > entry[1]:
                table[pref] = (entry[0], rep)
        if self.min is None or rep < self.min:
            self.min = rep
        if self.max is None or rep > self.max:
            self.max = rep

    def delete(self, rep: int) -> None:
        prv, nxt = self._link.pop(rep)
        if prv is not None:
            self._link[prv][1] = nxt
        if nxt is not None:
            self._link[nxt][0] = prv
        w = self.width
        for level in range(1, w + 1):
            table = self._levels[level]
            pref = rep >> (w - level)
            entry = table[pref]
            if entry[0] == entry[1]:
                del table[pref]
            elif entry[0] == rep:
                # the next rep shares the prefix when the entry survives
                table[pref] = (nxt, entry[1])
            elif entry[1] == rep:
                table[pref] = (entry[0], prv)
        if self.min == rep:
            self.min = nxt
        if self.max == rep:
            self.max = prv

    def next_of(self, rep: int) -> int | None:
        return self._link[rep][1]

    def pred(self, x: int) -> int | None:
        """Largest representative <= x, or None."""
        if self.min is None or x < self.min:
            return None
        if x >= self.max:  # type: ignore[operator]
            return self.max
        w = self.width
        # deepest level whose table contains x's prefix
        lo, hi = 0, w
        levels = self._levels
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if (x >> (w - mid)) in levels[mid]:
                lo = mid
            else:
                hi = mid - 1
        if lo == w:
            return x
        child = x >> (w - lo - 1)
        if child & 1:
            # x descends right of the divergence; left sibling subtree holds pred
            return levels[lo + 1][child ^ 1][1]
        # everything under the match is greater than x
        under_min = levels[lo + 1][child | 1][0]
        return self._link[under_min][0]


class PredecessorSet:
    """Ordered integer set with predecessor/successor queries and key links.

    pred/succ increment an instrumentation counter; neighbor links do not.
    """

    def __init__(self, width: int):
        self.width = width
        self.query_count = 0
        # key links, one dict per direction: no container object per key
        self._prev: dict[int, int | None] = {}
        self._next: dict[int, int | None] = {}
        # a bucket's representative is its first key, so the top's min is
        # the set's min and its max heads the last bucket
        self._top = _XFastTop(width)
        self._buckets: dict[int, list[int]] = {}
        self._cap = 2 * width
        # the bucket the last update touched; a live bucket or empty
        self._finger: list[int] = []

    def __len__(self) -> int:
        return len(self._next)

    def __contains__(self, x: int) -> bool:
        return x in self._next

    def __iter__(self):
        x = self._top.min
        while x is not None:
            yield x
            x = self._next[x]

    @property
    def min(self) -> int | None:
        return self._top.min

    @property
    def max(self) -> int | None:
        rep = self._top.max
        return None if rep is None else self._buckets[rep][-1]

    def prev_key(self, x: int) -> int | None:
        return self._prev[x]

    def next_key(self, x: int) -> int | None:
        return self._next[x]

    # -- updates ---------------------------------------------------------

    def insert(self, x: int) -> tuple[int | None, int | None, bool]:
        """Add x; returns (predecessor, successor, was_new)."""
        if x >> self.width:
            raise ValueError(f"key {x} does not fit in {self.width} bits")
        if x in self._next:
            return self._prev[x], self._next[x], False
        first = self._top.min
        prv = self._bucket_insert(x)
        nxt = self._next[prv] if prv is not None else first
        self._prev[x] = prv
        self._next[x] = nxt
        if prv is not None:
            self._next[prv] = x
        if nxt is not None:
            self._prev[nxt] = x
        return prv, nxt, True

    def delete(self, x: int) -> bool:
        if x not in self._next:
            return False
        self._bucket_delete(x)
        prv = self._prev.pop(x)
        nxt = self._next.pop(x)
        if prv is not None:
            self._next[prv] = nxt
        if nxt is not None:
            self._prev[nxt] = prv
        return True

    # -- counted queries --------------------------------------------------

    def pred(self, x: int) -> int | None:
        """Largest key <= x."""
        self.query_count += 1
        return self._pred_raw(x)

    def succ(self, x: int) -> int | None:
        """Smallest key >= x."""
        self.query_count += 1
        if x in self._next:
            return x
        p = self._pred_raw(x)
        if p is None:
            return self._top.min
        return self._next[p]

    # -- internals ---------------------------------------------------------

    def _pred_raw(self, x: int) -> int | None:
        rep = self._top.pred(x)
        if rep is None:
            return None
        bucket = self._buckets[rep]
        return bucket[bisect_right(bucket, x) - 1]

    def _bucket_insert(self, x: int) -> int | None:
        """Put the new key x in its bucket; returns its predecessor."""
        bucket = self._finger
        if bucket and bucket[0] < x < bucket[-1]:
            i = bisect_right(bucket, x)
        else:
            top = self._top
            rep = top.pred(x)
            if rep is not None:
                bucket = self._buckets[rep]
                i = bisect_right(bucket, x)
            elif top.min is None:
                self._buckets[x] = self._finger = [x]
                top.insert(x)
                return None
            else:
                # new global minimum joins (and re-labels) the first bucket
                rep = top.min
                bucket = self._buckets.pop(rep)
                top.delete(rep)
                top.insert(x)
                self._buckets[x] = bucket
                i = 0
        prv = bucket[i - 1] if i else None
        bucket.insert(i, x)
        self._finger = bucket
        if len(bucket) > self._cap:
            self._split(bucket)
        return prv

    def _split(self, bucket: list[int]) -> None:
        half = len(bucket) // 2
        right = bucket[half:]
        del bucket[half:]
        self._buckets[right[0]] = right
        self._top.insert(right[0])

    def _bucket_delete(self, x: int) -> None:
        top = self._top
        bucket = self._finger
        if bucket and bucket[0] <= x <= bucket[-1]:
            rep = bucket[0]
        else:
            rep = top.pred(x)
            bucket = self._buckets[rep]
        bucket.pop(bisect_left(bucket, x))
        self._finger = bucket
        if not bucket:
            del self._buckets[rep]
            top.delete(rep)
            return
        if x == rep:
            del self._buckets[rep]
            top.delete(rep)
            rep = bucket[0]
            self._buckets[rep] = bucket
            top.insert(rep)
        if len(bucket) < self.width // 2:
            nxt = top.next_of(rep)
            if nxt is not None:
                # merge in place, so the finger stays on a live bucket
                bucket += self._buckets.pop(nxt)
                top.delete(nxt)
                if len(bucket) > self._cap:
                    self._split(bucket)
