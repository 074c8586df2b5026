"""Dynamic one-dimensional range reporting over word-sized integer keys.

The structure maintains a set S of width-bit keys and answers
``findany(a, b)``: some element of S in [a, b], or None exactly when the
interval is empty.  Queries never touch the predecessor structures; they
binary-search over re-chunked tries (order t summarizes branch**t bits per
edge) for the first order at which the query node's chunk contains a
branching node, then resolve the lowest branching ancestor through a
compressed-pointer index and verify every candidate against the branching
table before trusting it.  The index may be backed by an exact dictionary
or by a Bloomier filter; arbitrary answers for unstored keys are harmless
because of the verification step.

An update is one predecessor update plus O(top) index writes that follow
one rule.  Per trie order, entries are mandated for every branching node
and (depending on the variant) for active children of branching nodes or
for active nodes with a branching ancestor inside their natural depth-B
subtree; each holds the depth of its lowest branching ancestor.  A key x
with neighbor-LCA v, whose lowest branching ancestor is a, changes three
sets of entries: keys absent without x that hold a's depth with it (the
order-k node that x makes branching), keys absent without x that hold v's
depth with it, and keys that hold a's depth without x and v's depth with
it.  ``_index_changes`` computes the three; an insert applies them
forwards and a delete backwards, so a delete is the exact inverse of the
insert it undoes.

A branching record names each of its two child subtrees by one int: the
leaf code ``(x << 10) | 1023`` of a lone key x (``_leaf_code``), or the
order-0 node key of the branching child, whose low ten bits ``d << 3`` are
never all ones; None marks an empty side of the root.  Navigation-list
entries, which are their own handles, live only with their owners:
``leaves[x]`` holds x's element entry, a branching record its Open and
Close.  The predecessor set over augmented-list keys finds where a new
entry goes, and ``_handle_of`` decodes a found key to its owner, so no map
from keys to entries is kept.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .bloomier import BloomierConfig, BloomierFilter
from .navlist import CLOSE, ELEMENT, OPEN, NavList, _Entry
from .predecessor import PredecessorSet
from .wordops import VALID_WIDTHS, NodeName, ensure, lca_depth, top_order, trie_depth

VARIANT_CORE = "core"
VARIANT_FAST_UPDATE = "5a"
VARIANT_FAST_QUERY = "5b"
VARIANTS = (VARIANT_CORE, VARIANT_FAST_UPDATE, VARIANT_FAST_QUERY)

BACKEND_EXACT = "exact"
BACKEND_BLOOMIER = "bloomier"
BACKENDS = (BACKEND_EXACT, BACKEND_BLOOMIER)

# tag fields of an encoded node name: depth <= 64 needs 7 bits, order <= 6
# needs 3
_DEPTH_BITS = 7
_ORDER_BITS = 3
_TAG_BITS = _DEPTH_BITS + _ORDER_BITS
_TAG_MASK = (1 << _TAG_BITS) - 1

# augmented-list keys: a doubled coordinate over a rank bit, which makes a
# Close precede an Open at the same coordinate, over the tag bits
_RANK_BIT = 1 << _TAG_BITS
_AUG_BITS = _TAG_BITS + 1
_AUG_MASK = (1 << _AUG_BITS) - 1


@dataclass(frozen=True)
class RangeConfig:
    width: int
    branch: int = 2
    variant: str = VARIANT_CORE
    backend: str = BACKEND_EXACT
    capacity: int = 1 << 16
    audit: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.width not in VALID_WIDTHS:
            raise ValueError(f"unsupported width {self.width}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.variant == VARIANT_CORE:
            if self.branch != 2:
                raise ValueError("core variant requires branch 2")
        else:
            b = self.branch
            if b < 2 or b > self.width or b & (b - 1):
                raise ValueError("branch must be a power of two in [2, width]")
        if self.capacity < 1:
            raise ValueError("capacity must be positive")


class AncestorIndex:
    """Depth-of-lowest-branching-ancestor store keyed by encoded node names.

    The exact backend is a dictionary; the compact backend is a Bloomier
    filter (values are stored shifted by one so 0 can mean "absent").
    Callers must know whether a key is present: adds require absence, sets
    and drops require presence.  The exact backend checks this discipline
    and raises KeyError on a breach; under audit, a mirror of the filter's
    contents does the same for the compact backend and feeds audits.
    """

    def __init__(self, backend: str, capacity: int, key_bits: int,
                 value_bits: int, seed: int, audit: bool):
        self.backend = backend
        self.reads = 0
        self.writes = 0
        self._store: dict[int, int] | None = None
        self._filter: BloomierFilter | None = None
        if backend == BACKEND_EXACT:
            self._store = {}
        else:
            cfg = BloomierConfig.create(capacity, key_bits, value_bits, 0.25)
            self._filter = BloomierFilter(cfg, seed)
        # the present keys with their depths, where they are known: the
        # exact store itself, or under audit a mirror of the filter
        self._known: dict[int, int] | None = (
            self._store if self._store is not None else {} if audit else None
        )

    def add(self, key: int, depth: int) -> None:
        self.writes += 1
        known = self._known
        if known is not None:
            if key in known:
                raise KeyError(f"add of a present key {key}")
            known[key] = depth
        if self._filter is not None:
            self._filter.insert(key, depth + 1)

    def set(self, key: int, depth: int) -> None:
        self.writes += 1
        known = self._known
        if known is not None:
            if key not in known:
                raise KeyError(f"set of an absent key {key}")
            known[key] = depth
        if self._filter is not None:
            self._filter.replace(key, depth + 1)

    def drop(self, key: int) -> None:
        self.writes += 1
        known = self._known
        if known is not None:
            if key not in known:
                raise KeyError(f"drop of an absent key {key}")
            del known[key]
        if self._filter is not None:
            self._filter.delete(key)

    def get(self, key: int) -> int | None:
        self.reads += 1
        if self._store is not None:
            return self._store.get(key)
        raw = self._filter.lookup(key)
        return raw - 1 if raw else None

    def snapshot(self) -> dict[int, int]:
        if self._known is None:
            raise RuntimeError("snapshot needs the exact backend or audit mode")
        return dict(self._known)

    def space_bits(self) -> int:
        if self._filter is not None:
            return self._filter.space_bits()
        total = 64
        for key, _ in (self._store or {}).items():
            total += key.bit_length() + 8
        return total


@dataclass(slots=True)
class BranchingRecord:
    depth: int                          # the order-0 node, stored as plain ints
    prefix: int                         # (one object less per node to track)
    ancestor: int | None                # encoded key of the lowest branching ancestor
    desc: tuple                         # (left, right): None, a leaf code or a node key
    open_h: _Entry | None = None
    close_h: _Entry | None = None

    @property
    def name(self) -> NodeName:
        return NodeName(0, self.depth, self.prefix)


@dataclass
class OpStats:
    max_index_writes_insert: int = 0
    max_index_writes_delete: int = 0
    max_test_branching: int = 0
    max_nav_queries: int = 0
    max_index_reads_query: int = 0
    pred_queries_during_query: int = 0
    queries: int = 0
    inserts: int = 0
    deletes: int = 0


def _replace_side(desc: tuple, side: int, tag) -> tuple:
    """The descendant pair with its entry on `side` set to `tag`.

    Pairs are rebuilt rather than mutated: a tuple of untracked values drops
    out of the cyclic collector's tracking, where a list would stay in it.
    """
    return (tag, desc[1]) if side == 0 else (desc[0], tag)


class RangeReporter:
    def __init__(self, config: RangeConfig):
        self.config = config
        self.w = config.width
        self.B = config.branch
        self.top = top_order(self.w, self.B)
        self._chunks = [self.B**t for t in range(self.top + 1)]
        self._tdepth = [trie_depth(self.w, t, self.B) for t in range(self.top + 1)]
        self.pred = PredecessorSet(self.w)
        # augmented-list keys: a (w+2)-bit doubled coordinate over 11 tag bits
        self._sbar_pred = PredecessorSet(self.w + _TAG_BITS + 3)
        self.nav = NavList(self.w)
        self.table: dict[int, BranchingRecord] = {}
        self.leaves: dict[int, _Entry] = {}
        index_cap = 4 * config.capacity * (self.top + 2)
        if config.variant == VARIANT_FAST_QUERY:
            index_cap *= self.B
        # distinct keys are bounded by the name space; keep the filter sizable
        index_cap = min(index_cap, (1 << (self.w + _TAG_BITS)) // 4)
        self.index = AncestorIndex(
            config.backend, index_cap, self.w + _TAG_BITS,
            (self.w + 1).bit_length(), config.seed, config.audit,
        )
        self.stats = OpStats()
        self._root_key = self._enc(0, 0, 0)
        self._fast_query = config.variant == VARIANT_FAST_QUERY
        # _codes[t][d] is the order-t depth-d code with every prefix bit set:
        # and-ed with _leaf_code(x) it gives the code of that node on x's path
        self._codes = [
            [self._enc(t, d, (1 << min(d * ch, self.w)) - 1) for d in range(td + 1)]
            for t, (ch, td) in enumerate(zip(self._chunks, self._tdepth))
        ]
        self._q_tb = 0
        self._q_nav = 0

    # -- encodings ----------------------------------------------------------

    def _enc(self, t: int, d: int, p: int) -> int:
        """The index key of the order-t node at depth d with prefix p.

        The prefix is left-aligned in a width-bit field, so that names of
        different depths cannot collide, and depth and order follow it.
        """
        pb = min(d * self._chunks[t], self.w)
        return ((p << (self.w - pb)) << _TAG_BITS) | (d << _ORDER_BITS) | t

    def _enc0(self, d: int, p: int) -> int:
        return ((p << (self.w - d)) << _TAG_BITS) | (d << _ORDER_BITS)

    @staticmethod
    def _leaf_code(x: int) -> int:
        return (x << _TAG_BITS) | _TAG_MASK

    # augmented-list keys: the doubled coordinate, then the rank bit, then
    # the nesting depth (Open) or width minus it (Close)
    def _key_element(self, x: int) -> int:
        return (2 * x + 1) << _AUG_BITS

    def _key_open(self, d: int, p: int) -> int:
        lo = p << (self.w - d)
        return ((2 * lo) << _AUG_BITS) | _RANK_BIT | d

    def _key_close(self, d: int, p: int) -> int:
        lo = p << (self.w - d)
        hi = lo + (1 << (self.w - d)) - 1
        return ((2 * hi + 2) << _AUG_BITS) | (self.w - d)

    # -- augmented-list maintenance ------------------------------------------

    def _handle_of(self, key: int) -> _Entry:
        """The navigation entry with augmented-list key `key`, read from its
        owner.

        The low 11 bits are 0 for an element; for a parenthesis the rank bit
        tells an Open (depth d below it) from a Close (w - d).  The owner's
        node key ``(lo << 10) | (d << 3)`` is ``_enc0(d, p)``, where
        ``lo = p << (w - d)`` is the first key of its span.
        """
        low = key & _AUG_MASK
        # half the coordinate: x for element x (rounded down), lo for an
        # Open, lo + 2**(w - d) for a Close
        c = key >> (_AUG_BITS + 1)
        if not low:
            return self.leaves[c]
        if low & _RANK_BIT:
            return self.table[(c << _TAG_BITS) | ((low ^ _RANK_BIT) << _ORDER_BITS)].open_h
        return self.table[((c - (1 << low)) << _TAG_BITS)
                          | ((self.w - low) << _ORDER_BITS)].close_h

    def _sbar_insert(self, key: int, kind: int, value: int | None = None,
                     owner: int | None = None) -> _Entry:
        """Insert an augmented-list entry; the owner of the entry before it
        must already hold that entry."""
        prev_key, _nxt, fresh = self._sbar_pred.insert(key)
        if not fresh:
            raise AssertionError("duplicate augmented-list key")
        if prev_key is None:
            return self.nav.insert_first(kind, value, owner)
        return self.nav.insert_after(self._handle_of(prev_key), kind, value, owner)

    def _sbar_delete(self, key: int, h: _Entry) -> None:
        self._sbar_pred.delete(key)
        self.nav.delete(h)

    # -- element access -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.leaves)

    def __contains__(self, x: int) -> bool:
        return x in self.leaves

    def sorted_elements(self) -> list[int]:
        return list(self.pred)

    # -- updates ---------------------------------------------------------------

    def insert(self, x: int) -> bool:
        if x >> self.w:
            raise ValueError(f"key {x} does not fit in {self.w} bits")
        if x in self.leaves:
            return False
        if len(self.leaves) >= self.config.capacity:
            raise ValueError("capacity exceeded")
        writes_before = self.index.writes
        prev, nxt, _ = self.pred.insert(x)
        if prev is None and nxt is None:
            self._insert_first(x)
        else:
            self._insert_nonempty(x, prev, nxt)
        self.stats.inserts += 1
        delta = self.index.writes - writes_before
        if delta > self.stats.max_index_writes_insert:
            self.stats.max_index_writes_insert = delta
        if self.config.audit:
            self.check()
        return True

    def _insert_first(self, x: int) -> None:
        root_key = self._root_key
        root = BranchingRecord(0, 0, None, _replace_side((None, None), x >> (self.w - 1),
                                                         self._leaf_code(x)))
        # each entry's owner holds its handle before the next entry goes in
        self.table[root_key] = root
        root.open_h = self._sbar_insert(self._key_open(0, 0), OPEN, owner=root_key)
        self.leaves[x] = self._sbar_insert(self._key_element(x), ELEMENT, x)
        root.close_h = self._sbar_insert(self._key_close(0, 0), CLOSE, owner=root_key)
        idx_add = self.index.add
        for key in self._root_child_keys(x):
            idx_add(key, 0)

    def _root_child_keys(self, x: int) -> list[int]:
        """Index keys mandated for the only key x: its path below each root."""
        xc = self._leaf_code(x)
        if self._fast_query:
            return [xc & codes[dd] for codes in self._codes
                    for dd in range(1, min(self.B, len(codes)))]
        return [xc & codes[1] for codes in self._codes]

    def _neighbor(self, x: int, prev: int | None, nxt: int | None) -> tuple[int, int]:
        """(depth of v, neighbor) where v is the deeper of x's LCAs with its
        key neighbors; the two depths always differ, and x ^ key is smaller
        for the deeper one."""
        if nxt is None or (prev is not None and (x ^ prev) < (x ^ nxt)):
            nbr = prev
        else:
            nbr = nxt
        return self.w - (x ^ nbr).bit_length(), nbr

    def _insert_nonempty(self, x: int, prev: int | None, nxt: int | None) -> None:
        w = self.w
        d_v, nbr = self._neighbor(x, prev, nxt)

        if d_v == 0:
            # the new divergence point is the root itself; its record exists
            root = self.table[self._root_key]
            x_side = x >> (w - 1)
            y_tag = root.desc[1 - x_side]
            assert root.desc[x_side] is None and y_tag is not None
            root.desc = _replace_side(root.desc, x_side, self._leaf_code(x))
            self.leaves[x] = self._sbar_insert(self._key_element(x), ELEMENT, x)
            self._index_insert(x, nbr, 0, y_tag, a_depth=0, a_real=False)
            return

        v_p = x >> (w - d_v)
        v_key = self._enc0(d_v, v_p)
        x_side = (x >> (w - d_v - 1)) & 1
        open_h = self._sbar_insert(self._key_open(d_v, v_p), OPEN, owner=v_key)
        # Close(v) goes in after y's last entry, whose owner exists: never
        # after Open(v), whose record is not in the table yet
        close_h = self._sbar_insert(self._key_close(d_v, v_p), CLOSE, owner=v_key)
        # the innermost enclosing parenthesis pair touches the new pair
        left = open_h.prev
        if left is not None and left.kind == OPEN:
            a_key = left.owner
        else:
            right = close_h.next
            assert right is not None and right.kind == CLOSE, \
                "no enclosing parenthesis adjacent to the new pair"
            a_key = right.owner
        a_rec = self.table[a_key]
        a_desc = a_rec.desc
        a_real = a_desc[0] is not None and a_desc[1] is not None
        a_depth = a_rec.depth
        side_a = (v_p >> (d_v - a_depth - 1)) & 1
        y_tag = a_desc[side_a]
        assert y_tag is not None

        rec = BranchingRecord(d_v, v_p, a_key,
                              _replace_side((y_tag, y_tag), x_side, self._leaf_code(x)),
                              open_h, close_h)
        a_rec.desc = _replace_side(a_desc, side_a, v_key)
        if (y_tag & _TAG_MASK) != _TAG_MASK:
            self.table[y_tag].ancestor = v_key
        self.table[v_key] = rec
        self.leaves[x] = self._sbar_insert(self._key_element(x), ELEMENT, x)
        self._index_insert(x, nbr, d_v, y_tag, a_depth, a_real)

    def _index_insert(self, x: int, nbr: int, d_v: int, y_tag, a_depth: int,
                      a_real: bool) -> None:
        to_a, to_v, a_to_v = self._index_changes(x, nbr, d_v, y_tag, a_depth, a_real)
        idx_add = self.index.add
        for key in to_a:
            idx_add(key, a_depth)
        for key in to_v:
            idx_add(key, d_v)
        idx_set = self.index.set
        for key in a_to_v:
            idx_set(key, d_v)

    def _index_changes(self, x: int, nbr: int, d_v: int, y_tag, a_depth: int,
                       a_real: bool) -> tuple[list[int], list[int], list[int]]:
        """The index entries that x's presence changes, as three key lists.

        v = LCA(x, nbr) sits at depth d_v, y_tag names v's child subtree
        other than x, and a is v's lowest branching ancestor at depth
        a_depth (0 when v is the root); a_real says whether a branches
        without x (it then branches with x too), so an insert and the
        delete that undoes it pass the same arguments.
        Returns the keys that are absent without x and hold a_depth with it
        (the order-k node that x makes branching), the keys that are absent
        without x and hold d_v with it, and the keys that hold a_depth
        without x and d_v with it.
        """
        y_real = (y_tag & _TAG_MASK) != _TAG_MASK
        # a node key's low ten bits are its depth over the order-0 field
        y_d0 = (y_tag & _TAG_MASK) >> _ORDER_BITS if y_real else self.w
        fast_query = self._fast_query
        B = self.B
        to_a: list[int] = []
        to_v: list[int] = []
        a_to_v: list[int] = []
        xc = self._leaf_code(x)
        # nbr lies under y, so its code also addresses every node on y's path
        nc = self._leaf_code(nbr)
        for ch, codes in zip(self._chunks, self._codes):
            k = d_v // ch
            yk = y_d0 // ch
            # whether the order-k node holding v branches without x
            w_real = not k or (a_real and a_depth >= k * ch) or (y_real and yk == k)

            if not w_real:
                # the node may already carry a (value-identical) child entry
                if fast_query:
                    present = k < B or (a_real and a_depth >= (k // B) * B * ch)
                else:
                    present = k == 1 or (a_real and a_depth >= (k - 1) * ch)
                if not present:
                    to_a.append(xc & codes[k])

            if fast_query:
                ns_root = (k // B) * B
                border = min(ns_root + B - 1, len(codes) - 1)
                # a surviving-path node inside this natural subtree is
                # stored without x iff some branching node sits between the
                # subtree root and it: the deepest candidate is the lowest
                # branching ancestor (whose chunk level is a_depth // ch)
                had_ns_anc = ns_root == 0 or (a_real and a_depth // ch >= ns_root)
                for dd in range(k + 1, border + 1):
                    to_v.append(xc & codes[dd])
                for dd in range(k + 1, border + 1):
                    if y_real and dd > yk:
                        break
                    if had_ns_anc or (y_real and dd == yk):
                        a_to_v.append(nc & codes[dd])
                    else:
                        to_v.append(nc & codes[dd])
                if y_real and yk > border:
                    a_to_v.append(nc & codes[yk])
            else:
                code = codes[k + 1]
                to_v.append(xc & code)
                if not y_real or yk > k:
                    if w_real or (y_real and yk == k + 1):
                        a_to_v.append(nc & code)
                    else:
                        to_v.append(nc & code)
                if y_real and yk >= k + 2:
                    a_to_v.append(nc & codes[yk])
        return to_a, to_v, a_to_v

    def delete(self, x: int) -> bool:
        if x not in self.leaves:
            return False
        writes_before = self.index.writes
        prev = self.pred.prev_key(x)
        nxt = self.pred.next_key(x)
        if prev is None and nxt is None:
            self._delete_last(x)
        else:
            self._delete_nonlast(x, prev, nxt)
        self.stats.deletes += 1
        delta = self.index.writes - writes_before
        if delta > self.stats.max_index_writes_delete:
            self.stats.max_index_writes_delete = delta
        if self.config.audit:
            self.check()
        return True

    def _delete_last(self, x: int) -> None:
        idx_drop = self.index.drop
        for key in self._root_child_keys(x):
            idx_drop(key)
        root = self.table.pop(self._root_key)
        self._sbar_delete(self._key_element(x), self.leaves.pop(x))
        self._sbar_delete(self._key_open(0, 0), root.open_h)
        self._sbar_delete(self._key_close(0, 0), root.close_h)
        self.pred.delete(x)

    def _delete_nonlast(self, x: int, prev: int | None, nxt: int | None) -> None:
        w = self.w
        d_v, nbr = self._neighbor(x, prev, nxt)

        if d_v == 0:
            root = self.table[self._root_key]
            x_side = x >> (w - 1)
            assert root.desc[x_side] == self._leaf_code(x)
            root.desc = _replace_side(root.desc, x_side, None)
            y_tag = root.desc[1 - x_side]
            self._sbar_delete(self._key_element(x), self.leaves.pop(x))
            self.pred.delete(x)
            self._index_delete(x, nbr, 0, y_tag, a_depth=0, a_real=False)
            return

        v_p = x >> (w - d_v)
        v_key = self._enc0(d_v, v_p)
        rec = self.table.pop(v_key)
        x_side = (x >> (w - d_v - 1)) & 1
        assert rec.desc[x_side] == self._leaf_code(x)
        y_tag = rec.desc[1 - x_side]
        a_key = rec.ancestor
        a_rec = self.table[a_key]
        a_desc = a_rec.desc
        a_depth = a_rec.depth
        side_a = (v_p >> (d_v - a_depth - 1)) & 1
        assert a_desc[side_a] == v_key
        a_rec.desc = a_desc = _replace_side(a_desc, side_a, y_tag)
        if (y_tag & _TAG_MASK) != _TAG_MASK:
            self.table[y_tag].ancestor = a_key
        self._sbar_delete(self._key_open(d_v, v_p), rec.open_h)
        self._sbar_delete(self._key_close(d_v, v_p), rec.close_h)
        self._sbar_delete(self._key_element(x), self.leaves.pop(x))
        self.pred.delete(x)
        a_real = a_desc[0] is not None and a_desc[1] is not None
        self._index_delete(x, nbr, d_v, y_tag, a_depth, a_real)

    def _index_delete(self, x: int, nbr: int, d_v: int, y_tag, a_depth: int,
                      a_real: bool) -> None:
        to_a, to_v, a_to_v = self._index_changes(x, nbr, d_v, y_tag, a_depth, a_real)
        idx_set = self.index.set
        for key in a_to_v:
            idx_set(key, a_depth)
        idx_drop = self.index.drop
        for key in to_v:
            idx_drop(key)
        for key in to_a:
            idx_drop(key)

    # -- queries ------------------------------------------------------------------

    def test_branching(self, t: int, d: int, p: int) -> bool:
        """Exact branching test for any order-t node; roots count as branching."""
        self._q_tb += 1
        if d == 0:
            return True
        if d >= self._tdepth[t]:
            return False
        depth = self.index.get(self._enc(t, d, p))
        if depth is None:
            return False
        ch = self._chunks[t]
        r0d = d * ch
        if depth >= r0d:
            return False
        rec = self.table.get(self._enc0(depth, p >> (r0d - depth)))
        if rec is None:
            return False
        desc = rec.desc[(p >> (r0d - depth - 1)) & 1]
        if desc is None or (desc & _TAG_MASK) == _TAG_MASK:
            return False
        node = self.table[desc]
        return node.depth // ch == d and (node.prefix >> (node.depth - r0d)) == p

    def verify_lowest_ancestor(self, rec: BranchingRecord, v: NodeName) -> bool:
        """True iff `rec` is a strict ancestor of the order-0 node `v` whose
        branching descendant on v's side lies at or below v."""
        return self._verified_ancestor(rec.depth, v.depth, v.prefix) is rec

    def _verified_ancestor(self, depth: int | None, v_d: int, v_p: int):
        """Branching record at `depth` on v's path, checked to be a genuine
        strict ancestor whose descendant on v's side sits inside v's subtree."""
        if depth is None or depth >= v_d:
            return None
        rec = self.table.get(self._enc0(depth, v_p >> (v_d - depth)))
        if rec is None:
            return None
        desc = rec.desc[(v_p >> (v_d - depth - 1)) & 1]
        if desc is None:
            return None
        if (desc & _TAG_MASK) == _TAG_MASK:
            dd, dp = self.w, desc >> _TAG_BITS
        else:
            node = self.table[desc]
            dd, dp = node.depth, node.prefix
        if dd < v_d or (dp >> (dd - v_d)) != v_p:
            return None
        return rec

    def _resolve_ancestor(self, v_d: int, v_p: int, t_star: int):
        """Locate and verify the lowest branching ancestor of the non-branching
        query node, given the first order whose trie maps it to a branching node."""
        w = self.w
        t1 = t_star - 1
        ch1 = self._chunks[t1]
        z_d = v_d // ch1
        z_p = v_p >> (v_d - z_d * ch1)
        variant = self.config.variant
        ch_star = self._chunks[t_star]
        k_star = v_d // ch_star

        if variant == VARIANT_CORE:
            if z_d & 1:
                depth = self.index.get(self._enc(t1, z_d, z_p))
            else:
                depth = self.index.get(self._enc(t_star, k_star, v_p >> (v_d - k_star * ch_star)))
            return self._verified_ancestor(depth, v_d, v_p)

        if k_star != 0:
            depth = self.index.get(self._enc(t_star, k_star, v_p >> (v_d - k_star * ch_star)))
            rec = self._verified_ancestor(depth, v_d, v_p)
            if rec is not None:
                return rec
        if variant == VARIANT_FAST_QUERY:
            depth = self.index.get(self._enc(t1, z_d, z_p))
            return self._verified_ancestor(depth, v_d, v_p)
        # walk up the order-(t*-1) trie within the natural subtree
        ns_root = (z_d // self.B) * self.B
        for dd in range(z_d, ns_root, -1):
            depth = self.index.get(self._enc(t1, dd, v_p >> (v_d - dd * ch1)))
            rec = self._verified_ancestor(depth, v_d, v_p)
            if rec is not None:
                return rec
        return None

    def _max_under(self, desc) -> int:
        if (desc & _TAG_MASK) == _TAG_MASK:
            return desc >> _TAG_BITS
        self._q_nav += 1
        return self.nav.nearest_element_left(self.table[desc].close_h).value

    def _min_under(self, desc) -> int:
        if (desc & _TAG_MASK) == _TAG_MASK:
            return desc >> _TAG_BITS
        self._q_nav += 1
        return self.nav.nearest_element_right(self.table[desc].open_h).value

    def findany(self, a: int, b: int) -> int | None:
        """Some element of S in [a, b], or None exactly when none exists.

        Bounds outside [0, 2**width) are clamped to the universe.
        """
        if a > b:
            raise ValueError("empty interval")
        self._q_tb = 0
        self._q_nav = 0
        reads_before = self.index.reads
        preds_before = self.pred.query_count + self._sbar_pred.query_count
        try:
            w = self.w
            # a bound lies outside [0, 2**w); as a <= b, a negative b makes
            # a negative too, so b >> w is only ever read for b >= 0
            if a < 0 or b >> w:
                a = max(a, 0)
                b = min(b, (1 << w) - 1)
                if a > b:
                    return None
            if a == b:
                return a if a in self.leaves else None
            if not self.leaves:
                return None
            v_d = lca_depth(a, b, w)
            v_p = a >> (w - v_d)
            rec = self.table.get(self._enc0(v_d, v_p))
            if rec is not None:
                left, right = rec.desc
                if left is not None:
                    c = self._max_under(left)
                    if a <= c <= b:
                        return c
                if right is not None:
                    c = self._min_under(right)
                    if a <= c <= b:
                        return c
                return None
            lo, hi = 1, self.top
            while lo < hi:
                mid = (lo + hi) // 2
                ch = self._chunks[mid]
                if self.test_branching(mid, v_d // ch, v_p >> (v_d - (v_d // ch) * ch)):
                    hi = mid
                else:
                    lo = mid + 1
            anc = self._resolve_ancestor(v_d, v_p, lo)
            if anc is None:
                return None
            desc = anc.desc[(v_p >> (v_d - anc.depth - 1)) & 1]
            c = self._max_under(desc)
            if a <= c <= b:
                return c
            c = self._min_under(desc)
            if a <= c <= b:
                return c
            return None
        finally:
            st = self.stats
            st.queries += 1
            if self._q_tb > st.max_test_branching:
                st.max_test_branching = self._q_tb
            if self._q_nav > st.max_nav_queries:
                st.max_nav_queries = self._q_nav
            reads = self.index.reads - reads_before
            if reads > st.max_index_reads_query:
                st.max_index_reads_query = reads
            st.pred_queries_during_query += (
                self.pred.query_count + self._sbar_pred.query_count - preds_before
            )

    def report(self, a: int, b: int):
        """All elements of S in [a, b] in increasing order.

        Seeds from findany, then walks the sorted key links in both
        directions.  The structure must not be mutated while iterating.
        """
        seed = self.findany(a, b)
        if seed is None:
            return
        left = []
        cur = seed
        while True:
            p = self.pred.prev_key(cur)
            if p is None or p < a:
                break
            left.append(p)
            cur = p
        for k in reversed(left):
            yield k
        yield seed
        cur = seed
        while True:
            n = self.pred.next_key(cur)
            if n is None or n > b:
                break
            yield n
            cur = n

    # -- audit -----------------------------------------------------------------

    def check(self) -> None:
        """Full structural audit against brute-force recomputation; a breach
        raises AssertionError, also under ``python -O``."""
        elems = sorted(self.leaves)
        ensure(list(self.pred) == elems, "predecessor set disagrees with leaf table")

        expected = self._expected_records(elems)
        if set(self.table) != set(expected):
            raise AssertionError(
                f"branching table keys differ: extra={set(self.table) - set(expected)} "
                f"missing={set(expected) - set(self.table)}"
            )
        for key, (anc, d_left, d_right) in expected.items():
            rec = self.table[key]
            if rec.ancestor != anc:
                raise AssertionError(f"ancestor mismatch at {rec.name}")
            if rec.desc != (d_left, d_right):
                raise AssertionError(
                    f"descendant mismatch at {rec.name}: {rec.desc} vs {(d_left, d_right)}"
                )
            ensure(rec.open_h.kind == OPEN and rec.open_h.owner == key
                   and rec.close_h.kind == CLOSE and rec.close_h.owner == key,
                   "a record's parenthesis entries belong to another node")

        self.nav.validate()
        self._check_sequence(elems)
        self._check_index(elems)

    def _expected_records(self, elems: list[int]):
        """Brute-force (ancestor, left desc, right desc) for every branching node."""
        w = self.w
        out: dict[int, tuple] = {}
        if not elems:
            return out
        root_key = self._root_key

        def top_tag(lo: int, hi: int):
            if hi - lo == 1:
                return self._leaf_code(elems[lo])
            d = lca_depth(elems[lo], elems[hi - 1], w)
            return self._enc0(d, elems[lo] >> (w - d))

        def build(lo: int, hi: int, anc: int | None):
            d = lca_depth(elems[lo], elems[hi - 1], w)
            p = elems[lo] >> (w - d)
            key = self._enc0(d, p)
            threshold = ((p << 1) | 1) << (w - d - 1)
            m = bisect_left(elems, threshold, lo, hi)
            out[key] = (anc, top_tag(lo, m), top_tag(m, hi))
            if m - lo >= 2:
                build(lo, m, key)
            if hi - m >= 2:
                build(m, hi, key)

        if len(elems) == 1:
            side = elems[0] >> (w - 1)
            tags = [None, None]
            tags[side] = self._leaf_code(elems[0])
            out[root_key] = (None, tags[0], tags[1])
            return out
        d0 = lca_depth(elems[0], elems[-1], w)
        if d0 == 0:
            build(0, len(elems), None)
        else:
            side = elems[0] >> (w - 1)
            tags = [None, None]
            tags[side] = top_tag(0, len(elems))
            out[root_key] = (None, tags[0], tags[1])
            build(0, len(elems), root_key)
        return out

    def _check_sequence(self, elems: list[int]) -> None:
        """Augmented list equals the key-sorted interleaving, its keys read
        back their handles through the owners, parens balance, every matched
        pair encloses an element, and runs stay short."""
        expected = [(self._key_element(x), ELEMENT, x) for x in elems]
        for key, rec in self.table.items():
            d, p = rec.depth, rec.prefix
            expected.append((self._key_open(d, p), OPEN, key))
            expected.append((self._key_close(d, p), CLOSE, key))
        expected.sort()
        entries = list(self.nav)
        got = [(e.kind, e.value if e.kind == ELEMENT else e.owner) for e in entries]
        ensure(got == [(k, ident) for _, k, ident in expected], "list order mismatch")
        keys = [key for key, _, _ in expected]
        ensure(list(self._sbar_pred) == keys,
               "augmented-list keys differ from the leaf and branching tables")
        ensure(all(self._handle_of(key) is e for key, e in zip(keys, entries)),
               "an owner does not hold its entry")

        stack: list[tuple[int, int]] = []  # (owner, elements seen so far)
        run = 0
        for kind, ident in got:
            if kind == ELEMENT:
                run = 0
                stack = [(o, c + 1) for o, c in stack]
            else:
                run += 1
                ensure(run <= 2 * self.w, "element-free run exceeds 2w")
                if kind == OPEN:
                    stack.append((ident, 0))
                else:
                    owner, count = stack.pop()
                    ensure(owner == ident, "parentheses do not nest")
                    ensure(count >= 1, "matched pair encloses no element")
        ensure(not stack, "unbalanced parentheses")

    def _mandated_entries(self, elems: list[int]) -> dict[int, int]:
        """Brute-force mandated index keys and their exact values."""
        w = self.w
        B = self.B
        real: dict[int, tuple[int, int]] = {}
        for i in range(len(elems) - 1):
            d = lca_depth(elems[i], elems[i + 1], w)
            real[self._enc0(d, elems[i] >> (w - d))] = (d, elems[i] >> (w - d))

        def lba_depth(d0: int, path: int) -> int:
            # deepest real branching node strictly above depth d0 on the path
            # of a key with the given leading bits (path has >= d0 bits here)
            for dd in range(d0 - 1, 0, -1):
                if self._enc0(dd, path >> (d0 - dd)) in real:
                    return dd
            return 0

        mandated: dict[int, int] = {}
        fast_query = self.config.variant == VARIANT_FAST_QUERY
        for t in range(self.top + 1):
            ch = self._chunks[t]
            td = self._tdepth[t]
            branching_t: set[int] = set()
            for d, p in real.values():
                k = d // ch
                if k:
                    branching_t.add(self._enc(t, k, p >> (d - k * ch)))
            for key in branching_t:
                d_t = (key >> _ORDER_BITS) & ((1 << _DEPTH_BITS) - 1)
                p_t = (key >> _TAG_BITS) >> (w - min(d_t * ch, w))
                mandated[key] = lba_depth(d_t * ch, p_t)
            for x in elems:
                for dd in range(1, td + 1):
                    r0d = min(dd * ch, w)
                    key = self._enc(t, dd, x >> (w - r0d))
                    if key in mandated:
                        continue
                    if fast_query:
                        ns_root = (dd // B) * B
                        ok = False
                        if dd % B != 0:
                            if ns_root == 0:
                                ok = True  # the trie root heads this subtree
                            else:
                                for au in range(ns_root, dd):
                                    if self._enc(
                                        t, au, x >> (w - min(au * ch, w))
                                    ) in branching_t:
                                        ok = True
                                        break
                    else:
                        ok = dd == 1 or self._enc(
                            t, dd - 1, x >> (w - (dd - 1) * ch)
                        ) in branching_t
                    if ok:
                        mandated[key] = lba_depth(r0d, x >> (w - r0d))
        return mandated

    def _check_index(self, elems: list[int]) -> None:
        mandated = self._mandated_entries(elems)
        snap = self.index.snapshot()
        if snap != mandated:
            raise AssertionError(
                f"index mismatch: extra={ {k: v for k, v in snap.items() if k not in mandated} } "
                f"missing={ {k: v for k, v in mandated.items() if k not in snap} } "
                f"wrong={ {k: (snap[k], mandated[k]) for k in snap.keys() & mandated.keys() if snap[k] != mandated[k]} }"
            )
        if self.config.backend == BACKEND_BLOOMIER:
            lookup = self.index._filter.lookup
            ensure(all(lookup(key) == value + 1 for key, value in mandated.items()),
                   "filter disagrees on a mandated key")

    def space_bits(self) -> int:
        return self.index.space_bits()

    def dump(self) -> str:
        """One line per branching node for audit diffs: name, ancestor depth,
        descendants (in key order)."""

        def tag(desc) -> str:
            if desc is None:
                return "-"
            if (desc & _TAG_MASK) == _TAG_MASK:
                return f"leaf:{desc >> _TAG_BITS}"
            node = self.table[desc]
            return f"node:{node.depth}/{node.prefix:0{max(1, node.depth)}b}"

        lines = []
        for key in sorted(self.table):
            rec = self.table[key]
            anc = "-" if rec.ancestor is None else str(self.table[rec.ancestor].depth)
            lines.append(
                f"{rec.depth}/{rec.prefix:0{max(1, rec.depth)}b}"
                f" anc={anc} left={tag(rec.desc[0])} right={tag(rec.desc[1])}"
            )
        return "\n".join(lines)
