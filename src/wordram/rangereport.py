"""Dynamic one-dimensional range reporting over word-sized integer keys.

The structure maintains a set S of width-bit keys and answers
``findany(a, b)``: some element of S in [a, b], or None exactly when the
interval is empty.  Queries never touch the predecessor structures; they
binary-search over re-chunked tries (order t summarizes branch**t bits per
edge) for the first order at which the query node's chunk contains a
branching node, then resolve the lowest branching ancestor through a
compressed-pointer index and verify every candidate against the branching
table before trusting it.  Which node each step of that search probes,
whether the node is a root and whether an earlier step already probed it
depend only on v's depth and on the outcomes so far, never on the keys.
So findany follows a plan: for each depth of v a decision tree, built on
the first search at that depth (``_plan``) and shared by every reporter of
one width, branch and variant.  A probe is one tuple of the tree: it reads
and verifies its node's entry, one ``index.get`` call checked by
``_verified_descendant``, or reuses the verified descendant of the last
passing or last failing probe, which named the same node.  A leaf holds the
path's counts and the entries the resolution may still read; the
resolution takes the last probes' descendant that lies inside v's subtree
(``_inside``).  ``get`` counts nothing, so findany adds its reads to
``index.reads`` once.  ``tests/searchloop.py`` keeps the loop the plans
unroll as the oracle.  The index may be backed by an exact dictionary or
by a Bloomier filter; arbitrary answers for unstored keys are harmless
because of the verification step.
``report(a, b)`` seeds from findany and walks the navigation list's
element entries outward from the seed's entry, each step examining a
bounded number of buckets, so it too touches no predecessor structure.

An update is one predecessor update on S, which also returns the key's
neighbors, at most one on S̄ (below), plus O(top) index writes that follow
one rule.  Per trie order, entries are mandated for every branching node
and (depending on the variant) for active children of branching nodes or
for active nodes with a branching ancestor inside their natural depth-B
subtree.  An order-t node at depth k is the binary trie's node at bit
depth min(k*B**t, w), and its entry holds the depth of that node's lowest
branching ancestor, a value of the node and not of the order.  So the
index holds one entry per node that some order mandates.  A key x with
neighbor-LCA v, whose lowest branching ancestor is a, changes three sets
of nodes: nodes no order mandates without x that hold a's depth with it
(v's node in an order where x makes it branching), nodes no order
mandates without x that hold v's depth with it, and nodes that hold a's
depth without x and v's depth with it.  ``_index_changes`` alone computes
the three, for every key, as lists of node keys in a fixed order that
name each node once; an insert applies them forwards and a delete
backwards, each non-empty list with one batch call into the index, so a
delete is the exact inverse of the insert it undoes.  The rule has one
loop over the orders for 5b and two for core and 5a, the shorter one for
a lone key y, which has no branching node on its path below v.  Each
visits the orders coarsest first, and the first order to name a node
decides its change.  For core and 5a, each order's node holding v, the
node below it and whether that order names them first depend only on v's
depth, so the loops read them from rows built on the first update at
that depth (``_rule_rows``) and shared by every reporter of one width and
branch; only the tests against a and y run per update.
``tests/indexrule.py`` keeps the per-order loop the rule folds as the
oracle, and ``tests/ruleloop.py`` the folded loop the rows replace.  No
order mandates a node at the leaf level, bit depth w, which nothing
reads: findany reads nodes no deeper than v = LCA(a, b), which lies above
the leaves as a < b, a delete reads v's own entry, and v branches, and
``test_branching`` answers there without a read.  So the rule skips the
top order, whose trie holds only the root and the leaves.

The root's record exists for the reporter's lifetime: ``__init__`` creates
it with both sides empty, along with its S̄ key, its Open and its Close, and
no update adds or removes any of them.  So insert and delete each have one
shape.  When x's neighbors diverge from it at the root (the first and the
last key among them), v is the root and the update only fills or empties
x's side of it; a lone x has no sibling subtree, which ``_index_changes``
reads as a surviving path that ends at v.  Any other v gets or loses its
own record.  Both cases end alike: x's element is placed or removed, then
the index batches run.

A node's identity lives only in its key: the prefix, left-aligned in a
width-bit field, above seven tag bits that hold its bit depth, 0 to w.
Index entries, branching records and S̄ share these keys, and no key names
an order.  ``_enc`` builds the key from bit depth and prefix and ``_dec``
reads them back.  One key table addresses every node: one code per bit
depth with every prefix bit set, so and-ed with a code below a node whose
tag bits are all set, such as a leaf code ``(x << 7) | 127``
(``_leaf_code``), it gives the key of the node at that bit depth on that
node's path.  ``_codes[t][d]`` is the table's code for the order-t depth-d
node, the same int for every order that reaches its bit depth.  Updates
key their records and index changes this way from x's leaf code, and
findany from a's.  ``_ancestor`` and ``_verified_descendant`` take such a
code, not a prefix, and read the side a path takes and whether a child
lies in a subtree off it with one shift each, so neither an update nor a
findany probe calls the encoder.

A branching record, stored under its node's key, keeps no depth or
prefix.  Its slots ``left`` and ``right`` hold its two children's own
navigation entries: a lone key's element (``leaves[x]``) or the branching
child's record; None marks an empty side of the root.  No tag integer is
stored.  An update places v's parentheses around y, the child it takes
over, from the object itself, overwrites the side it changes in place,
after every consistency check has passed, and hands y itself to the index
rule.  The rule and ``_verified_descendant``, which checks every index
answer a query uses, read a child's place from its value: an element,
whose class says it is a leaf below every node, holds its key, and a
record holds its node's key, with the prefix left-aligned above the depth
field.  Only the audit's brute force names children by tag (a leaf code
or a node key), and the audit reads a tag back as the entry it names.

A record keeps no link to its lowest branching ancestor a.  A delete reads
a's depth from v's own index entry, which every branching node has.  An
insert, before v has one, reads it from S̄, the predecessor set over the
branching nodes' keys: a key holds its prefix
left-aligned above the depth field, so the keys sort in preorder, and the
key z just before v's is a itself or the last branching node in a's left
subtree, whose path parts from v's at a.  Either way a's depth is the
smaller of z's depth and the length of the prefix z's key shares with v's.
Navigation-list entries, which are their own handles, live only with their
owners and the records that hold them as children.  ``leaves[x]`` holds
x's element entry.  A branching record is
itself v's Open entry, one object with v's key as its value, so
``table[v_key]`` is the listed entry; its slot ``close`` holds v's Close,
whose value is the same key.  Entries keep no links; the list's buckets
alone hold their order, which is the tree's: Open(v), v's left subtree,
v's right subtree, Close(v).  So the tree places every entry: v's record
goes just before the first entry of y, the one old child subtree v takes
over, its Close just after y's last, and x's element just inside the
parentheses of the node x hangs from.

``stats`` keeps three per-query maxima (branching tests, navigation
queries, index reads), which findany updates, and over the queries that
search the orders the totals of branching tests and of passing ones, which
it reads from the plan's leaf.  ``pred_queries_during_query``
is not counted on the query path: it is read, when asked for, from the
predecessor sets' own query counters.  An update takes its neighbors from
the sets' insert and delete, which count nothing, so every counted query
is a query's, and the statistic costs findany nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .bloomier import BloomierConfig, BloomierFilter
from .navlist import CLOSE, ELEMENT, OPEN, Close, Element, NavList, Open, _Entry
from .predecessor import PredecessorSet
from .wordops import VALID_WIDTHS, ensure, lca_depth, top_order, trie_depth

VARIANT_CORE = "core"
VARIANT_FAST_UPDATE = "5a"
VARIANT_FAST_QUERY = "5b"
VARIANTS = (VARIANT_CORE, VARIANT_FAST_UPDATE, VARIANT_FAST_QUERY)

BACKEND_EXACT = "exact"
BACKEND_BLOOMIER = "bloomier"
BACKENDS = (BACKEND_EXACT, BACKEND_BLOOMIER)

# the tag field of an encoded node name: a bit depth 0..64, or 127 for a leaf
_TAG_BITS = 7
_TAG_MASK = (1 << _TAG_BITS) - 1

# how a plan's probe finds its node's verified descendant: it reads the
# node's entry, or it reuses that of the last passing or last failing probe
_READ, _REUSE_UP, _REUSE_DOWN = 0, 1, 2

# findany's probe plans, shared by every reporter of one (width, branch,
# variant): a list indexed by v's depth, each slot filled on the first
# search there (RangeReporter._plan), and the dict that interns their nodes
_PLANS: dict[tuple[int, int, str], tuple[list, dict]] = {}
# what a reporter reads until its first search: no depth has a plan
_NO_PLANS = (None,) * max(VALID_WIDTHS)
# the index rule's rows, shared by every reporter of one (width, branch): a
# list indexed by v's depth, each slot filled on the first update there
# (RangeReporter._rule_rows), and the dict that interns the rows
_ROWS: dict[tuple[int, int], tuple[list, dict]] = {}


def _shared_rows(width: int, branch: int) -> list:
    """The rule's row table of (width, branch), made empty when missing."""
    return _ROWS.setdefault((width, branch), ([None] * width, {}))[0]


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
    ``get(key)``, the one read, returns the stored depth or None.  It is
    bound per instance, at construction and on copy or unpickling, to the
    store's own ``dict.get`` or the filter's ``depth_reader``, so a read
    costs one call and counts nothing; callers add their reads to ``reads``.
    Writes come in batches, one call per list of keys that take the same
    change (``add_all``, ``set_all``, ``drop_all``), applied in list order;
    ``add``, ``set`` and ``drop`` are one-key batches.  Callers must know
    whether a key is present: adds require absence, sets and drops require
    presence, and a batch names each key once.  The exact backend checks
    this discipline and raises KeyError on a breach before the batch writes
    anything; under audit, a mirror of the filter's contents does the same
    for the compact backend and feeds audits.
    """

    def __init__(self, backend: str, capacity: int, key_bits: int,
                 value_bits: int, seed: int, audit: bool):
        self.reads = 0
        self.writes = 0
        self._store: dict[int, int] | None = None
        self._filter: BloomierFilter | None = None
        if backend == BACKEND_EXACT:
            self._store = {}
        else:
            cfg = BloomierConfig.create(capacity, key_bits, value_bits, 0.25)
            self._filter = BloomierFilter(cfg, seed)
        self._bind_get()
        # the present keys with their depths, where they are known: the
        # exact store itself, or under audit a mirror of the filter
        self._known: dict[int, int] | None = (
            self._store if self._store is not None else {} if audit else None
        )

    def _bind_get(self) -> None:
        self.get = self._store.get if self._filter is None else self._filter.depth_reader()

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "get"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_get()

    def add(self, key: int, depth: int) -> None:
        self.add_all((key,), depth)

    def set(self, key: int, depth: int) -> None:
        self.set_all((key,), depth)

    def drop(self, key: int) -> None:
        self.drop_all((key,))

    def add_all(self, keys, depth: int) -> None:
        """Map each of `keys`, all absent, to depth."""
        self.writes += len(keys)
        known = self._known
        if known is not None:
            for key in keys:
                if key in known:
                    raise KeyError(f"add of a present key {key}")
            for key in keys:
                known[key] = depth
        if self._filter is not None:
            self._filter.insert_all(keys, depth + 1)

    def set_all(self, keys, depth: int) -> None:
        """Map each of `keys`, all present, to depth."""
        self.writes += len(keys)
        known = self._known
        if known is not None:
            for key in keys:
                if key not in known:
                    raise KeyError(f"set of an absent key {key}")
            for key in keys:
                known[key] = depth
        if self._filter is not None:
            self._filter.replace_all(keys, depth + 1)

    def drop_all(self, keys) -> None:
        """Remove each of `keys`, all present."""
        self.writes += len(keys)
        known = self._known
        if known is not None:
            for key in keys:
                if key not in known:
                    raise KeyError(f"drop of an absent key {key}")
            for key in keys:
                del known[key]
        if self._filter is not None:
            self._filter.delete_all(keys)

    def snapshot(self) -> dict[int, int]:
        if self._known is None:
            raise RuntimeError("snapshot needs the exact backend or audit mode")
        return dict(self._known)

    def space_bits(self) -> int:
        if self._filter is not None:
            return self._filter.space_bits()
        return 64 + sum(key.bit_length() + 8 for key in self._store)


class BranchingRecord(Open):
    """A branching node's record, which is also the node's Open entry in the
    navigation list; its value is the node's key.  It compares by
    identity: ``list.index`` finds an entry by ``==``."""

    __slots__ = ("left", "right", "close")

    def __init__(self, key: int, left: _Entry | None, right: _Entry | None):
        self.value = key
        self.bucket = None
        # the children on the two sides: None, a lone key's Element or a
        # branching child's record
        self.left = left
        self.right = right
        self.close = Close(key)


@dataclass
class OpStats:
    max_index_writes_insert: int = 0
    max_index_writes_delete: int = 0
    max_test_branching: int = 0
    max_nav_queries: int = 0
    max_index_reads_query: int = 0
    # over the queries that search the orders: all branching tests, and the
    # ones that found a branching node
    total_test_branching: int = 0
    total_test_branching_true: int = 0
    # the predecessor sets whose counted queries only a query could make
    pred_sets: tuple = field(default=(), repr=False)

    @property
    def pred_queries_during_query(self) -> int:
        """Counted predecessor queries made by queries so far.

        Read from the sets' own counters: an update reads its neighbors
        from insert and delete, which count nothing, so every counted
        query belongs to a query.
        """
        return sum(ps.query_count for ps in self.pred_sets)


class RangeReporter:
    def __init__(self, config: RangeConfig):
        self.config = config
        self.w = config.width
        self.B = config.branch
        self.top = top_order(self.w, self.B)
        self._chunks = [self.B**t for t in range(self.top + 1)]
        self._tdepth = [trie_depth(self.w, t, self.B) for t in range(self.top + 1)]
        self.pred = PredecessorSet(self.w)
        # S̄: the branching nodes' keys, which sort in preorder
        self._sbar_pred = PredecessorSet(self.w + _TAG_BITS)
        self.nav = NavList(self.w)
        self.table: dict[int, BranchingRecord] = {}
        self.leaves: dict[int, Element] = {}
        index_cap = 4 * config.capacity * (self.top + 2)
        if config.variant == VARIANT_FAST_QUERY:
            index_cap *= self.B
        # distinct keys are bounded by the name space; keep the filter sizable
        index_cap = min(index_cap, (1 << (self.w + _TAG_BITS)) // 4)
        self.index = AncestorIndex(
            config.backend, index_cap, self.w + _TAG_BITS,
            (self.w + 1).bit_length(), config.seed, config.audit,
        )
        self.stats = OpStats(pred_sets=(self.pred, self._sbar_pred))
        self._fast_query = config.variant == VARIANT_FAST_QUERY
        # one code per bit depth, with every prefix bit set: and-ed with
        # _leaf_code(x) it gives the key of that node on x's path.
        # _codes[t][d] is the order-t depth-d node's entry of that table
        node_codes = [self._enc(bd, (1 << bd) - 1) for bd in range(self.w + 1)]
        self._codes = [
            [node_codes[min(d * ch, self.w)] for d in range(td + 1)]
            for ch, td in zip(self._chunks, self._tdepth)
        ]
        # the index rule visits the orders below the top coarsest first
        self._coarse_first = list(zip(self._chunks, self._codes))[:self.top][::-1]
        self._rows = _shared_rows(self.w, self.B)
        # a missing key neighbor reads as a key that differs in every bit
        self._far = (1 << self.w) - 1
        self._q_nav = 0
        self._plans = _NO_PLANS
        # the root's record, both sides empty, lives as long as the reporter
        root_key = self._root_key = self._enc(0, 0)
        root = self.table[root_key] = BranchingRecord(root_key, None, None)
        self._sbar_pred.insert(root_key)
        self.nav.insert_first(root)
        self.nav.insert_after(root, root.close)

    def __getstate__(self) -> dict:
        # the probe plans and the rule's rows are shared, not state: a copy
        # looks the plans up again on its first search, the rows at once
        return {k: v for k, v in self.__dict__.items() if k not in ("_plans", "_rows")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._plans = _NO_PLANS
        self._rows = _shared_rows(self.w, self.B)

    # -- encodings ----------------------------------------------------------

    def _enc(self, bd: int, p: int) -> int:
        """The key of the node at bit depth bd with prefix p.

        The prefix is left-aligned in a width-bit field, so that names of
        different depths cannot collide, and the bit depth follows it.
        """
        return (p << (_TAG_BITS + self.w - bd)) | bd

    def _dec(self, key: int) -> tuple[int, int]:
        """(bit depth, prefix) of a node's key."""
        bd = key & _TAG_MASK
        return bd, key >> (_TAG_BITS + self.w - bd)

    @staticmethod
    def _leaf_code(x: int) -> int:
        return (x << _TAG_BITS) | _TAG_MASK

    # -- records and entries --------------------------------------------------

    def _ancestor(self, a_depth: int, xc: int) -> tuple[BranchingRecord, int]:
        """The record of the branching node at depth a_depth on the path of
        xc, a code with every tag bit set, and the side of it that path
        takes."""
        rec = self.table.get(xc & self._codes[0][a_depth])
        if rec is None:
            raise AssertionError("v's lowest branching ancestor has no record")
        return rec, (xc >> (_TAG_BITS + self.w - 1 - a_depth)) & 1

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
        try:
            self._insert_key(x, prev, nxt)
        except AssertionError:
            # the consistency checks fire before any change but the
            # predecessor inserts, and _insert_key has already taken v's
            # key back out of S̄
            self.pred.delete(x)
            raise
        delta = self.index.writes - writes_before
        if delta > self.stats.max_index_writes_insert:
            self.stats.max_index_writes_insert = delta
        if self.config.audit:
            self.check()
        return True

    def _update_path(self, x: int, prev: int | None,
                     nxt: int | None) -> tuple[int, int, int, int]:
        """(d_v, xc, v_key, x_side) for an update of x between its key
        neighbors: the depth of v, the deeper of x's LCAs with them (x ^ key
        is smaller for the deeper one, and without neighbors v is the root),
        x's leaf code, v's key and the side of v that x takes."""
        w = self.w
        lo = self._far if prev is None else x ^ prev
        hi = self._far if nxt is None else x ^ nxt
        d_v = w - (lo if lo < hi else hi).bit_length()
        xc = (x << _TAG_BITS) | _TAG_MASK
        return d_v, xc, xc & self._codes[0][d_v], (x >> (w - 1 - d_v)) & 1

    def _insert_key(self, x: int, prev: int | None, nxt: int | None) -> None:
        d_v, xc, v_key, x_side = self._update_path(x, prev, nxt)
        nav = self.nav
        e = Element(x)

        if not d_v:
            # the new divergence point is the root: x fills its empty side,
            # and the first key finds both sides empty
            rec = self.table[v_key]
            y = rec.left if x_side else rec.right
            if ((rec.right if x_side else rec.left) is not None
                    or (y is None) != (prev is None and nxt is None)):
                raise AssertionError("the root's sides disagree with x's neighbors")
            if x_side:
                rec.right = e
            else:
                rec.left = e
            a_depth, a_real = 0, False
        else:
            # z, the branching node before v in preorder, is a itself or the
            # last one in a's left subtree, whose path parts from v's at a;
            # the min covers an ancestor z whose prefix runs on into v's
            z, _, fresh = self._sbar_pred.insert(v_key)
            if not fresh:
                raise AssertionError("x's neighbors diverge at a branching node")
            try:
                a_depth = min(z & _TAG_MASK,
                              self.w - ((z ^ v_key) >> _TAG_BITS).bit_length())
                a_rec, side_a = self._ancestor(a_depth, xc)
                y = a_rec.right if side_a else a_rec.left
                if y is None:
                    raise AssertionError("the new branching node's ancestor has an empty side")
                if y.bucket is None:
                    raise AssertionError("v's old child subtree has no navigation entry")
            except AssertionError:
                self._sbar_pred.delete(v_key)
                raise
            if x_side:
                rec = BranchingRecord(v_key, y, e)
            else:
                rec = BranchingRecord(v_key, e, y)
            # v's parentheses enclose y, its one old child subtree: a lone
            # key's element, or a node's Open to its Close
            nav.insert_before(y, rec)
            nav.insert_after(y if type(y) is Element else y.close, rec.close)
            if side_a:
                a_rec.right = rec
            else:
                a_rec.left = rec
            self.table[v_key] = rec
            a_real = a_rec.left is not None and a_rec.right is not None

        # x's element goes just inside the parentheses of the node it hangs
        # from, on x's side
        self.leaves[x] = e
        if x_side:
            nav.insert_before(rec.close, e)
        else:
            nav.insert_after(rec, e)
        to_a, to_v, a_to_v = self._index_changes(xc, d_v, y, a_depth, a_real)
        index = self.index
        # most updates make no node branching in any order
        if to_a:
            index.add_all(to_a, a_depth)
        # both lists are empty when v sits right above the leaves
        if to_v:
            index.add_all(to_v, d_v)
        if a_to_v:
            index.set_all(a_to_v, d_v)

    def _index_changes(self, xc: int, d_v: int, y: _Entry | None, a_depth: int,
                       a_real: bool) -> tuple[list[int], list[int], list[int]]:
        """The index entries that x's presence changes, as three lists of
        node keys that name each node once.

        xc is x's leaf code, v = LCA(x, its nearer key neighbor) sits at
        depth d_v, y is v's child other than x as v's record side holds it
        (None when x is alone under the root, a lone key's element or a
        branching child's record), and a is v's lowest branching ancestor
        at depth a_depth (0 when v is the root); a_real says whether a
        branches without x (it then branches with x too), so an insert and
        the delete that undoes it pass the same arguments.
        Returns the nodes that no order mandates without x and that hold
        a_depth with it (a node on v's path that x makes branching), the
        nodes that no order mandates without x and that hold d_v with it,
        and the nodes that hold a_depth without x and d_v with it.

        Each order names nodes of its own trie.  In each order, v's order-k
        node covers the bit depths [k*ch, (k+1)*ch); it branches without x
        iff it is the root, or a branching a or y's node lies in that
        chunk.  Orders whose chunks share a bit depth name the same node,
        and the orders that name one node in the same role are consecutive.
        The loops visit the orders coarsest first and let the first visit
        decide: every test that keeps a node out of an order without x
        (neither it nor its parent branches) is hardest to pass in the
        coarsest order.  So v's node is added only if that order adds it,
        and a node below v already holds an entry if that order or y's own
        node's order holds one.  Core and 5a read which order names v's
        node and the node below it first from v's depth's rows.
        """
        # a branches without x and lies at or below depth m iff a_lim >= m
        a_lim = a_depth if a_real else -1
        # a code below x, or below y, also addresses every node on its path
        if y is None or not d_v:
            # nothing survives below v without x, or v is the root, whose
            # depth, 0, the nodes on y's side hold already: either way only
            # x's nodes change, as if the surviving path ended at v
            y_d0, yc = d_v, 0
        elif type(y) is Element:
            y_d0, yc = -1, (y.value << _TAG_BITS) | _TAG_MASK
        else:
            yc = y.value
            y_d0, yc = yc & _TAG_MASK, yc | _TAG_MASK
        if self._fast_query:
            return self._index_changes_5b(xc, d_v, y_d0, yc, a_lim)
        to_a: list[int] = []
        to_v: list[int] = []
        a_to_v: list[int] = []
        rows = self._rows[d_v] or self._rule_rows(d_v)
        if y_d0 < 0:
            # y is a lone key: no branching node lies on its path below v,
            # and its one entry per order sits right below v's node
            for ch, k, kc, v_code, below in rows:
                # v's node, unless it or its parent branches without x
                if v_code and a_lim + ch < kc:
                    to_a.append(xc & v_code)
                if below:
                    to_v.append(xc & below)
                    if not k or a_lim >= kc:
                        a_to_v.append(yc & below)
                    else:
                        to_v.append(yc & below)
            return to_a, to_v, a_to_v
        codes = self._codes[0]
        # the code of y's own node as the last order visited named it
        last_own = -1
        for ch, k, kc, v_code, below in rows:
            yk = y_d0 // ch
            if v_code and a_lim + ch < kc and yk != k:
                to_a.append(xc & v_code)
            if below:
                to_v.append(xc & below)
                if yk == k + 1:
                    # y's own node, branching in this order
                    last_own = below
                    a_to_v.append(yc & below)
                elif yk > k:
                    if not k or a_lim >= kc:
                        a_to_v.append(yc & below)
                    else:
                        to_v.append(yc & below)
            if yk > k + 1:
                # y's own node, branching in this order too
                code = codes[yk * ch]
                if code != last_own:
                    last_own = code
                    a_to_v.append(yc & code)
        return to_a, to_v, a_to_v

    def _rule_rows(self, d_v: int) -> tuple:
        """The index rule's rows for v at depth d_v: the shared table's,
        which this builds when no reporter has.

        One row per order below the top, coarsest first: (ch, k, kc,
        v_code, below), the order's chunk, v's node's depth k and bit depth
        kc, the code of v's node if this order names it first and k > 1
        (else 0), and the code of the node below it if this order names it
        first (else 0).  The orders that name the leaf level come first, and
        as no order mandates it, it counts as named.  Equal rows are one
        object.
        """
        rows, interned = _ROWS[self.w, self.B]
        if rows[d_v] is not None:
            return rows[d_v]
        built = []
        last_kc, last_code = -1, self._codes[0][self.w]
        for ch, codes in self._coarse_first:
            k = d_v // ch
            kc = k * ch
            v_code = below = 0
            if kc != last_kc:
                last_kc = kc
                if k > 1:
                    v_code = codes[k]
            if codes[k + 1] != last_code:
                below = last_code = codes[k + 1]
            row = (ch, k, kc, v_code, below)
            built.append(interned.setdefault(row, row))
        rows[d_v] = tuple(built)
        if None not in rows:
            # every depth has its rows
            interned.clear()
        return rows[d_v]

    def _index_changes_5b(self, xc: int, d_v: int, y_d0: int, yc: int,
                          a_lim: int) -> tuple[list[int], list[int], list[int]]:
        """``_index_changes`` for variant 5b, where an active node is
        stored when a branching node sits between its natural depth-B
        subtree's root and it; y_d0 is -1 for a lone key y.

        An order names the nodes below v's down to the border of v's
        natural subtree or the level above the leaves, all above the first
        node below v that the next coarser order names.  So the orders share
        only v's node and y's own node.
        """
        B = self.B
        y_real = y_d0 >= 0
        to_a: list[int] = []
        to_v: list[int] = []
        a_to_v: list[int] = []
        last_kc = last_own = -1
        for ch, codes in self._coarse_first:
            k = d_v // ch
            kc = k * ch
            yk = y_d0 // ch
            ns_root = (k // B) * B
            # a surviving-path node inside this natural subtree is stored
            # without x iff some branching node sits between the subtree
            # root and it: the deepest candidate is a
            had_ns_anc = not ns_root or a_lim >= ns_root * ch
            # v's node, unless it branches without x or is stored already;
            # with no branching node in its natural subtree above it, k > 0
            # and a lies above v's chunk
            if kc != last_kc:
                last_kc = kc
                if not had_ns_anc and yk != k:
                    to_a.append(xc & codes[k])
            # the leaf level, at depth len(codes) - 1, holds no entry
            border = min(ns_root + B - 1, len(codes) - 2)
            for dd in range(k + 1, border + 1):
                to_v.append(xc & codes[dd])
            for dd in range(k + 1, border + 1):
                if y_real and dd >= yk:
                    if dd == yk:
                        last_own = codes[dd]
                        a_to_v.append(yc & last_own)
                    break
                if had_ns_anc:
                    a_to_v.append(yc & codes[dd])
                else:
                    to_v.append(yc & codes[dd])
            if y_real and yk > border:
                code = codes[yk]
                if code != last_own:
                    last_own = code
                    a_to_v.append(yc & code)
        return to_a, to_v, a_to_v

    def delete(self, x: int) -> bool:
        if x not in self.leaves:
            return False
        writes_before = self.index.writes
        prev, nxt, _ = self.pred.delete(x)
        try:
            self._delete_key(x, prev, nxt)
        except AssertionError:
            # the consistency checks run before any other change, so a
            # failed delete leaves the structure as it was once x is back
            self.pred.insert(x)
            raise
        delta = self.index.writes - writes_before
        if delta > self.stats.max_index_writes_delete:
            self.stats.max_index_writes_delete = delta
        if self.config.audit:
            self.check()
        return True

    def _delete_key(self, x: int, prev: int | None, nxt: int | None) -> None:
        d_v, xc, v_key, x_side = self._update_path(x, prev, nxt)
        nav = self.nav
        e = self.leaves[x]
        rec = self.table.get(v_key)
        if rec is None or (rec.right if x_side else rec.left) is not e:
            raise AssertionError("v's descendant on x's side is not x")
        y = rec.left if x_side else rec.right

        if not d_v:
            # x empties its side of the root, and the last key leaves both
            # sides empty
            if (y is None) != (prev is None and nxt is None):
                raise AssertionError("the root's other side disagrees with x's neighbors")
            if x_side:
                rec.right = None
            else:
                rec.left = None
            a_depth, a_real = 0, False
        else:
            # v's own index entry holds the depth of a, v's lowest branching ancestor
            self.index.reads += 1
            a_depth = self.index.get(v_key)
            if a_depth is None or a_depth >= d_v:
                raise AssertionError("v's index entry holds no ancestor depth")
            a_rec, side_a = self._ancestor(a_depth, xc)
            if (a_rec.right if side_a else a_rec.left) is not rec:
                raise AssertionError("v's ancestor does not name v as its descendant")
            del self.table[v_key]
            self._sbar_pred.delete(v_key)
            if side_a:
                a_rec.right = y
            else:
                a_rec.left = y
            nav.delete(rec)
            nav.delete(rec.close)
            a_real = a_rec.left is not None and a_rec.right is not None

        del self.leaves[x]
        nav.delete(e)
        to_a, to_v, a_to_v = self._index_changes(xc, d_v, y, a_depth, a_real)
        index = self.index
        if a_to_v:
            index.set_all(a_to_v, a_depth)
        if to_v:
            index.drop_all(to_v)
        if to_a:
            index.drop_all(to_a)

    # -- queries ------------------------------------------------------------------

    def test_branching(self, t: int, d: int, p: int) -> bool:
        """Exact branching test for any order-t node; roots count as branching."""
        if d == 0:
            return True
        if d >= self._tdepth[t]:
            return False
        ch = self._chunks[t]
        key = self._enc(d * ch, p)
        self.index.reads += 1
        desc = self._verified_descendant(self.index.get(key), d * ch, key | _TAG_MASK)
        # the node branches iff that descendant is a node inside its chunk
        return (desc is not None and type(desc) is not Element
                and desc.value & _TAG_MASK < (d + 1) * ch)

    def _verified_descendant(self, depth: int | None, v_d: int, vc: int):
        """The child on v's side of the branching record at `depth` on the
        node v's path, or None unless that record exists, is a strict
        ancestor of v, and its child lies inside v's subtree (``_inside``).
        v is the depth-v_d node on the path of vc, a code with every tag bit
        set.
        """
        if depth is None or depth >= v_d:
            return None
        rec = self.table.get(vc & self._codes[0][depth])
        if rec is None:
            return None
        desc = rec.right if (vc >> (_TAG_BITS + self.w - 1 - depth)) & 1 else rec.left
        return desc if self._inside(desc, v_d, vc) else None

    def _inside(self, desc, d: int, vc: int) -> bool:
        """Whether desc, a record side's child or None, lies inside the
        subtree of the depth-d node on the path of vc, read from its value:
        a lone key's Element holds the key, a leaf below every node, and a
        record holds its node's key, prefix left-aligned above the depth."""
        if type(desc) is Element:
            return not (desc.value ^ (vc >> _TAG_BITS)) >> (self.w - d)
        return (desc is not None and desc.value & _TAG_MASK >= d
                and not (desc.value ^ vc) >> (_TAG_BITS + self.w - d))

    def _max_under(self, desc) -> int:
        if type(desc) is Element:
            return desc.value
        self._q_nav += 1
        return self.nav.nearest_element_left(desc.close).value

    def _min_under(self, desc) -> int:
        if type(desc) is Element:
            return desc.value
        self._q_nav += 1
        return self.nav.nearest_element_right(desc).value

    def _plan(self, v_d: int) -> tuple:
        """findany's search over orders for a non-branching v at depth v_d,
        as a decision tree: the shared table's, which this builds when no
        reporter has.

        An inner node is (code, kc, end, reuse, fail, pass): the probe of v's
        node at bit depth kc, keyed by code and-ed with a's leaf code, which
        branches iff its verified descendant is a node above end, its chunk's
        end.  reuse is _READ, or _REUSE_UP or _REUSE_DOWN when the last
        passing or failing probe named the same node: a probe's order lies
        between theirs.  fail and pass are the nodes that follow each
        outcome.  A leaf is (None, tests, passes, reads, lo_is_1, walk): the
        path's branching tests, the passing ones, the index reads, whether
        the search ended at order 1, where the resolution reads v's own
        entry, and the codes of 5a's walk up the order-(lo-1) trie inside v's
        node's natural subtree.  A root (k == 0) branches, so its test adds
        a passing test and no node.  Equal nodes are one object.
        """
        plans, nodes = _PLANS.setdefault(
            (self.w, self.B, self.config.variant), ([None] * self.w, {}))
        self._plans = plans
        if plans[v_d] is not None:
            return plans[v_d]
        chunks, B = self._chunks, self.B
        # each reporter holds its own code ints: the table keeps one of each
        node_codes = [nodes.setdefault(code, code) for code in self._codes[0]]

        def build(lo, hi, up_kc, down_kc, tests, passes, reads):
            while lo < hi:
                mid = (lo + hi) // 2
                ch = chunks[mid]
                k = v_d // ch
                tests += 1
                if k:
                    kc = k * ch
                    reuse = (_REUSE_UP if kc == up_kc else _REUSE_DOWN if kc == down_kc
                             else _READ)
                    reads += reuse == _READ
                    node = (node_codes[kc], kc, kc + ch, reuse,
                            build(mid + 1, hi, up_kc, kc, tests, passes, reads),
                            build(lo, mid, kc, down_kc, tests, passes + 1, reads))
                    return nodes.setdefault(node, node)
                passes += 1
                hi = mid
            walk = ()
            if not self._fast_query:
                ch = chunks[lo - 1]
                z_d = v_d // ch
                walk = tuple(node_codes[dd * ch] for dd in range(z_d - 1, z_d // B * B, -1))
                walk = nodes.setdefault(walk, walk)
            leaf = (None, tests, passes, reads, lo == 1, walk)
            return nodes.setdefault(leaf, leaf)

        plan = plans[v_d] = build(1, self.top, -1, -1, 0, 0, 0)
        if plans.count(None) == 1:
            # every depth but the root's, which branches, has its plan
            nodes.clear()
        return plan

    def findany(self, a: int, b: int) -> int | None:
        """Some element of S in [a, b], or None exactly when none exists.

        Bounds outside [0, 2**width) are clamped to the universe.
        """
        if a > b:
            raise ValueError("empty interval")
        w = self.w
        # a bound lies outside [0, 2**w); as a <= b, a negative b makes a
        # negative too, so b >> w is only ever read for b >= 0
        if a < 0 or b >> w:
            a = max(a, 0)
            b = min(b, (1 << w) - 1)
            if a > b:
                return None
        if a == b:
            return a if a in self.leaves else None
        if not self.leaves:
            return None
        self._q_nav = 0
        # the depth of v = LCA(a, b); a's leaf code lies under v, so and-ed
        # with a node code it keys the node at that bit depth on v's path
        v_d = w - (a ^ b).bit_length()
        vc = (a << _TAG_BITS) | _TAG_MASK
        v_key = vc & self._codes[0][v_d]
        rec = self.table.get(v_key)
        if rec is not None:
            left, right = rec.left, rec.right
        else:
            # v does not branch: follow v's depth's plan of the search for
            # the first order, lo, whose trie maps v to a branching node.  A
            # probe reads and verifies its node's entry or reuses a verified
            # descendant; up and down keep those of the last passing probe
            # (None for the root) and the last failing one
            node = self._plans[v_d] or self._plan(v_d)
            get = self.index.get
            verified = self._verified_descendant
            up = down = None
            code, kc, end, reuse, fail, pass_ = node
            while code is not None:
                if not reuse:
                    desc = verified(get(vc & code), kc, vc)
                elif reuse == _REUSE_UP:
                    desc = up
                else:
                    desc = down
                # the node branches iff its descendant is a node in its chunk
                if desc is None or type(desc) is Element or desc.value & _TAG_MASK >= end:
                    down = desc
                    node = fail
                else:
                    up = desc
                    node = pass_
                code, kc, end, reuse, fail, pass_ = node
            _, tests, passes, reads, lo_is_1, walk = node
            # v's lowest branching ancestor's child is the descendant inside
            # v's subtree: an entry that verifies at v but not at kc names a
            # branching node in kc's chunk, so no failing probe has one.  v's
            # order-0 node is never probed: it is read when lo is 1.  5a walks
            # on up the order-(lo-1) trie in v's node's natural subtree
            if up is not None and self._inside(up, v_d, vc):
                desc = up
            elif lo_is_1:
                reads += 1
                desc = verified(get(v_key), v_d, vc)
            else:
                desc = down if down is not None and self._inside(down, v_d, vc) else None
            if desc is None:
                for code in walk:
                    reads += 1
                    desc = verified(get(vc & code), v_d, vc)
                    if desc is not None:
                        break
            left = right = desc
            # a search reads at least once: its first probe or v's entry
            st = self.stats
            st.total_test_branching += tests
            st.total_test_branching_true += passes
            if tests > st.max_test_branching:
                st.max_test_branching = tests
            self.index.reads += reads
            if reads > st.max_index_reads_query:
                st.max_index_reads_query = reads
        # the answer is the largest key under left or the smallest under
        # right, whichever lies in [a, b]
        c = None
        if left is not None:
            c = self._max_under(left)
            if not a <= c <= b:
                c = None
        if c is None and right is not None:
            c = self._min_under(right)
            if not a <= c <= b:
                c = None
        if self._q_nav > self.stats.max_nav_queries:
            self.stats.max_nav_queries = self._q_nav
        return c

    def report(self, a: int, b: int):
        """All elements of S in [a, b] in increasing order.

        Seeds from findany, then walks the navigation list's element entries
        in both directions from the seed's entry, one nearest-element call
        per step; each step examines a bounded number of buckets and touches
        no predecessor structure.  The structure must not be mutated while
        iterating.  a > b raises ValueError at the call; the walk is lazy.
        """
        if a > b:
            raise ValueError("empty interval")
        return self._report(a, b)

    def _report(self, a: int, b: int):
        seed = self.findany(a, b)
        if seed is None:
            return
        nav = self.nav
        start = self.leaves[seed]
        left = []
        e = nav.nearest_element_left(start)
        while e is not None and e.value >= a:
            left.append(e.value)
            e = nav.nearest_element_left(e)
        yield from reversed(left)
        yield seed
        e = nav.nearest_element_right(start)
        while e is not None and e.value <= b:
            yield e.value
            e = nav.nearest_element_right(e)

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
        self.nav.validate()
        self._check_sequence(expected)
        self._check_index(elems)

    def _expected_records(self, elems: list[int]):
        """Brute-force (left desc, right desc) for every branching node."""
        w = self.w
        root_key = self._root_key
        out: dict[int, tuple] = {root_key: (None, None)}
        if not elems:
            return out

        def top_tag(lo: int, hi: int):
            if hi - lo == 1:
                return self._leaf_code(elems[lo])
            d = lca_depth(elems[lo], elems[hi - 1], w)
            return self._enc(d, elems[lo] >> (w - d))

        def build(lo: int, hi: int):
            d = lca_depth(elems[lo], elems[hi - 1], w)
            p = elems[lo] >> (w - d)
            threshold = ((p << 1) | 1) << (w - d - 1)
            m = bisect_left(elems, threshold, lo, hi)
            out[self._enc(d, p)] = (top_tag(lo, m), top_tag(m, hi))
            if m - lo >= 2:
                build(lo, m)
            if hi - m >= 2:
                build(m, hi)

        if len(elems) == 1 or lca_depth(elems[0], elems[-1], w):
            # every key lies on one side of the root
            tag = top_tag(0, len(elems))
            out[root_key] = (None, tag) if elems[0] >> (w - 1) else (tag, None)
        if len(elems) > 1:
            build(0, len(elems))
        return out

    def _check_sequence(self, expected: dict[int, tuple]) -> None:
        """Each record's sides hold the expected children's own entries, the
        navigation list is the walk of the expected tree, each entry the one
        its owner holds, and S̄ holds exactly the branching keys.

        The walk lists Open(v), v's left subtree, v's right subtree and
        Close(v), with a lone key as its element, so the parentheses nest,
        every pair but an empty root's encloses an element, and an
        element-free run is at most one path's Closes and another's Opens.
        """
        want: list[tuple[int, int, _Entry]] = []

        def child(tag):
            # the entry a descendant tag names: a lone key's element or a record
            if tag is None:
                return None
            if (tag & _TAG_MASK) == _TAG_MASK:
                return self.leaves[tag >> _TAG_BITS]
            return self.table[tag]

        def walk(tag, entry) -> None:
            if type(entry) is Element:
                want.append((ELEMENT, tag >> _TAG_BITS, entry))
                return
            left, right = expected[tag]
            # a side holds the child's own entry, not an equal one
            if entry.left is not child(left) or entry.right is not child(right):
                raise AssertionError(
                    f"descendant mismatch at {self._name(tag)}: left={self._label(entry.left)} "
                    f"right={self._label(entry.right)}, expected the owners' own "
                    f"{self._label(child(left))} and {self._label(child(right))}")
            want.append((OPEN, tag, entry))
            if left is not None:
                walk(left, entry.left)
            if right is not None:
                walk(right, entry.right)
            want.append((CLOSE, tag, entry.close))

        walk(self._root_key, self.table[self._root_key])
        entries = list(self.nav)
        ensure(len(entries) == len(want)
               and all(e is h and e.kind == kind and e.value == value
                       for e, (kind, value, h) in zip(entries, want)),
               "the navigation list is not the walk of the tree")
        ensure(list(self._sbar_pred) == sorted(self.table),
               "S̄ keys differ from the branching table")

    def _mandated_entries(self, elems: list[int]) -> dict[int, int]:
        """Brute-force mandated index entries, keyed by node, with their
        exact values; nodes that several orders mandate must agree."""
        w = self.w
        B = self.B
        real: set[int] = set()
        for i in range(len(elems) - 1):
            d = lca_depth(elems[i], elems[i + 1], w)
            real.add(self._enc(d, elems[i] >> (w - d)))

        # per bit depth, the key of the node with every prefix bit set:
        # and-ed with a code below a node whose tag bits are all set, it
        # gives the key of the node at that depth on the code's path.  Built
        # from the encoder, not read from _codes, which the queries use
        masks = [self._enc(bd, (1 << bd) - 1) for bd in range(w + 1)]

        def lba_depth(key: int) -> int:
            # deepest real branching node strictly above the node's bit depth
            # on its path
            code = key | _TAG_MASK
            for dd in range((key & _TAG_MASK) - 1, 0, -1):
                if code & masks[dd] in real:
                    return dd
            return 0

        mandated: dict[int, int] = {}
        fast_query = self.config.variant == VARIANT_FAST_QUERY
        for ch, td in zip(self._chunks, self._tdepth):
            # this order's branching nodes, keyed by their bit depth k*ch
            branching_t: set[int] = set()
            for d, p in map(self._dec, real):
                k = d // ch
                if k:
                    branching_t.add(self._enc(k * ch, p >> (d - k * ch)))
            order_t = dict.fromkeys(branching_t)
            # no node at the leaf level, depth td, is mandated
            order_masks = [masks[dd * ch] for dd in range(td)]
            for x in elems:
                # the keys of this order's nodes on x's path, by depth
                xc = self._leaf_code(x)
                path = [xc & mask for mask in order_masks]
                for dd in range(1, td):
                    key = path[dd]
                    if key in order_t:
                        continue
                    if fast_query:
                        ns_root = (dd // B) * B
                        ok = dd % B != 0 and (
                            # the trie root heads this subtree
                            ns_root == 0
                            or any(path[au] in branching_t for au in range(ns_root, dd)))
                    else:
                        ok = dd == 1 or path[dd - 1] in branching_t
                    if ok:
                        order_t[key] = None
            for key in order_t:
                value = lba_depth(key)
                if mandated.setdefault(key, value) != value:
                    raise AssertionError(f"orders disagree on the entry of {self._dec(key)}")
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

        # a record's ancestor is the record that holds it as a child
        anc_depth = {desc.value: self._dec(key)[0] for key, rec in self.table.items()
                     for desc in (rec.left, rec.right)
                     if desc is not None and type(desc) is not Element}
        lines = []
        for key in sorted(self.table):
            rec = self.table[key]
            anc = anc_depth.get(key, "-")
            lines.append(
                f"{self._name(key)} anc={anc} left={self._label(rec.left)} "
                f"right={self._label(rec.right)}"
            )
        return "\n".join(lines)

    def _name(self, key: int) -> str:
        """A node's name in ``dump()``: bit depth, then the prefix in binary."""
        d, p = self._dec(key)
        return f"{d}/{p:0{max(1, d)}b}"

    def _label(self, desc: _Entry | None) -> str:
        """A record side's child in ``dump()``."""
        if desc is None:
            return "-"
        if type(desc) is Element:
            return f"leaf:{desc.value}"
        return f"node:{self._name(desc.value)}"
