import copy
import dataclasses
import math
import operator
import os
import pickle
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right, insort
from pathlib import Path

import pytest

from wordram.rangereport import (
    BACKEND_BLOOMIER,
    BACKEND_EXACT,
    _TAG_BITS,
    BranchingRecord,
    RangeConfig,
    RangeReporter,
)
from wordram.wordops import VALID_WIDTHS, top_order


def make(width=8, branch=2, variant="core", backend=BACKEND_EXACT, audit=True,
         capacity=2048, seed=0, **kw):
    return RangeReporter(RangeConfig(
        width=width, branch=branch, variant=variant, backend=backend,
        audit=audit, capacity=capacity, seed=seed, **kw,
    ))


def nav_sequence(rr):
    """The navigation list in values: each key, and each record's Open and
    Close as ("(", key) and (")", key) of the record's node key."""
    owner = {id(rec.close): rec.value for rec in rr.table.values()}
    return [e if type(e) is int else ("(", e.value) if type(e) is BranchingRecord
            else (")", owner[id(e)]) for e in rr.nav]


def oracle_empty(shadow, a, b):
    i = bisect_left(shadow, a)
    return i >= len(shadow) or shadow[i] > b


def run_fuzz(rr, ops, seed, queries_per_op=20, exhaustive_every=0):
    rng = random.Random(seed)
    shadow = []
    universe = 1 << rr.w
    for step in range(ops):
        if not shadow or rng.random() < 0.6:
            x = rng.randrange(universe)
            if rr.insert(x):
                insort(shadow, x)
        else:
            x = shadow[rng.randrange(len(shadow))]
            assert rr.delete(x)
            shadow.pop(bisect_left(shadow, x))
        for _ in range(queries_per_op):
            a = rng.randrange(universe)
            b = rng.randrange(universe)
            if a > b:
                a, b = b, a
            got = rr.findany(a, b)
            if got is None:
                assert oracle_empty(shadow, a, b), (step, a, b)
            else:
                assert a <= got <= b and got in rr
        if exhaustive_every and step % exhaustive_every == 0:
            check_all_pairs(rr, shadow)
    return shadow


def check_all_pairs(rr, shadow):
    universe = 1 << rr.w
    nxt = [0] * (universe + 1)
    nxt[universe] = universe
    j = len(shadow) - 1
    for v in range(universe - 1, -1, -1):
        if j >= 0 and shadow[j] == v:
            nxt[v] = v
            j -= 1
        else:
            nxt[v] = nxt[v + 1]
    for a in range(universe):
        first = nxt[a]
        for b in range(a, universe):
            got = rr.findany(a, b)
            if first <= b:
                assert got is not None and a <= got <= b and got in rr
            else:
                assert got is None, (a, b, got)


def test_empty_and_single_element():
    rr = make()
    assert rr.findany(0, 255) is None
    rr.insert(5)
    assert rr.findany(0, 10) == 5
    assert rr.findany(5, 5) == 5
    assert rr.findany(6, 255) is None
    assert list(rr.report(0, 255)) == [5]
    with pytest.raises(ValueError):
        rr.findany(9, 3)
    with pytest.raises(ValueError):
        rr.report(9, 3)


def test_two_keys_build_one_branching_node():
    rr = make()
    rr.insert(10)
    rr.insert(12)
    # their paths diverge at depth 5; the node's parentheses enclose both
    key = rr._enc(5, 10 >> 3)
    rec = rr.table[key]
    assert rr._dec(key) == (5, 10 >> 3)
    entries = list(rr.nav)
    # the record is the node's Open entry
    inner = entries[entries.index(rec) + 1]
    assert type(inner) is int and inner == 10
    assert rr.findany(9, 11) == 10
    assert rr.findany(11, 13) == 12
    assert rr.findany(13, 255) is None


def test_insert_duplicate_and_delete_absent_flags():
    rr = make()
    assert rr.insert(7)
    assert not rr.insert(7)
    assert not rr.delete(9)
    assert rr.delete(7)
    assert len(rr) == 0


def test_delete_returns_structure_to_empty_shape():
    rr = make()
    rr.insert(100)
    rr.delete(100)
    # the root's record, with its Open and Close, outlives every key
    assert list(rr.table) == [rr._root_key]
    assert len(rr.nav) == 2
    assert rr.index.snapshot() == {}
    assert rr.dump() == "0/0 anc=- left=- right=-"
    rr.insert(3)
    assert rr.findany(0, 255) == 3

    def shape(rr):
        return (list(rr.table), list(rr._sbar_pred), nav_sequence(rr),
                rr.index.snapshot(), rr.dump())

    # a reporter filled and emptied again equals a fresh one
    rng = random.Random(17)
    for variant, branch in (("core", 2), ("5a", 4), ("5b", 4)):
        for backend in (BACKEND_EXACT, BACKEND_BLOOMIER):
            config = dict(width=16, branch=branch, variant=variant, backend=backend)
            rr = make(**config)
            keys = rng.sample(range(1 << 16), 60)
            for x in keys:
                assert rr.insert(x)
            rng.shuffle(keys)
            for x in keys:
                assert rr.delete(x)
            assert shape(rr) == shape(make(**config)), config


def test_failed_delete_leaves_structure_unchanged():
    rr = make()
    for x in (3, 100, 200):
        rr.insert(x)
    # LCA(3, 100), at depth 1, names its leaves the wrong way round, so the
    # delete's own descendant check fires
    key = rr._enc(1, 0)
    rec = rr.table[key]
    rec.left, rec.right = rec.right, rec.left
    dump = rr.dump()
    with pytest.raises(AssertionError):
        rr.delete(100)
    assert list(rr.pred) == [3, 100, 200]
    assert rr.table[key] is rec
    assert rr.dump() == dump
    assert 100 in rr
    rec.left, rec.right = rec.right, rec.left
    rr.check()


def test_failed_insert_leaves_structure_unchanged():
    rr = make()
    for x in (3, 100, 200):
        rr.insert(x)
    # LCA(3, 100), at depth 1, loses its left descendant, so inserting 2
    # finds an empty side where the new node's sibling subtree should be
    key = rr._enc(1, 0)
    rec = rr.table[key]
    left, rec.left = rec.left, None
    sbar_keys, entries, dump = list(rr._sbar_pred), list(rr.nav), rr.dump()
    snapshot = rr.index.snapshot()
    with pytest.raises(AssertionError):
        rr.insert(2)
    assert list(rr.pred) == [3, 100, 200]
    assert list(rr._sbar_pred) == sbar_keys
    assert list(rr.nav) == entries
    assert rr.dump() == dump and rr.index.snapshot() == snapshot
    assert 2 not in rr
    rec.left = left
    rr.check()
    # the same insert finds no record at all for v's lowest branching
    # ancestor, the depth-1 node, though S̄ still names it
    del rr.table[key]
    with pytest.raises(AssertionError):
        rr.insert(2)
    assert list(rr.pred) == [3, 100, 200]
    assert list(rr._sbar_pred) == sbar_keys
    assert list(rr.nav) == entries
    assert rr.index.snapshot() == snapshot
    assert 2 not in rr
    rr.table[key] = rec
    rr.check()
    # x's new sibling subtree, the lone key 3, is held as a key that the
    # list does not hold; the audit compares sides with the tree's keys,
    # and the insert checks that y is listed, before any list change
    leaf, rec.left = rec.left, 4
    with pytest.raises(AssertionError, match="descendant mismatch at 1/0: left=leaf:4 "):
        rr.check()
    with pytest.raises(AssertionError, match="no navigation entry"):
        rr.insert(2)
    assert list(rr.pred) == [3, 100, 200]
    assert list(rr._sbar_pred) == sbar_keys
    assert list(rr.nav) == entries
    assert rr.index.snapshot() == snapshot
    assert 2 not in rr
    rec.left = leaf
    rr.check()
    assert rr.insert(2)


def test_insert_finds_the_ancestor_from_the_preorder_predecessor():
    # z, the S̄ key just before v's, is v's lowest branching ancestor a or
    # the last branching node in a's left subtree; each step is one case
    rr = make()
    for x in (0b00100000, 0b11000000):
        rr.insert(x)
    root = rr._root_key

    def enc(d, p):
        return rr._enc(d, p)

    steps = [
        # (x, v, a, v's side of a, z)
        # v on a's left, and z = a with a lo of its own
        (0b00110000, enc(3, 0b001), root, 0, root),
        # v on a's right, whose left child is a leaf: z = a
        (0b00111000, enc(4, 0b0011), enc(3, 0b001), 1, enc(3, 0b001)),
        # v on a's right, whose left subtree branches: z is its last node
        (0b11100000, enc(2, 0b11), root, 1, enc(4, 0b0011)),
        # z = a, whose prefix runs on into v's: the same lo
        (0b11000001, enc(7, 0b1100000), enc(2, 0b11), 0, enc(2, 0b11)),
    ]
    for x, v_key, a_key, side, z_key in steps:
        keys = list(rr._sbar_pred)
        assert v_key not in keys
        assert keys[bisect_left(keys, v_key) - 1] == z_key
        assert rr.insert(x)
        rr.check()
        a_rec = rr.table[a_key]
        assert (a_rec.left, a_rec.right)[side] is rr.table[v_key]


@pytest.mark.parametrize("keys,corrupt,x", [
    # the last key's root side holds another key's element
    ((5,), (6, None), 5),
    # the last key's root has a key on its other side
    ((5,), (5, 200), 5),
    # a root-side key's sibling side is empty though 200 is there
    ((3, 200), (3, None), 3),
], ids=["last_key_x_side", "last_key_other_side", "other_side_empty"])
def test_failed_root_side_delete_leaves_structure_unchanged(keys, corrupt, x):
    rr = make()
    for key in keys:
        rr.insert(key)
    root = rr.table[rr._root_key]
    desc = root.left, root.right
    # a side holds a key, a stored one or one the list does not hold
    root.left, root.right = corrupt
    entries, snapshot, dump = list(rr.nav), rr.index.snapshot(), rr.dump()
    table, elements = dict(rr.table), dict(rr.nav.elements)
    with pytest.raises(AssertionError):
        rr.delete(x)
    assert list(rr.pred) == list(keys)
    assert list(rr.nav) == entries
    assert rr.index.snapshot() == snapshot
    # the table holds the same records either way: the dump shows their
    # descendant slots, which a failed delete must leave as they were
    assert rr.table == table and rr.nav.elements == elements
    assert rr.dump() == dump
    root.left, root.right = desc
    rr.check()


def test_report_examples():
    rr = make()
    for x in (3, 5, 9):
        rr.insert(x)
    assert list(rr.report(4, 9)) == [5, 9]
    assert list(rr.report(0, 255)) == [3, 5, 9]
    assert list(rr.report(6, 8)) == []


def report_intervals(shadow, rng, n):
    """Random intervals, and intervals whose ends sit on keys or next to
    them, each end on its own key, with sub-intervals short and long."""
    universe_max = (1 << 64) - 1
    out = []
    for _ in range(n):
        a, b = sorted((rng.getrandbits(64), rng.getrandbits(64)))
        out.append((a, b))
        i = rng.randrange(len(shadow))
        j = min(len(shadow) - 1, i + rng.choice((0, 1, 2, 30, 500)))
        lo, hi = shadow[i], shadow[j]
        for da, db in ((0, 0), (1, -1), (-1, 1), (1, 0), (0, 1)):
            a, b = max(lo + da, 0), min(hi + db, universe_max)
            if a <= b:
                out.append((a, b))
    return out


@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 8), ("5b", 4)])
def test_report_walks_many_superbuckets_w64(variant, branch):
    rng = random.Random(41)
    rr = make(width=64, variant=variant, branch=branch, audit=False, capacity=4096, seed=4)
    keys = {rng.getrandbits(64) for _ in range(3000)}
    for x in keys:
        rr.insert(x)
    # deletes leave parentheses whose element runs thinned out
    for x in rng.sample(sorted(keys), 900):
        rr.delete(x)
        keys.discard(x)
    shadow = sorted(keys)
    assert len(shadow) >= 2000
    for a, b in report_intervals(shadow, rng, 60):
        assert list(rr.report(a, b)) == shadow[bisect_left(shadow, a):bisect_right(shadow, b)]


@pytest.mark.parametrize("a,b", [(5, 300), (0, 256), (-1, 5), (300, 400), (-5, -1)])
@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 4), ("5b", 4)])
def test_bounds_outside_universe_are_clamped(variant, branch, a, b):
    keys = [3, 100, 200]
    rr = make(variant=variant, branch=branch)
    for x in keys:
        rr.insert(x)
    want = [x for x in keys if a <= x <= b]
    got = rr.findany(a, b)
    if want:
        assert got in want
    else:
        assert got is None
    assert list(rr.report(a, b)) == want


@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 4), ("5b", 4)])
def test_delete_undoes_insert(variant, branch, backend):
    rng = random.Random(29)
    # keys below 2**15 leave the root one-sided, so a new key above it
    # diverges at the root itself; keys anywhere make the root branch
    for key_limit in (1 << 15, 1 << 16):
        rr = make(width=16, branch=branch, variant=variant, backend=backend, seed=5)
        for _ in range(80):
            rr.insert(rng.randrange(key_limit))
        for _ in range(16):
            x = rng.randrange(1 << 16)
            if x in rr:
                continue
            # records compare by identity: keep each one and its children
            table = {key: (rec, rec.left, rec.right) for key, rec in rr.table.items()}
            entries = list(rr.nav)
            snapshot, dump = rr.index.snapshot(), rr.dump()
            before = rr.index.writes
            rr.insert(x)
            inserted = rr.index.writes
            rr.delete(x)
            assert rr.index.snapshot() == snapshot
            assert {key: (rec, rec.left, rec.right)
                    for key, rec in rr.table.items()} == table
            after = list(rr.nav)
            assert len(after) == len(entries) and all(map(operator.is_, after, entries))
            assert rr.dump() == dump
            assert rr.index.writes - inserted == inserted - before


@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
def test_copies_read_their_own_index(backend):
    # index.get is bound per instance: a deep copy and an unpickled
    # reporter must read their own index, not the original's
    rng = random.Random(31)
    rr = make(width=16, backend=backend, seed=31)
    keys = sorted({rng.randrange(1 << 16) for _ in range(60)})
    for x in keys:
        rr.insert(x)
    copies = [copy.deepcopy(rr), pickle.loads(pickle.dumps(rr))]
    for x in keys:
        assert rr.delete(x)
    for c in copies:
        c.check()
        for x in keys:
            got = c.findany(max(x - 1, 0), x + 1)
            assert got in keys and abs(got - x) <= 1
        assert list(c.report(0, (1 << 16) - 1)) == keys
        for x in keys:
            assert c.delete(x)
        assert list(c.table) == [c._root_key] and c.index.snapshot() == {}


@pytest.mark.parametrize("keys", ["uniform", "deep"])
def test_copies_of_a_large_w64_reporter(keys):
    # 2^14 keys make a navigation list whose superbucket chain, and a
    # branching table whose records hold records, run deeper than the
    # interpreter's recursion limit if a copy follows them link by link
    rng = random.Random(83)
    rr = make(width=64, audit=False, capacity=1 << 14, seed=83)
    while len(rr) < 1 << 14:
        rr.insert(rng.getrandbits(64) if keys == "uniform" else deep_key(rng))
    elems = sorted(rr.nav.elements)
    queries = [short_bounds(rng, elems, 64, 56) for _ in range(400)]
    want = [rr.findany(a, b) for a, b in queries]
    reports = [list(rr.report(a, b)) for a, b in queries[::8]]
    for c in (copy.deepcopy(rr), pickle.loads(pickle.dumps(rr))):
        c.check()
        assert [c.findany(a, b) for a, b in queries] == want
        assert [list(c.report(a, b)) for a, b in queries[::8]] == reports
        # the copy owns its entries: deleting from it leaves the original
        for x in elems[::64]:
            assert c.delete(x)
    assert sorted(rr.nav.elements) == elems
    assert [rr.findany(a, b) for a, b in queries] == want


@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
def test_core_w8_fuzz_with_audit(backend):
    rr = make(backend=backend, seed=1)
    run_fuzz(rr, 200, seed=1)
    assert rr.stats.pred_queries_during_query == 0


@pytest.mark.parametrize("variant,branch", [("5a", 4), ("5a", 8), ("5b", 4), ("5b", 8)])
@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
def test_variants_w8_fuzz_with_audit(variant, branch, backend):
    rr = make(branch=branch, variant=variant, backend=backend, seed=2)
    run_fuzz(rr, 150, seed=2)


DEEP_BASE = 0x9E3779B97F4A7C15  # any fixed 64-bit word


def deep_key(rng, width=64):
    """DEEP_BASE's top width bits with a random-length random suffix: two
    such keys diverge at any depth, so branching nodes fall at every depth,
    not only above about 2 lg n as with uniform keys."""
    k = rng.randrange(width + 1)
    return DEEP_BASE >> (64 - width) >> k << k | rng.getrandbits(k)


@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 4), ("5a", 8), ("5b", 4),
                                            ("5b", 8)])
@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
def test_deep_keys_w64_fuzz_with_audit(variant, branch, backend):
    # the set stays near 16 keys, so the audit after every update is cheap
    rng = random.Random(branch)
    rr = make(width=64, branch=branch, variant=variant, backend=backend, seed=branch)
    shadow = []
    depths = set()
    for _ in range(150):
        if not shadow or rng.random() < (0.7 if len(shadow) < 16 else 0.3):
            x = deep_key(rng)
            if rr.insert(x):
                insort(shadow, x)
        else:
            assert rr.delete(shadow.pop(rng.randrange(len(shadow))))
        depths.update(64 - (a ^ b).bit_length() for a, b in zip(shadow, shadow[1:]))
        x, d = deep_key(rng), rng.randrange(4)
        for a, b in (sorted((deep_key(rng), deep_key(rng))), (max(x - d, 0), x + d)):
            want = shadow[bisect_left(shadow, a):bisect_right(shadow, b)]
            got = rr.findany(a, b)
            assert got in want if want else got is None, (a, b)
            assert list(rr.report(a, b)) == want
    assert len(depths) >= 40  # LCAs at many depths, deep ones included
    assert max(depths) >= 56


@pytest.mark.parametrize("variant,branch,resolution_reads",
                         [("core", 2, 1), ("5a", 4, 3), ("5a", 8, 7), ("5b", 4, 1),
                          ("5b", 8, 1)])
@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
def test_deep_key_short_queries_reach_the_structural_maxima(variant, branch,
                                                            resolution_reads, backend):
    # short intervals around deep keys end below the LCA's table probe, so
    # most queries run the full search over orders and the variant's
    # ancestor resolution: the per-query maxima must be the structural ones
    rng = random.Random(61)
    rr = make(width=64, branch=branch, variant=variant, backend=backend, audit=False,
              capacity=4096, seed=61)
    keys = set()
    while len(keys) < 3000:
        keys.add(deep_key(rng))
    for x in keys:
        rr.insert(x)
    shadow = sorted(keys)
    calls = 0
    get = rr.index.get

    def counting_get(key):
        nonlocal calls
        calls += 1
        return get(key)

    rr.index.get = counting_get
    searched = 0
    for i in range(20000):
        x = rng.choice(shadow) if rng.random() < 0.5 else deep_key(rng)
        d = int(2.0 ** rng.uniform(0, 8))
        a, b = max(x - d, 0), min(x + d, (1 << 64) - 1)
        calls, reads = 0, rr.index.reads
        got = rr.findany(a, b)
        # every read goes through index.get and is counted once
        assert rr.index.reads - reads == calls, (a, b)
        searched += calls > 0
        want = shadow[bisect_left(shadow, a):bisect_right(shadow, b)]
        assert got in want if want else got is None, (a, b)
        if i % 8 == 7:
            assert list(rr.report(a, b)) == want
    assert searched > 15000
    lg_top = math.ceil(math.log2(top_order(64, branch)))
    assert rr.stats.max_test_branching == lg_top
    assert rr.stats.max_index_reads_query == lg_top + resolution_reads


@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 4), ("5a", 8), ("5b", 2),
                                            ("5b", 4)])
def test_failing_probe_descendant_resolves_v(variant, branch, backend):
    # findany's resolution checks a failing probe's descendant, verified
    # at the probed node's bit depth kc, against v's subtree instead of
    # verifying the entry again at v.  A failing probe's entry may be any
    # value, as an unstored key's Bloomier read is: for every value the two
    # must agree on each non-branching order-t node whose chunk holds v
    rng = random.Random(97)
    for width in (16, 64):
        for keys in ("uniform", "deep"):
            rr = make(width=width, branch=branch, variant=variant, backend=backend,
                      audit=False, seed=width)
            shadow = set()
            while len(shadow) < 300:
                shadow.add(rng.getrandbits(width) if keys == "uniform" else deep_key(rng, width))
            for x in shadow:
                rr.insert(x)
            shadow = sorted(shadow)
            cases = inside = outside = 0
            for _ in range(150):
                # a path that leaves a live key's below a random bit depth,
                # so v's subtree may miss the probed node's keys
                x = rng.choice(shadow)
                j = rng.randrange(width)
                a = (x >> j ^ 1) << j | rng.getrandbits(j)
                b = min(a + (1 << rng.randrange(j + 1)), (1 << width) - 1)
                if a == b:
                    continue
                v_d = width - (a ^ b).bit_length()
                vc = rr._leaf_code(a)
                for t in range(1, rr.top + 1):
                    ch = rr._chunks[t]
                    k = v_d // ch
                    kc = k * ch
                    # the order-t node branches iff its keys take two
                    # children at bit depth kc + ch
                    lo = bisect_left(shadow, a >> (width - kc) << (width - kc))
                    hi = bisect_left(shadow, ((a >> (width - kc)) + 1) << (width - kc))
                    cut = width - min(kc + ch, width)
                    branching = hi - lo > 1 and shadow[lo] >> cut != shadow[hi - 1] >> cut
                    if not k or branching:
                        continue
                    assert not rr.test_branching(t, k, a >> (width - kc))
                    for d in (None, *range(width + 1)):
                        at_kc = rr._verified_descendant(d, kc, vc)
                        want = at_kc if rr._inside(at_kc, v_d, vc) else None
                        assert rr._verified_descendant(d, v_d, vc) is want, (a, b, t, d)
                        cases += 1
                        inside += want is not None
                        outside += at_kc is not None and want is None
            assert cases > 300 and inside and outside, (width, keys, cases, inside, outside)


def test_exhaustive_all_pairs_small_states():
    rr = make(seed=3)
    run_fuzz(rr, 60, seed=3, queries_per_op=5, exhaustive_every=20)


def test_branching_test_exhaustive_w8():
    rr = make(seed=4)
    rng = random.Random(4)
    for _ in range(40):
        rr.insert(rng.randrange(256))
    elems = rr.sorted_elements()
    # brute-force branching sets per order
    from wordram.wordops import lca_depth, trie_depth

    real = set()
    for i in range(len(elems) - 1):
        d = lca_depth(elems[i], elems[i + 1], 8)
        real.add((d, elems[i] >> (8 - d)))
    for t in range(rr.top + 1):
        ch = rr._chunks[t]
        branching = {(d // ch, p >> (d - (d // ch) * ch)) for d, p in real if d // ch}
        for d in range(trie_depth(8, t, 2) + 1):
            pb = min(d * ch, 8)
            for p in range(1 << pb):
                want = d == 0 or (d, p) in branching
                assert rr.test_branching(t, d, p) == want, (t, d, p)
    # branching is monotone in the order: once a node's chunk holds a
    # branching node, every coarser chunking holds it too
    from nodemap import NodeName, map_node

    for d in range(1, 9):
        for p in range(1 << d):
            hit = False
            for t in range(rr.top + 1):
                m = map_node(NodeName(0, d, p), t, 2, 8)
                now = rr.test_branching(m.order, m.depth, m.prefix)
                if hit and 0 < m.depth < rr._tdepth[t]:
                    assert now, (d, p, t)
                hit = hit or now


def test_verify_lowest_ancestor_public_contract():
    # the contract findany relies on: a branching record verifies for the
    # order-0 node v only if it is a strict ancestor of v whose descendant
    # on v's side lies at or below v
    rr = make(seed=13)
    for x in (0b00000001, 0b00000011, 0b11000000):
        rr.insert(x)
    d6_depth, _ = rr._dec(rr._enc(6, 0b000000))
    root_depth, _ = rr._dec(rr._root_key)
    assert rr._verified_descendant(d6_depth, 7, rr._leaf_code(0b0000001 << 1)) is not None
    # the root is an ancestor but its descendant on v's side sits above v
    assert rr._verified_descendant(root_depth, 7, rr._leaf_code(0b0000001 << 1)) is None
    # a node that is not an ancestor at all
    assert rr._verified_descendant(d6_depth, 7, rr._leaf_code(0b1100000 << 1)) is None


@pytest.mark.parametrize("branch", [2, 4, 8])
def test_node_encoding_injective_w8(branch):
    rr = make(branch=branch, variant="core" if branch == 2 else "5a")
    keys = {}
    for bd in range(9):
        for p in range(1 << bd):
            key = rr._enc(bd, p)
            assert key not in keys and rr._dec(key) == (bd, p)
            keys[key] = bd, p
            # w + 7 tag bits: the key width the index is built for
            assert key.bit_length() <= 8 + 7
    # every order's node is the node at its bit depth, and the key table
    # gives its key from a leaf code below it
    for t in range(rr.top + 1):
        for d in range(rr._tdepth[t] + 1):
            bd = min(d * branch**t, 8)
            for p in range(1 << bd):
                key = rr._enc(bd, p)
                assert keys[key] == (bd, p)
                assert rr._codes[t][d] & rr._leaf_code(p << (8 - bd)) == key


def test_dump_format():
    rr = make()
    rr.insert(10)
    rr.insert(12)
    lines = rr.dump().splitlines()
    assert len(lines) == 2  # convention root plus the real branching node
    assert any(line.startswith("5/00001 ") for line in lines)
    assert all(" anc=" in line and " left=" in line and " right=" in line
               for line in lines)


def test_query_instrumentation_budgets_w64():
    rr = make(width=64, backend=BACKEND_BLOOMIER, audit=False, capacity=1 << 15, seed=5)
    rng = random.Random(5)
    shadow = []
    for step in range(4000):
        if not shadow or rng.random() < 0.65:
            x = rng.getrandbits(64)
            if rr.insert(x):
                insort(shadow, x)
        else:
            x = shadow[rng.randrange(len(shadow))]
            rr.delete(x)
            shadow.pop(bisect_left(shadow, x))
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        if a > b:
            a, b = b, a
        got = rr.findany(a, b)
        if got is None:
            assert oracle_empty(shadow, a, b)
    st = rr.stats
    assert st.max_test_branching <= 5
    assert st.max_nav_queries <= 4
    assert st.pred_queries_during_query == 0
    assert st.max_index_writes_insert <= 4 * (6 + 1)


def test_verified_ancestor_rejects_non_ancestors():
    rr = make(seed=6)
    for x in (0b00000001, 0b00000011, 0b11000000):
        rr.insert(x)
    # the node covering {1, 3} is branching at depth 6; on the side of the
    # depth-7 node holding 2 and 3 its child is the leaf 3's element, 3
    assert rr._verified_descendant(6, 7, rr._leaf_code(0b0000001 << 1)) == 3
    # a depth that does not truncate to a branching node fails
    assert rr._verified_descendant(3, 7, rr._leaf_code(0b0000001 << 1)) is None
    # the root is an ancestor, but its child on this side, the depth-6
    # node, sits above v; for v = 0000000 only the child's depth field
    # tells, since the node's left-aligned prefix is all zeros
    assert rr._verified_descendant(0, 7, rr._leaf_code(0b0000001 << 1)) is None
    assert rr._verified_descendant(0, 7, rr._leaf_code(0b0000000 << 1)) is None
    # the root's right child, the leaf 11000000, verifies under the
    # depth-2 node 11 but not under its empty sibling 10, which only the
    # child's prefix tells
    assert rr._verified_descendant(0, 2, rr._leaf_code(0b11 << 6)) == 0b11000000
    assert rr._verified_descendant(0, 2, rr._leaf_code(0b10 << 6)) is None
    # a depth whose node on v's path is not branching at all
    assert rr._verified_descendant(6, 7, rr._leaf_code(0b1100000 << 1)) is None


def test_findany_never_touches_predecessor_structures():
    rr = make(width=64, audit=False, seed=7)
    rng = random.Random(7)
    for _ in range(500):
        rr.insert(rng.getrandbits(64))
    before = rr.pred.query_count + rr._sbar_pred.query_count
    for _ in range(2000):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        if a > b:
            a, b = b, a
        rr.findany(a, b)
        for _ in rr.report(a, b):
            pass
    assert rr.pred.query_count + rr._sbar_pred.query_count == before


def test_pred_queries_during_query_sees_a_query_path_call():
    rr = make(width=64, audit=False, seed=7)
    rng = random.Random(7)
    for _ in range(200):
        rr.insert(rng.getrandbits(64))
    assert rr.stats.pred_queries_during_query == 0
    max_under = rr._max_under
    # a query path that asks S for a successor must show in the statistic
    rr._max_under = lambda desc: (rr.pred.succ(0), max_under(desc))[1]
    for _ in range(50):
        a, b = sorted((rng.getrandbits(64), rng.getrandbits(64)))
        rr.findany(a, b)
    assert rr.stats.pred_queries_during_query > 0


def short_bounds(rng, keys, w, log2_max):
    """Log-uniform length in [2, 2**log2_max], centred on a live key or a
    random point, clipped to the universe."""
    length = int(2.0 ** rng.uniform(1.0, log2_max))
    centre = rng.choice(keys) if rng.random() < 0.5 else rng.getrandbits(w)
    a = max(0, centre - length // 2)
    return a, min((1 << w) - 1, a + length - 1)


class _RecordingDict(dict):
    """A dict that records the keys passed to get."""

    def __init__(self, items, seen):
        super().__init__(items)
        self.seen = seen

    def get(self, key, default=None):
        self.seen.append(key)
        return super().get(key, default)


@pytest.mark.parametrize("width", [8, 64])
@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 4), ("5b", 4)])
def test_query_keys_are_encoder_keys(variant, branch, width):
    rng = random.Random(43)
    rr = make(width=width, branch=branch, variant=variant, audit=False,
              capacity=4096, seed=6)
    keys = sorted({rng.getrandbits(width) for _ in range(min(2000, 1 << (width - 2)))})
    for x in keys:
        rr.insert(x)
    index_keys, table_keys = [], []
    get = rr.index.get

    def recording_get(key):
        index_keys.append(key)
        return get(key)

    rr.index.get = recording_get
    rr.table = _RecordingDict(rr.table, table_keys)
    reads = 0
    for _ in range(3000):
        a, b = short_bounds(rng, keys, width, max(width - 8, width // 2))
        del index_keys[:], table_keys[:]
        rr.findany(a, b)
        # every probed node lies on a's path: the key the query built must
        # be the one _enc gives for that node's bit depth and prefix
        for key in index_keys + table_keys:
            bd = key & 127
            assert key == rr._enc(bd, a >> (width - bd)), (a, b)
        assert all(key & 127 < width for key in table_keys)
        reads += len(index_keys)
    assert reads > 0 and rr.stats.max_test_branching >= 1


def change_shapes(rng, rr):
    """Every valid argument tuple of the index-entry rule, up to x's bits:
    v's depth d_v; y, v's child subtree other than x (None when x is alone
    under the root, a lone key, or a node at any depth below v); and a's
    depth, with whether a branches without x.  A branching a below the
    root branches without x, while the root may have an empty side.  x and
    y's free bits are random, since the rule reads only the shape."""
    w = rr.w
    for d_v in range(w):
        x = rng.getrandbits(w)
        low = w - 1 - d_v
        # y shares x's d_v leading bits and takes v's other side
        y = (((x >> low) ^ 1) << low) | rng.getrandbits(low)
        y_tags = [rr._leaf_code(y)]
        y_tags += [rr._enc(y_d0, y >> (w - y_d0)) for y_d0 in range(d_v + 1, w)]
        if d_v:
            a_shapes = [(0, False)] + [(a_depth, True) for a_depth in range(d_v)]
        else:
            y_tags.append(None)
            a_shapes = [(0, False)]
        for y_tag in y_tags:
            for a_depth, a_real in a_shapes:
                yield x, d_v, y_tag, a_depth, a_real


def rule_args(rr, x, d_v, y_tag, a_depth, a_real):
    """The index rule's arguments for a shape of change_shapes, which names
    y by its tag: x's leaf code, and y as a record side would hold it."""
    if y_tag is None:
        y = None
    elif rr._leaf_code(y_tag >> _TAG_BITS) == y_tag:
        y = y_tag >> _TAG_BITS
    else:
        y = BranchingRecord(y_tag, None, None)
    return rr._leaf_code(x), d_v, y, a_depth, a_real


def record_rule(rr):
    """Wrap rr's index rule; returns the list of its calls, each in the tag
    form of change_shapes.  Each y must be the child's own entry, the one
    its owner holds: the very key object in its bucket's slot, or the record
    in rr.table, not an equal copy."""
    seen = []
    rule = rr._index_changes

    def recording(xc, d_v, y, a_depth, a_real):
        if y is None:
            y_tag = None
        elif type(y) is int:
            assert any(e is y for e in rr.nav.elements[y].entries)
            y_tag = rr._leaf_code(y)
        else:
            assert y is rr.table[y.value]
            y_tag = y.value
        seen.append((xc >> _TAG_BITS, d_v, y_tag, a_depth, a_real))
        return rule(xc, d_v, y, a_depth, a_real)

    rr._index_changes = recording
    return seen


# the exact maximum index writes of one update at w=64, over every shape,
# one write per node: 5a trades fewer writes for longer resolution walks
# as B grows, 5b the other way round
W64_MAX_WRITES = {
    ("core", 2): 15,
    ("5a", 2): 15, ("5a", 4): 11, ("5a", 8): 8, ("5a", 16): 7, ("5a", 32): 6, ("5a", 64): 4,
    ("5b", 2): 15, ("5b", 4): 18, ("5b", 8): 27, ("5b", 16): 35, ("5b", 32): 63, ("5b", 64): 124,
}


@pytest.mark.parametrize("variant,branch", list(W64_MAX_WRITES))
def test_index_rule_matches_its_general_form(variant, branch):
    # the rule folds the per-order rule's lists into one change per node:
    # it names each node once and only nodes some order names, sets
    # exactly the nodes some order sets, and adds with d_v exactly the
    # other nodes some order adds with d_v; of the nodes that orders add
    # with a's depth, it drops those another order holds already
    from indexrule import index_changes

    rng = random.Random(53)
    for width in (8, 16, 32, 64):
        if width < branch:
            continue  # a configuration takes no branch wider than its keys
        rr = make(width=width, branch=branch, variant=variant, audit=False)
        shapes = most = 0
        for shape in change_shapes(rng, rr):
            to_a, to_v, a_to_v = rr._index_changes(*rule_args(rr, *shape))
            keys = to_a + to_v + a_to_v
            assert len(set(keys)) == len(keys), shape  # one write per node
            by_order = [set(keys) for keys in index_changes(rr, *shape)]
            # at the root every node keeps its value: the root's depth, 0
            assert set(a_to_v) == (by_order[2] if shape[1] else set()), shape
            assert set(to_v) == by_order[1] - by_order[2], shape
            assert set(to_a) <= by_order[0], shape
            shapes += 1
            most = max(most, len(keys))
        assert shapes == {8: 121, 16: 817, 32: 5985, 64: 45761}[width]
        # the write budgets of criteria 4 and 5 hold for every shape
        if variant == "core":
            assert most <= 4 * (rr.top + 1), width
        elif variant == "5b":
            assert most <= 4 * branch * rr.top, width
        if width == 64:
            assert most == W64_MAX_WRITES[variant, branch]


def shape_keys(rng, rr, x, d_v, y_tag, a_depth, a_real):
    """Keys whose insertion gives x the update shape that change_shapes
    yielded: y (a lone key, or two keys branching at y's node) and, when a
    branches without x, a key leaving x's path at a's depth."""
    w = rr.w
    keys = []
    if y_tag is not None:
        if rr._leaf_code(y_tag >> _TAG_BITS) == y_tag:
            keys.append(y_tag >> _TAG_BITS)
        else:
            y_d0, p = rr._dec(y_tag)
            low = w - 1 - y_d0
            keys += [(p << 1 | bit) << low | rng.getrandbits(low) for bit in (0, 1)]
    if a_real:
        low = w - 1 - a_depth
        keys.append(((x >> low) ^ 1) << low | rng.getrandbits(low))
    return keys


@pytest.mark.parametrize("variant,branch", [key for key in W64_MAX_WRITES if key[1] <= 16])
def test_index_rule_is_the_brute_force_diff(variant, branch):
    # every shape built on the real structure: the lists the update applies
    # are the brute-force diff of the mandated entries without and with x
    rng = random.Random(59)
    for width in (8, 16):
        if width < branch:
            continue
        probe = make(width=width, branch=branch, variant=variant, audit=False)
        for shape in change_shapes(rng, probe):
            x, d_v, _, a_depth, _ = shape
            rr = make(width=width, branch=branch, variant=variant, audit=False)
            for key in shape_keys(rng, rr, *shape):
                rr.insert(key)
            before = rr._mandated_entries(sorted(rr.nav.elements))
            assert rr.index.snapshot() == before, shape
            seen = record_rule(rr)
            rr.insert(x)
            assert seen == [shape]  # the update took the intended shape
            after = rr._mandated_entries(sorted(rr.nav.elements))
            assert rr.index.snapshot() == after, shape
            to_a, to_v, a_to_v = probe._index_changes(*rule_args(probe, *shape))
            assert after.keys() >= before.keys()
            assert {key: after[key] for key in after.keys() - before.keys()} == (
                dict.fromkeys(to_a, a_depth) | dict.fromkeys(to_v, d_v)), shape
            assert {key for key in before if before[key] != after[key]} == set(a_to_v), shape
            assert all(after[key] == d_v for key in a_to_v)


def test_core_argmax_shape_writes_its_maximum():
    # core's argmax shape on the real structure: v at depth 1, y a
    # branching node at depth 63, and a the root with both sides full
    rng = random.Random(61)
    for _ in range(4):
        p = rng.getrandbits(61)  # 63 bits starting 00
        rr = make(width=64, capacity=64, seed=61)
        for key in (1 << 63 | rng.getrandbits(63), p << 1, p << 1 | 1):
            rr.insert(key)
        # x keeps y's first bit and flips the second
        x = 1 << 62 | rng.getrandbits(62)
        before = rr.index.writes
        rr.insert(x)
        inserted = rr.index.writes
        rr.delete(x)
        assert inserted - before == W64_MAX_WRITES["core", 2]
        assert rr.index.writes - inserted == W64_MAX_WRITES["core", 2]


@pytest.mark.parametrize("variant,branch", [key for key in W64_MAX_WRITES if key[0] != "core"])
def test_variant_argmax_shapes_write_their_maximum(variant, branch):
    # the rule's argmax shapes, built on the real w=64 structure
    rng = random.Random(67)
    most = W64_MAX_WRITES[variant, branch]
    probe = make(width=64, branch=branch, variant=variant, audit=False)
    shapes = [shape for shape in change_shapes(rng, probe)
              if sum(map(len, probe._index_changes(*rule_args(probe, *shape)))) == most]
    assert shapes
    for shape in shapes[:1] + rng.sample(shapes, min(5, len(shapes))):
        rr = make(width=64, branch=branch, variant=variant, capacity=64, seed=61)
        for key in shape_keys(rng, rr, *shape):
            rr.insert(key)
        seen = record_rule(rr)
        before = rr.index.writes
        rr.insert(shape[0])
        inserted = rr.index.writes
        rr.delete(shape[0])
        assert seen == [shape, shape]  # the update took the intended shape
        assert inserted - before == most
        assert rr.index.writes - inserted == most


@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 8), ("5b", 4)])
def test_updates_hand_the_rule_the_sides_own_child(variant, branch):
    # on real inserts and deletes, y reaches the rule as the entry its owner
    # holds (record_rule checks identity): an empty side, a lone key's
    # element and a branching child's record all occur
    rng = random.Random(73)
    rr = make(width=64, branch=branch, variant=variant, audit=False, capacity=1024)
    seen = record_rule(rr)
    keys = []
    inserted = 0
    for i in range(1500):
        if keys and rng.random() < 0.4:
            assert rr.delete(keys.pop(rng.randrange(len(keys))))
        elif rr.insert(x := rng.getrandbits(64) if i % 2 else deep_key(rng)):
            keys.append(x)
            inserted += 1
    for x in keys:
        assert rr.delete(x)
    kinds = {None if y is None else y & 127 == 127 for _, _, y, _, _ in seen}
    assert kinds == {None, True, False} and len(seen) == 2 * inserted
    rr.check()


@pytest.mark.parametrize("width", [16, 64])
def test_core_and_5b_at_b2_hold_one_index(width):
    # keyed by node, core, 5a and 5b at B=2 mandate the same entries: after
    # the same deep-key stream their indexes are equal, and so are their
    # writes; and they resolve v's ancestor alike, so every short query
    # gets the same answer from the same index reads, on either backend
    for backend in (BACKEND_EXACT, BACKEND_BLOOMIER):
        rrs = []
        for variant in ("core", "5a", "5b"):
            rng = random.Random(71)
            rr = make(width=width, variant=variant, backend=backend, audit=False,
                      capacity=4096, seed=71)
            keys = []
            while len(keys) < 2000:
                x = deep_key(rng, width)
                if rr.insert(x):
                    keys.append(x)
            for x in rng.sample(keys, 1000):
                assert rr.delete(x)
            rrs.append(rr)
        core = rrs[0]
        for rr in rrs[1:]:
            if backend == BACKEND_EXACT:
                assert rr.index.snapshot() == core.index.snapshot()
            assert rr.index.writes == core.index.writes
        shadow = sorted(core.nav.elements)
        for _ in range(10000):
            x = rng.choice(shadow) if rng.random() < 0.5 else deep_key(rng, width)
            d = int(2.0 ** rng.uniform(0, 8))
            a, b = max(x - d, 0), min(x + d, (1 << width) - 1)
            seen = set()
            for rr in rrs:
                reads = rr.index.reads
                seen.add((rr.findany(a, b), rr.index.reads - reads))
            assert len(seen) == 1, (backend, a, b, seen)


@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 2), ("5a", 4), ("5a", 8),
                                            ("5b", 2), ("5b", 4)])
def test_index_holds_and_reads_no_leaf_level(variant, branch, backend, width):
    # no order mandates a node at the leaf level, bit depth w, and nothing
    # reads one: findany reads nodes no deeper than v, a delete reads v's
    # own entry, and v lies above the leaves.  Orders whose chunks put v's
    # node at one bit depth name one node, and a findany reads each node
    # once: its search reuses a probed node's verified descendant
    rng = random.Random(79)
    for keys in ("uniform", "deep"):
        rr = make(width=width, branch=branch, variant=variant, backend=backend,
                  capacity=1024, seed=79)
        # audit mode keeps the filter's mirror for snapshot; skip the check
        # after every update
        rr.config = dataclasses.replace(rr.config, audit=False)
        read = []
        get = rr.index.get

        def recording_get(key):
            read.append(key)
            return get(key)

        rr.index.get = recording_get
        shadow = []
        for i in range(1500):
            if len(shadow) > 1 and rng.random() < 0.35:
                assert rr.delete(shadow.pop(rng.randrange(len(shadow))))
            else:
                x = rng.getrandbits(width) if keys == "uniform" else deep_key(rng, width)
                if rr.insert(x):
                    insort(shadow, x)
            a, b = short_bounds(rng, shadow, width, width - 8)
            want = shadow[bisect_left(shadow, a):bisect_right(shadow, b)]
            n, reads = len(read), rr.index.reads
            got = rr.findany(a, b)
            assert got in want if want else got is None, (a, b)
            # distinct keys, and index.reads counts every get
            assert len(set(read[n:])) == len(read) - n == rr.index.reads - reads, (a, b)
            if i % 8 == 7:
                assert list(rr.report(a, b)) == want
            if i % 100 == 99:
                assert all(key & 127 < width for key in rr.index.snapshot())
        while shadow:
            assert rr.delete(shadow.pop())
        assert rr.index.snapshot() == {}
        assert read and all(key & 127 < width for key in read)


@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 8), ("5b", 4)])
def test_short_intervals_w64_match_sorted_list(variant, branch, backend):
    # short intervals end below the LCA's table probe: the search over
    # orders and the variant's ancestor resolution decide the answer
    rng = random.Random(47)
    rr = make(width=64, branch=branch, variant=variant, backend=backend, audit=False,
              capacity=4096, seed=8)
    keys = set()
    while len(keys) < 2500:
        keys.add(rng.getrandbits(64))
    for x in keys:
        rr.insert(x)
    for x in rng.sample(sorted(keys), 500):
        rr.delete(x)
        keys.discard(x)
    shadow = sorted(keys)
    for i in range(4000):
        a, b = short_bounds(rng, shadow, 64, 56.0)
        want = shadow[bisect_left(shadow, a):bisect_right(shadow, b)]
        got = rr.findany(a, b)
        if want:
            assert got in want, (a, b)
        else:
            assert got is None, (a, b)
        if i % 8 == 7:
            assert list(rr.report(a, b)) == want
    assert rr.stats.max_test_branching >= 1
    assert rr.index.reads > 0


def test_navlist_examined_bucket_bound_under_traffic():
    rr = make(width=64, audit=False, capacity=1 << 14, seed=8)
    rng = random.Random(8)
    for _ in range(3000):
        rr.insert(rng.getrandbits(64))
    rr.nav.max_examined = 0
    for _ in range(3000):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        if a > b:
            a, b = b, a
        rr.findany(a, b)
    assert rr.nav.max_examined <= 6


def test_5b_write_budget():
    for branch in (4, 8):
        rr = make(width=64, branch=branch, variant="5b", audit=False,
                  capacity=1 << 13, seed=9)
        rng = random.Random(9)
        shadow = set()
        for _ in range(2500):
            if not shadow or rng.random() < 0.6:
                x = rng.getrandbits(64)
                rr.insert(x)
                shadow.add(x)
            else:
                x = rng.choice(sorted(shadow))
                rr.delete(x)
                shadow.discard(x)
        top = top_order(64, branch)
        assert rr.stats.max_index_writes_insert <= 4 * branch * top


def test_5a_read_budget():
    for branch in (4, 8):
        rr = make(width=64, branch=branch, variant="5a", audit=False,
                  capacity=1 << 13, seed=10)
        rng = random.Random(10)
        for _ in range(1500):
            rr.insert(rng.getrandbits(64))
        rr.stats.max_index_reads_query = 0
        for _ in range(3000):
            a, b = rng.getrandbits(64), rng.getrandbits(64)
            if a > b:
                a, b = b, a
            rr.findany(a, b)
        import math
        top = top_order(64, branch)
        assert rr.stats.max_index_reads_query <= math.ceil(math.log2(top + 1)) + branch + 2


def test_bloomier_backend_capacity_accounting():
    rr = make(width=8, backend=BACKEND_BLOOMIER, audit=False, capacity=64, seed=11)
    rng = random.Random(11)
    for _ in range(1000):
        x = rng.randrange(256)
        if x in rr:
            rr.delete(x)
        elif len(rr) < 64:
            rr.insert(x)
    assert rr.index._filter.live_count <= rr.index._filter.config.max_items


def test_mixed_width_fuzz_w16_w32():
    for width in (16, 32):
        rr = make(width=width, audit=True, seed=12)
        run_fuzz(rr, 80, seed=width, queries_per_op=10)


def test_config_validation():
    with pytest.raises(ValueError):
        RangeConfig(width=10)
    with pytest.raises(ValueError):
        RangeConfig(width=8, variant="fast")
    with pytest.raises(ValueError):
        RangeConfig(width=8, branch=4)  # core requires branch 2
    with pytest.raises(ValueError):
        RangeConfig(width=8, variant="5a", branch=3)
    with pytest.raises(ValueError):
        RangeConfig(width=8, variant="5a", branch=16)  # above width
    with pytest.raises(ValueError):
        RangeConfig(width=8, backend="magic")
    with pytest.raises(ValueError):
        RangeConfig(width=8, capacity=0)


def test_config_rejects_bad_widths():
    for width in VALID_WIDTHS:
        assert RangeConfig(width=width).width == width
    for bad in (7, 12, 128, 0):
        with pytest.raises(ValueError):
            RangeConfig(width=bad)


def test_universe_boundary_keys():
    for width in (8, 64):
        rr = make(width=width, audit=True)
        top_key = (1 << width) - 1
        assert rr.insert(0)
        assert rr.insert(top_key)
        assert rr.findany(0, 0) == 0
        assert rr.findany(top_key, top_key) == top_key
        assert rr.findany(0, top_key) in (0, top_key)
        assert rr.findany(1, top_key - 1) is None
        assert rr.delete(0)
        assert rr.findany(0, top_key - 1) is None
        assert rr.delete(top_key)
        assert len(rr) == 0
        with pytest.raises(ValueError):
            rr.insert(1 << width)


@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 4), ("5b", 4)])
def test_updates_make_no_empty_index_batch(variant, branch, backend):
    # a key whose neighbor differs from it only in the last bit puts v
    # right above the leaves, where no entry takes v's depth: the update
    # makes no batch call for an empty list, and the audit still finds the
    # mandated entries after each update
    rr = make(branch=branch, variant=variant, backend=backend, seed=4)
    sizes = []
    for name in ("add_all", "set_all", "drop_all"):
        def batch(keys, *args, _method=getattr(rr.index, name)):
            sizes.append(len(keys))
            return _method(keys, *args)

        setattr(rr.index, name, batch)
    rr.insert(180)
    writes = rr.index.writes
    del sizes[:]
    rr.insert(181)
    assert sizes and sum(sizes) == rr.index.writes - writes
    rr.delete(181)
    run_fuzz(rr, 150, seed=4, queries_per_op=2)
    assert min(sizes) > 0


def check_index_discipline(backend):
    rr = make(backend=backend, audit=True)
    rr.insert(9)
    snapshot = rr.index.snapshot()
    key = next(iter(snapshot))
    absent = 1 << 40  # far outside the 8-bit name space
    for misuse in (lambda: rr.index.add(key, 0), lambda: rr.index.drop(absent),
                   lambda: rr.index.set(absent, 3)):
        with pytest.raises(KeyError):
            misuse()
    # a rejected write leaves the store, or the filter and its mirror,
    # as they were
    assert rr.index.snapshot() == snapshot
    rr.check()


def test_index_discipline_asserts_on_misuse():
    # the exact store checks add/set/drop itself
    check_index_discipline(BACKEND_EXACT)


def test_index_discipline_checked_by_the_audit_mirror():
    # the Bloomier filter cannot tell a live key from a collision, so the
    # audit mirror checks add/set/drop
    check_index_discipline(BACKEND_BLOOMIER)


@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
@pytest.mark.parametrize("method", ["add_all", "set_all", "drop_all"])
def test_index_batch_rejects_a_repeated_key(method, backend):
    # a batch names each key once: a key named twice raises before the
    # batch writes anything, though each of its keys alone would pass.  A
    # filter that stored a key twice would still answer for it after one
    # drop
    rr = make(backend=backend, audit=True)
    rr.insert(9)
    index = rr.index
    snapshot = index.snapshot()
    present = sorted(snapshot)
    fresh = [1 << 40, 1 << 41]  # far outside the 8-bit name space
    batches = {
        # the add writes its first two keys before it meets the repeat
        "add_all": ([fresh[0], fresh[0]], [fresh[1], fresh[0], fresh[0]]),
        "set_all": ([present[0], present[0]], [present[1], present[0], present[0]]),
        "drop_all": ([present[0], present[0]], [present[1], present[0], present[0]]),
    }[method]
    args = () if method == "drop_all" else (3,)
    filt = index._filter
    contents = filt and (dict(filt._exact), dict(filt._hashed))
    writes = index.writes
    for keys in batches:
        with pytest.raises(KeyError, match="repeated"):
            getattr(index, method)(keys, *args)
        assert index.snapshot() == snapshot and index.writes == writes
        assert (filt and (filt._exact, filt._hashed)) == contents
    # the same keys named once each pass, and count as written
    getattr(index, method)(list(dict.fromkeys(batches[1])), *args)
    assert index.writes == writes + 2


_CORRUPT_AND_CHECK = """
from wordram.rangereport import RangeConfig, RangeReporter

def wipe_index(rr):
    rr.index._store.clear()
    rr.check()

def misdirect_leaf(rr):
    # the element map points key 3 at a bucket that does not hold it
    rr.nav.elements[3] = type(rr.nav.elements[3])(None, [], 0)
    rr.check()

def swap_desc(rr):
    # LCA(3, 100), at depth 1, names its leaves the wrong way round; with
    # no audit, only the delete's own descendant check can see it
    rec = rr.table[rr._enc(1, 0)]
    rec.left, rec.right = rec.right, rec.left
    rr.delete(100)

print("debug", __debug__)
for corrupt in (wipe_index, misdirect_leaf, swap_desc):
    rr = RangeReporter(RangeConfig(width=8))
    for x in (3, 100, 200):
        rr.insert(x)
    try:
        corrupt(rr)
    except AssertionError:
        print(corrupt.__name__, "caught")
    else:
        print(corrupt.__name__, "missed")
"""


def test_audit_raises_under_python_O():
    # the audit must not rest on assert statements, which -O strips
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_AND_CHECK],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == ["debug False", "wipe_index caught", "misdirect_leaf caught",
                                "swap_desc caught"]


@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 4), ("5b", 4)])
def test_sbar_keys_read_back_through_owners(variant, branch, backend):
    rng = random.Random(37)
    rr = make(width=16, branch=branch, variant=variant, backend=backend, seed=3)

    def assert_read_back():
        # S̄ holds the branching keys alone; each owner's entries are
        # checked by identity in the audit's walk
        assert list(rr._sbar_pred) == sorted(rr.table)
        assert len(rr.nav) == len(rr) + 2 * len(rr.table)

    # keys below 2**15 leave the root one-sided, so `high` diverges at the
    # root itself, both when it goes in and when it comes out
    low = rng.sample(range(1 << 15), 40)
    high = rng.randrange(1 << 15, 1 << 16)
    for x in low[:20] + [high] + low[20:]:
        assert rr.insert(x)  # the first fills an empty structure
        assert_read_back()
    assert rr.delete(high)
    assert_read_back()
    rng.shuffle(low)
    for x in low:
        assert rr.delete(x)  # the last empties it again
        assert_read_back()
    assert len(rr.nav) == 2 and list(rr.table) == [rr._root_key]
