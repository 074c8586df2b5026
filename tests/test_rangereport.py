import copy
import os
import random
import subprocess
import sys
from bisect import bisect_left, insort
from pathlib import Path

import pytest

from wordram.rangereport import (
    BACKEND_BLOOMIER,
    BACKEND_EXACT,
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
                assert a <= got <= b and got in rr.leaves
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
                assert got is not None and a <= got <= b and got in rr.leaves
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


def test_two_keys_build_one_branching_node():
    rr = make()
    rr.insert(10)
    rr.insert(12)
    # their paths diverge at depth 5; the node's parentheses enclose both
    key = rr._enc0(5, 10 >> 3)
    rec = rr.table[key]
    assert rec.name.depth == 5
    inner = rec.open_h.next
    assert inner.kind == 1 and inner.value == 10
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
    assert len(rr.table) == 0
    assert len(rr.nav) == 0
    assert rr.index.snapshot() == {}
    rr.insert(3)
    assert rr.findany(0, 255) == 3


def test_report_examples():
    rr = make()
    for x in (3, 5, 9):
        rr.insert(x)
    assert list(rr.report(4, 9)) == [5, 9]
    assert list(rr.report(0, 255)) == [3, 5, 9]
    assert list(rr.report(6, 8)) == []


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
            # records are copied one by one: their entries compare by identity
            table = {key: copy.copy(rec) for key, rec in rr.table.items()}
            snapshot, dump = rr.index.snapshot(), rr.dump()
            before = rr.index.writes
            rr.insert(x)
            inserted = rr.index.writes
            rr.delete(x)
            assert rr.index.snapshot() == snapshot
            assert rr.table == table
            assert rr.dump() == dump
            assert rr.index.writes - inserted == inserted - before


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
    from wordram.wordops import NodeName, map_node

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
    rr = make(seed=13)
    from wordram.wordops import NodeName

    for x in (0b00000001, 0b00000011, 0b11000000):
        rr.insert(x)
    node_d6 = rr.table[rr._enc0(6, 0b000000)]
    root = rr.table[rr._root_key]
    v = NodeName(0, 7, 0b0000001)
    assert rr.verify_lowest_ancestor(node_d6, v)
    # the root is an ancestor but its descendant on v's side sits above v
    assert not rr.verify_lowest_ancestor(root, v)
    # a node that is not an ancestor at all
    stray = rr.table[rr._enc0(6, 0b000000)]
    assert not rr.verify_lowest_ancestor(stray, NodeName(0, 7, 0b1100000))


@pytest.mark.parametrize("branch", [2, 4, 8])
def test_node_encoding_injective_w8(branch):
    rr = make(branch=branch, variant="core" if branch == 2 else "5a")
    seen = set()
    for t in range(rr.top + 1):
        for d in range(rr._tdepth[t] + 1):
            for p in range(1 << min(d * branch**t, 8)):
                key = rr._enc(t, d, p)
                assert key not in seen
                seen.add(key)
                # w + 10 tag bits: the key width the index is built for
                assert key.bit_length() <= 8 + 10
                if t == 0:
                    assert rr._enc0(d, p) == key


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
    # the node covering {1, 3} is branching at depth 6
    rec = rr._verified_ancestor(6, 7, 0b0000001)
    assert rec is not None and rec.name.depth == 6
    # a depth that does not truncate to a branching node fails
    assert rr._verified_ancestor(3, 7, 0b0000001) is None
    # the root is an ancestor, but its descendant on this side sits above
    # depth-7 query nodes inside the left subtree, so it still verifies
    root = rr._verified_ancestor(0, 7, 0b0000001)
    assert root is None  # root's left descendant is the depth-6 node, above v


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
    assert rr.pred.query_count + rr._sbar_pred.query_count == before


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
        if x in rr.leaves:
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


def test_index_discipline_asserts_on_misuse():
    rr = make()
    rr.insert(9)
    key = next(iter(rr.index.snapshot()))
    with pytest.raises(KeyError):
        rr.index.add(key, 0)  # adding a present key
    absent = 1 << 40  # far outside the 8-bit name space
    with pytest.raises(KeyError):
        rr.index.drop(absent)
    with pytest.raises(KeyError):
        rr.index.set(absent, 3)


_CORRUPT_AND_CHECK = """
from wordram.rangereport import RangeConfig, RangeReporter

def wipe_index(rr):
    rr.index._store.clear()

def misdirect_leaf(rr):
    rr.leaves[3] = rr.leaves[100]

print("debug", __debug__)
for corrupt in (wipe_index, misdirect_leaf):
    rr = RangeReporter(RangeConfig(width=8, audit=True))
    for x in (3, 100, 200):
        rr.insert(x)
    corrupt(rr)
    try:
        rr.check()
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
    assert out.splitlines() == ["debug False", "wipe_index caught", "misdirect_leaf caught"]


def test_index_discipline_checked_by_the_audit_mirror():
    rr = make(backend=BACKEND_BLOOMIER)
    rr.insert(9)
    snapshot = rr.index.snapshot()
    key = next(iter(snapshot))
    absent = 1 << 40
    for misuse in (lambda: rr.index.add(key, 0), lambda: rr.index.drop(absent),
                   lambda: rr.index.set(absent, 3)):
        with pytest.raises(KeyError):
            misuse()
    # a rejected write leaves the filter and its mirror as they were
    assert rr.index.snapshot() == snapshot
    rr.check()


@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 4), ("5b", 4)])
def test_sbar_keys_read_back_through_owners(variant, branch, backend):
    rng = random.Random(37)
    rr = make(width=16, branch=branch, variant=variant, backend=backend, seed=3)

    def assert_read_back():
        keys = list(rr._sbar_pred)
        entries = list(rr.nav)
        assert len(keys) == len(entries) == len(rr) + 2 * len(rr.table)
        for key, e in zip(keys, entries):
            assert rr._handle_of(key) is e

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
    assert len(rr.nav) == 0 and not rr.table
