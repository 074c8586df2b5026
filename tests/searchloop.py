"""findany's search over orders as one flat loop, as a test oracle.

The reporter follows a per-depth probe plan, a decision tree that
``RangeReporter._plan`` builds once per depth of v = LCA(a, b).  This module
keeps the loop that the plan replaces: a binary search over the orders
that recomputes each probe's order, node, bit depth and reuse as it goes,
and the resolution and 5a walk after it.  ``search`` takes the probe and
the branching test as callables, so a test can drive it along every
outcome path and compare each plan with it; ``findany`` runs it on a real
reporter, with the counters findany keeps, so a test can compare answers,
``index.reads`` and the ``stats`` maxima with the plan's.
"""

from __future__ import annotations

import operator

from wordram.rangereport import _TAG_BITS, _TAG_MASK, RangeReporter


def search(rr: RangeReporter, v_d: int, probe, branches):
    """The binary search over orders for a non-branching v at depth v_d.

    ``probe(t, k)`` returns the verified descendant of v's order-t depth-k
    node, and ``branches(desc, kc, end)`` whether the node at bit depth kc
    branches, given that descendant and its chunk's end.  A root (k == 0)
    branches and is not probed; a node that the last passing probe (up) or
    the last failing one (down) already named reuses its descendant.
    Returns (lo, up, down, tests, passing tests, reads): the first order
    whose node branches, the two descendants (None where no such probe
    was made), and the search's counts.
    """
    chunks = rr._chunks
    lo, hi = 1, rr.top
    up = down = None
    up_kc = down_kc = -1
    tests = passes = reads = 0
    while lo < hi:
        mid = (lo + hi) // 2
        ch = chunks[mid]
        k = v_d // ch
        tests += 1
        if k:
            kc = k * ch
            if kc == up_kc or kc == down_kc:
                desc = up if kc == up_kc else down
            else:
                reads += 1
                desc = probe(mid, k)
            if not branches(desc, kc, kc + ch):
                lo = mid + 1
                down, down_kc = desc, kc
                continue
            up, up_kc = desc, kc
        passes += 1
        hi = mid
    return lo, up, down, tests, passes, reads


def walk_codes(rr: RangeReporter, v_d: int, lo: int) -> list[int]:
    """The codes 5a's resolution reads, in order, when the search ends at
    lo and neither descendant is v's: up the order-(lo-1) trie from v's
    node z_d, inside z_d's natural depth-B subtree.  Empty for 5b."""
    if rr._fast_query:
        return []
    z_d = v_d // rr._chunks[lo - 1]
    return [rr._codes[lo - 1][dd] for dd in range(z_d - 1, z_d // rr.B * rr.B, -1)]


def findany(rr: RangeReporter, a: int, b: int) -> int | None:
    """``rr.findany(a, b)`` by the loop, with the same counters: index
    reads added to ``rr.index.reads`` and the three query maxima."""
    if a > b:
        raise ValueError("empty interval")
    w = rr.w
    if a < 0 or b >> w:
        a = max(a, 0)
        b = min(b, (1 << w) - 1)
        if a > b:
            return None
    if a == b:
        return operator.index(a) if a in rr else None
    if not len(rr):
        return None
    rr._q_nav = 0
    tests = reads = 0
    v_d = w - (a ^ b).bit_length()
    vc = (a << _TAG_BITS) | _TAG_MASK
    codes = rr._codes
    rec = rr.table.get(vc & codes[0][v_d])
    if rec is not None:
        left, right = rec.left, rec.right
    else:
        get = rr.index.get
        verified = rr._verified_descendant

        def probe(t, k):
            return verified(get(vc & codes[t][k]), k * rr._chunks[t], vc)

        def branches(desc, kc, end):
            return not (desc is None or type(desc) is int or desc.value & _TAG_MASK >= end)

        lo, up, down, tests, _, reads = search(rr, v_d, probe, branches)
        if up is not None and rr._inside(up, v_d, vc):
            desc = up
        elif lo == 1:
            reads += 1
            desc = verified(get(vc & codes[0][v_d]), v_d, vc)
        else:
            desc = down if down is not None and rr._inside(down, v_d, vc) else None
        if desc is None:
            for code in walk_codes(rr, v_d, lo):
                reads += 1
                desc = verified(get(vc & code), v_d, vc)
                if desc is not None:
                    break
        left = right = desc
    c = None
    if left is not None:
        c = rr._max_under(left)
        if not a <= c <= b:
            c = None
    if c is None and right is not None:
        c = rr._min_under(right)
        if not a <= c <= b:
            c = None
    st = rr.stats
    st.max_test_branching = max(st.max_test_branching, tests)
    st.max_nav_queries = max(st.max_nav_queries, rr._q_nav)
    rr.index.reads += reads
    st.max_index_reads_query = max(st.max_index_reads_query, reads)
    return c
