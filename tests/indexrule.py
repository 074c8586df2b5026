"""The index-entry rule per trie order, as a test oracle.

``index_changes`` is one loop over the trie orders that reads every case
(a lone key or a node as y, each variant) through the same flags, and
names the entries each order changes, but none at the leaf level, bit
depth w, which no order mandates.  Orders whose chunks share a bit depth
name the same node, so a node may appear once per order.  The range
reporter folds these lists into one change per node; tests check that each
node it names appears here, that it sets exactly the nodes some order sets,
and at small widths that it equals the brute-force diff of the mandated
entries.
"""

from __future__ import annotations

from wordram.rangereport import _TAG_BITS, _TAG_MASK, RangeReporter


def index_changes(rr: RangeReporter, x: int, d_v: int, y_tag, a_depth: int,
                  a_real: bool) -> tuple[list[int], list[int], list[int]]:
    """The index entries that x's presence changes in each order, as three
    lists of node keys.

    v = LCA(x, its nearer key neighbor) sits at depth d_v, y_tag names v's
    child subtree other than x (None when x is alone under the root), and
    a is v's lowest branching ancestor at depth a_depth (0 when v is the
    root); a_real says whether a branches without x.  Returns the keys
    that are absent without x and hold a_depth with it (the order-k node
    that x makes branching), the keys that are absent without x and hold
    d_v with it, and the keys that hold a_depth without x and d_v with it.
    """
    if y_tag is None:
        # nothing survives below v without x: the surviving path ends at
        # v, which branches as the root
        y_real, y_d0, nc = True, d_v, 0
    else:
        y_real = (y_tag & _TAG_MASK) != _TAG_MASK
        # a node key's tag bits are its bit depth
        y_d0 = y_tag & _TAG_MASK if y_real else rr.w
        # a code below y also addresses every node on y's path
        nc = y_tag | _TAG_MASK
    fast_query = rr._fast_query
    B = rr.B
    to_a: list[int] = []
    to_v: list[int] = []
    a_to_v: list[int] = []
    xc = (x << _TAG_BITS) | _TAG_MASK
    for ch, codes in zip(rr._chunks, rr._codes):
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
            # a surviving-path node inside this natural subtree is stored
            # without x iff some branching node sits between the subtree
            # root and it: the deepest candidate is the lowest branching
            # ancestor (whose chunk level is a_depth // ch)
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
    # no order mandates a node at the leaf level, bit depth w
    return tuple([key for key in keys if key & _TAG_MASK != rr.w]
                 for keys in (to_a, to_v, a_to_v))
