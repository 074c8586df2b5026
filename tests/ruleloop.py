"""The index rule's folded loops over orders, as a test oracle.

The reporter reads, per depth of v, a table of rows that
``RangeReporter._rule_rows`` builds once: each order's chunk, v's node's
code and the depth it tests, and one row per window node below v's with
its depths and code, where that order names them first.  This module keeps
the loops that the rows replace: they visit the orders below the top
coarsest first and recompute v's node, its window and which order names
each node first on every call, one loop for core and 5a and one for 5b.
``index_changes`` takes the rule's own arguments, so a test can compare
the lists for lists, order for order, on every call of a recorded run and
on every shape.
"""

from __future__ import annotations

from wordram.rangereport import _TAG_BITS, _TAG_MASK, RangeReporter


def index_changes(rr: RangeReporter, xc: int, d_v: int, y, a_depth: int,
                  a_real: bool) -> tuple[list[int], list[int], list[int]]:
    """``rr._index_changes(xc, d_v, y, a_depth, a_real)`` by the per-call
    loop: the nodes that no order mandates without x and
    that hold a_depth with it, the nodes that no order mandates without x
    and that hold d_v with it, and the nodes that hold a_depth without x
    and d_v with it."""
    a_lim = a_depth if a_real else -1
    if y is None or not d_v:
        y_d0, yc = d_v, 0
    elif type(y) is int:
        y_d0, yc = -1, (y << _TAG_BITS) | _TAG_MASK
    else:
        y_d0, yc = y.value & _TAG_MASK, y.value | _TAG_MASK
    if rr._fast_query:
        return _index_changes_5b(rr, xc, d_v, y_d0, yc, a_lim)
    to_a: list[int] = []
    to_v: list[int] = []
    a_to_v: list[int] = []
    # v's node's bit depth and the code of the node below it, as the last
    # order visited named them; the orders that name the leaf level come
    # first, and as no order mandates it, it counts as named
    last_kc, last_code = -1, rr._codes[0][rr.w]
    if y_d0 < 0:
        for ch, codes in rr._coarse_first:
            k = d_v // ch
            kc = k * ch
            if kc != last_kc:
                last_kc = kc
                if k > 1 and a_lim + ch < kc:
                    to_a.append(xc & codes[k])
            code = codes[k + 1]
            if code != last_code:
                last_code = code
                to_v.append(xc & code)
                if not k or a_lim >= kc:
                    a_to_v.append(yc & code)
                else:
                    to_v.append(yc & code)
        return to_a, to_v, a_to_v
    # the code of y's own node as the last order visited named it
    last_own = -1
    for ch, codes in rr._coarse_first:
        k = d_v // ch
        kc = k * ch
        yk = y_d0 // ch
        if kc != last_kc:
            last_kc = kc
            if k > 1 and a_lim + ch < kc and yk != k:
                to_a.append(xc & codes[k])
        code = codes[k + 1]
        if code != last_code:
            last_code = code
            to_v.append(xc & code)
            if yk == k + 1:
                last_own = code
                a_to_v.append(yc & code)
            elif yk > k:
                if not k or a_lim >= kc:
                    a_to_v.append(yc & code)
                else:
                    to_v.append(yc & code)
        if yk > k + 1:
            code = codes[yk]
            if code != last_own:
                last_own = code
                a_to_v.append(yc & code)
    return to_a, to_v, a_to_v


def _index_changes_5b(rr: RangeReporter, xc: int, d_v: int, y_d0: int, yc: int,
                      a_lim: int) -> tuple[list[int], list[int], list[int]]:
    """The loop for variant 5b, where an active node is stored when a
    branching node sits between its natural depth-B subtree's root and it;
    y_d0 is -1 for a lone key y.

    An order names the nodes below v's down to the border of v's natural
    subtree or the level above the leaves, all above the first node below
    v that the next coarser order names.  So the orders share only v's node
    and y's own node.  Within an order's window the lists take each node's
    x and y entries together, and y's own node right after the first
    window node's, or after v's node when the window is empty.
    """
    B = rr.B
    y_real = y_d0 >= 0
    to_a: list[int] = []
    to_v: list[int] = []
    a_to_v: list[int] = []
    last_kc = last_own = -1
    for ch, codes in rr._coarse_first:
        k = d_v // ch
        kc = k * ch
        yk = y_d0 // ch
        ns_root = (k // B) * B
        # a surviving-path node inside this natural subtree is stored
        # without x iff some branching node sits between the subtree root
        # and it: the deepest candidate is a
        had_ns_anc = not ns_root or a_lim >= ns_root * ch
        # v's node, unless it branches without x or is stored already;
        # with no branching node in its natural subtree above it, k > 0 and
        # a lies above v's chunk
        if kc != last_kc:
            last_kc = kc
            if not had_ns_anc and yk != k:
                to_a.append(xc & codes[k])
        # the leaf level, at depth len(codes) - 1, holds no entry
        border = min(ns_root + B - 1, len(codes) - 2)
        for dd in range(k + 1, max(border, k + 1) + 1):
            if dd <= border:
                to_v.append(xc & codes[dd])
                # y's path's nodes above y's own node, or all of a lone y's
                if not y_real or dd < yk:
                    (a_to_v if had_ns_anc else to_v).append(yc & codes[dd])
            if dd == k + 1 and y_real and yk > k and codes[yk] != last_own:
                # y's own node, branching in this order too
                last_own = codes[yk]
                a_to_v.append(yc & last_own)
    return to_a, to_v, a_to_v
