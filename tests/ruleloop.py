"""The index rule's folded loop over orders, as a test oracle.

For core and 5a the reporter reads, per depth of v, a table of rows that
``RangeReporter._rule_rows`` builds once: each order's chunk, v's node's
depth and bit depth, and the codes of v's node and the node below it
where that order names them first.  This module keeps the loop that the
rows replace: it visits the orders below the top coarsest first and
recomputes v's node, the node below it and which order names each first
on every call.  ``index_changes`` takes the rule's own arguments, so a
test can compare the two lists for list, order for order, on every call
of a recorded run and on every shape.
"""

from __future__ import annotations

from wordram.navlist import Element
from wordram.rangereport import _TAG_BITS, _TAG_MASK, RangeReporter


def index_changes(rr: RangeReporter, xc: int, d_v: int, y, a_depth: int,
                  a_real: bool) -> tuple[list[int], list[int], list[int]]:
    """``rr._index_changes(xc, d_v, y, a_depth, a_real)`` for core and 5a,
    by the per-call loop: the nodes that no order mandates without x and
    that hold a_depth with it, the nodes that no order mandates without x
    and that hold d_v with it, and the nodes that hold a_depth without x
    and d_v with it."""
    a_lim = a_depth if a_real else -1
    if y is None or not d_v:
        y_d0, yc = d_v, 0
    elif type(y) is Element:
        y_d0, yc = -1, (y.value << _TAG_BITS) | _TAG_MASK
    else:
        y_d0, yc = y.value & _TAG_MASK, y.value | _TAG_MASK
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
