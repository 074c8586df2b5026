"""Trie node names and their mapping between orders, as a test oracle.

A node of the order-t trie (chunk base B summarizes B**t bits per edge) is
named by (order, depth, prefix).  ``map_node`` computes the order-t node
whose chunk contains a given node from the naming rules alone, so tests can
check the range reporter's own key encoding against it.
"""

from __future__ import annotations

from typing import NamedTuple

from wordram.wordops import trie_depth


class NodeName(NamedTuple):
    """Identity of a trie node: order t, depth in the order-t trie, prefix.

    The prefix is the leading bits of any key passing through the node,
    interpreted as an unsigned integer.
    """

    order: int
    depth: int
    prefix: int


def map_node(name: NodeName, new_order: int, branch: int, width: int) -> NodeName:
    """The order-`new_order` node whose chunk contains `name`.

    Interior nodes land at depth floor(d0 / chunk); binary-trie leaves map
    to leaves of the target trie even when the last chunk is short.
    """
    # the depth in the binary trie of the node's chunk top
    d0 = min(name.depth * branch**name.order, width)
    if d0 >= width:
        return NodeName(new_order, trie_depth(width, new_order, branch), name.prefix)
    chunk = branch**new_order
    k = d0 // chunk
    return NodeName(new_order, k, name.prefix >> (d0 - k * chunk))
