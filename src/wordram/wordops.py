"""Word-level primitives and trie coordinate arithmetic.

Keys are unsigned integers of at most one machine word (width in
{8, 16, 32, 64}).  A key's root-to-leaf path in the binary trie can be
re-chunked into tries of higher order: the trie of order ``t`` with chunk
base ``B`` summarizes ``B**t`` consecutive bits per edge.  Nodes of any
such trie are named by (order, depth, prefix).

Depth counts edges from the root, so the root has depth 0 and a leaf of
the binary trie has depth ``width``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

VALID_WIDTHS = (8, 16, 32, 64)


@dataclass(frozen=True)
class WordParams:
    """Key width and its exact base-2 logarithm."""

    width: int
    log_width: int

    @classmethod
    def from_width(cls, width: int) -> "WordParams":
        if width not in VALID_WIDTHS:
            raise ValueError(f"width must be one of {VALID_WIDTHS}, got {width}")
        return cls(width, width.bit_length() - 1)


class NodeName(NamedTuple):
    """Identity of a trie node: order t, depth in the order-t trie, prefix.

    The prefix is the leading bits of any key passing through the node,
    interpreted as an unsigned integer.
    """

    order: int
    depth: int
    prefix: int


def msb(x: int) -> int:
    """Index of the highest set bit, counting from 0 at the low end."""
    if x <= 0:
        raise ValueError("msb of zero")
    return x.bit_length() - 1


def lsb(x: int) -> int:
    """Index of the lowest set bit."""
    if x <= 0:
        raise ValueError("lsb of zero")
    return (x & -x).bit_length() - 1


def lca_depth(a: int, b: int, width: int) -> int:
    """Depth of the lowest common ancestor of leaves a and b in the binary trie."""
    if a == b:
        raise ValueError("identical keys have no proper LCA")
    return width - 1 - msb(a ^ b)


def trie_depth(width: int, order: int, branch: int) -> int:
    """Number of edge levels in the order-t trie (last chunk may be short)."""
    return max(1, -(-width // branch**order))


def top_order(width: int, branch: int) -> int:
    """Smallest order whose trie has depth 1."""
    t = 0
    while branch**t < width:
        t += 1
    return t


def depth0(name: NodeName, branch: int, width: int) -> int:
    """Depth in the binary trie of the node's chunk top (its subtree root)."""
    return min(name.depth * branch**name.order, width)


def map_node(name: NodeName, new_order: int, branch: int, width: int) -> NodeName:
    """The order-`new_order` node whose chunk contains `name`.

    Interior nodes land at depth floor(d0 / chunk); binary-trie leaves map
    to leaves of the target trie even when the last chunk is short.
    """
    d0 = depth0(name, branch, width)
    if d0 >= width:
        return NodeName(new_order, trie_depth(width, new_order, branch), name.prefix)
    chunk = branch**new_order
    k = d0 // chunk
    return NodeName(new_order, k, name.prefix >> (d0 - k * chunk))
