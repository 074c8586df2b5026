"""Word-level primitives and trie coordinate arithmetic.

Keys are unsigned integers of at most one machine word (width in
{8, 16, 32, 64}).  A key's root-to-leaf path in the binary trie can be
re-chunked into tries of higher order: the trie of order ``t`` with chunk
base ``B`` summarizes ``B**t`` consecutive bits per edge.

Depth counts edges from the root, so the root has depth 0 and a leaf of
the binary trie has depth ``width``.
"""

from __future__ import annotations

VALID_WIDTHS = (8, 16, 32, 64)


def ensure(ok: bool, message: str) -> None:
    """Raise AssertionError(message) unless ok: an audit check that, unlike
    ``assert``, still runs under ``python -O``."""
    if not ok:
        raise AssertionError(message)


def msb(x: int) -> int:
    """Index of the highest set bit, counting from 0 at the low end."""
    if x <= 0:
        raise ValueError("msb of zero")
    return x.bit_length() - 1


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
