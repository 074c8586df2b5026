import pytest

from wordram.wordops import (
    NodeName,
    lca_depth,
    map_node,
    msb,
    top_order,
    trie_depth,
)


def test_msb_examples():
    assert msb(1) == 0
    assert msb(0b1000) == 3
    assert msb(0b0110) == 2  # naive downward scan agrees
    with pytest.raises(ValueError):
        msb(0)


def test_msb_bracketing_exhaustive_w8():
    for x in range(1, 256):
        m = msb(x)
        assert (1 << m) <= x < (1 << (m + 1))


def naive_common_prefix(a: int, b: int, width: int) -> int:
    for d in range(width):
        if (a >> (width - 1 - d)) & 1 != (b >> (width - 1 - d)) & 1:
            return d
    raise AssertionError


def test_lca_depth_examples():
    assert lca_depth(10, 12, 8) == 5 == naive_common_prefix(10, 12, 8)
    assert lca_depth(0, 255, 8) == 0
    assert lca_depth(6, 7, 8) == 7
    with pytest.raises(ValueError):
        lca_depth(5, 5, 8)


def test_lca_depth_exhaustive_w8():
    for a in range(256):
        for b in range(a + 1, 256):
            d = lca_depth(a, b, 8)
            assert a >> (8 - d) == b >> (8 - d)
            assert (a >> (8 - d - 1)) & 1 != (b >> (8 - d - 1)) & 1


def test_map_node_examples():
    assert map_node(NodeName(0, 6, 0b000011), 2, 2, 8) == NodeName(2, 1, 0b0000)
    assert map_node(NodeName(0, 4, 0b0000), 2, 2, 8) == NodeName(2, 1, 0b0000)
    assert map_node(NodeName(0, 0, 0), 3, 2, 8) == NodeName(3, 0, 0)


def test_map_node_monotone_compatible_exhaustive_w8():
    # mapping through an intermediate order lands on the same node as
    # mapping directly, for every binary-trie node and order pair
    width, branch = 8, 2
    for d in range(width + 1):
        for p in range(1 << d):
            name = NodeName(0, d, p)
            for t1 in range(top_order(width, branch) + 1):
                mid = map_node(name, t1, branch, width)
                for t2 in range(t1, top_order(width, branch) + 1):
                    assert map_node(mid, t2, branch, width) == map_node(
                        name, t2, branch, width
                    )


def test_map_node_leaf_lands_on_leaf_ragged():
    # width 8, branch 4: the order-2 trie has a single short chunk
    leaf = NodeName(0, 8, 0xAB)
    got = map_node(leaf, 2, 4, 8)
    assert got.depth == trie_depth(8, 2, 4) == 1
    assert got.prefix == 0xAB


def test_top_order_and_trie_depth():
    assert top_order(64, 2) == 6
    assert top_order(8, 2) == 3
    assert top_order(8, 4) == 2
    assert top_order(8, 8) == 1
    assert trie_depth(8, 2, 4) == 1  # short final chunk collapses to one level
    assert trie_depth(64, 1, 4) == 16
