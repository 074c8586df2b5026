import random
from bisect import bisect_left, bisect_right, insort

import pytest

from wordram.predecessor import PredecessorSet


def replay(width: int, ops: int, seed: int) -> None:
    ps = PredecessorSet(width)
    ref: list[int] = []
    rng = random.Random(seed)
    universe = 1 << width
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.5 or not ref:
            x = rng.randrange(universe)
            prev, nxt, fresh = ps.insert(x)
            if fresh:
                i = bisect_left(ref, x)
                assert prev == (ref[i - 1] if i else None)
                assert nxt == (ref[i] if i < len(ref) else None)
                ref.insert(i, x)
            else:
                assert x in ref
        elif roll < 0.75:
            x = ref[rng.randrange(len(ref))]
            assert ps.delete(x)
            ref.pop(bisect_left(ref, x))
        else:
            q = rng.randrange(universe)
            i = bisect_right(ref, q)
            assert ps.pred(q) == (ref[i - 1] if i else None)
            j = bisect_left(ref, q)
            assert ps.succ(q) == (ref[j] if j < len(ref) else None)
    assert list(ps) == ref


@pytest.mark.parametrize("width", [8, 64])
def test_oracle_replay(width):
    replay(width, 20_000, seed=17)
    replay(width, 20_000, seed=4)


def test_dense_small_universe():
    # stress rebalancing with lots of duplicates and removals
    ps = PredecessorSet(8)
    ref: set[int] = set()
    rng = random.Random(3)
    for _ in range(30_000):
        x = rng.randrange(256)
        if rng.random() < 0.55:
            ps.insert(x)
            ref.add(x)
        elif ref:
            victim = rng.choice(sorted(ref))
            assert ps.delete(victim)
            ref.discard(victim)
    assert list(ps) == sorted(ref)


def test_neighbor_links_and_bounds():
    ps = PredecessorSet(16)
    for x in (5, 9, 300, 2, 77):
        ps.insert(x)
    assert ps.min == 2 and ps.max == 300
    assert ps.next_key(5) == 9 and ps.prev_key(5) == 2
    assert ps.prev_key(2) is None and ps.next_key(300) is None
    assert not ps.delete(4)
    assert ps.delete(9)
    assert ps.next_key(5) == 77


def test_duplicate_insert_flag():
    ps = PredecessorSet(8)
    assert ps.insert(4)[2]
    prev, nxt, fresh = ps.insert(4)
    assert not fresh and prev is None and nxt is None


def test_query_counter_counts_only_queries():
    ps = PredecessorSet(8)
    ps.insert(1)
    ps.insert(7)
    assert ps.query_count == 0
    ps.pred(5)
    ps.succ(5)
    assert ps.query_count == 2
    ps.prev_key(7), ps.next_key(1)
    assert ps.query_count == 2


def test_pred_examples():
    ps = PredecessorSet(8)
    assert ps.pred(5) is None
    ps.insert(3)
    ps.insert(9)
    assert ps.pred(5) == 3
    assert ps.succ(5) == 9
    assert ps.pred(3) == 3


@pytest.mark.parametrize("width", [16, 64])
def test_clustered_updates_against_sorted_list(width):
    # runs of nearby keys, inserted and deleted together, land in the bucket
    # the previous update touched; answers must not depend on that shortcut
    ps = PredecessorSet(width)
    ref: list[int] = []
    rng = random.Random(width)
    universe = 1 << width
    for _ in range(4000):
        if rng.random() < 0.55 or not ref:
            centre = rng.randrange(universe - 8)
            for x in sorted({centre + rng.randrange(8) for _ in range(3)}):
                prev, nxt, fresh = ps.insert(x)
                i = bisect_left(ref, x)
                if fresh:
                    assert (prev, nxt) == (ref[i - 1] if i else None,
                                           ref[i] if i < len(ref) else None)
                    ref.insert(i, x)
        else:
            j = rng.randrange(len(ref))
            for x in ref[j:j + 3]:
                assert ps.delete(x)
            del ref[j:j + 3]
        q = rng.randrange(universe)
        i = bisect_right(ref, q)
        assert ps.pred(q) == (ref[i - 1] if i else None)
    assert list(ps) == ref
