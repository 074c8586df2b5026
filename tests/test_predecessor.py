import copy
import pickle
import random
from bisect import bisect_left, bisect_right, insort

import pytest

from wordram.predecessor import PredecessorSet


def delete_answer(ref: list[int], i: int) -> tuple[int | None, int | None, bool]:
    """What deleting ref[i] returns: its neighbors in ref, and True."""
    return (ref[i - 1] if i else None, ref[i + 1] if i + 1 < len(ref) else None, True)


def deepening(width: int, ops: int):
    """Keys that start out uniform and later crowd under one prefix: the
    i-th key shares about width * i / ops leading bits with a fixed anchor,
    so buckets split there and late representatives share long prefixes
    with their neighbors."""
    anchor = random.Random(width).randrange(1 << width)

    def draw(rng: random.Random, i: int, ref: list[int]) -> int:
        if rng.random() < 0.25:
            return rng.randrange(1 << width)
        free = width - width * i // ops
        return anchor >> free << free | rng.getrandbits(free)
    return draw


def check_top(ps: PredecessorSet) -> None:
    """The x-fast top against the representatives, the buckets' first keys:
    height exceeds every consecutive pair's shared prefix and is at most
    width, and each stored level holds exactly the representatives'
    prefixes, each with the least and greatest representative under it."""
    top = ps._top
    w = top.width
    reps = sorted(ps._buckets)
    assert 1 <= top.height <= w
    for a, b in zip(reps, reps[1:]):
        assert w - (a ^ b).bit_length() < top.height
    assert len(top._levels) == top.height + 1 and not top._levels[0]
    for level in range(1, top.height + 1):
        want: dict[int, tuple[int, int]] = {}
        for r in reps:  # ascending, so the last rep under a prefix is its max
            pref = r >> (w - level)
            want[pref] = (want.get(pref, (r, r))[0], r)
        assert top._levels[level] == want, level
    assert (top.min, top.max) == ((reps[0], reps[-1]) if reps else (None, None))


def replay(width: int, ops: int, seed: int, draw=None, check=None) -> list[int]:
    """Random inserts, deletes and queries against a sorted list; draw picks
    keys and query points, check runs after every op.  Returns the top's
    height after each op."""
    draw = draw or (lambda rng, i, ref: rng.randrange(1 << width))
    ps = PredecessorSet(width)
    ref: list[int] = []
    rng = random.Random(seed)
    heights = []
    for step in range(ops):
        roll = rng.random()
        if roll < 0.5 or not ref:
            x = draw(rng, step, ref)
            prev, nxt, fresh = ps.insert(x)
            i = bisect_left(ref, x)
            if fresh:
                assert prev == (ref[i - 1] if i else None)
                assert nxt == (ref[i] if i < len(ref) else None)
                ref.insert(i, x)
            else:
                # a duplicate insert reports x's neighbors as they stand
                assert ref[i] == x and (prev, nxt) == delete_answer(ref, i)[:2]
        elif roll < 0.75:
            i = rng.randrange(len(ref))
            assert ps.delete(ref[i]) == delete_answer(ref, i)
            ref.pop(i)
        else:
            q = draw(rng, step, ref)
            i = bisect_right(ref, q)
            assert ps.pred(q) == (ref[i - 1] if i else None)
            j = bisect_left(ref, q)
            assert ps.succ(q) == (ref[j] if j < len(ref) else None)
            if i == j:
                assert ps.delete(q) == (None, None, False)
        assert (ps.min, ps.max) == ((ref[0], ref[-1]) if ref else (None, None))
        if check:
            check(ps)
        heights.append(ps._top.height)
    assert list(ps) == ref
    return heights


@pytest.mark.parametrize("width", [8, 64])
def test_oracle_replay(width):
    replay(width, 20_000, seed=17)
    replay(width, 20_000, seed=4)


@pytest.mark.parametrize("width,ops", [(8, 1000), (64, 3000)])
def test_oracle_replay_growing_height(width, ops):
    # late keys share ever longer prefixes, so height grows mid-run; the top
    # is checked against its representatives after every op
    heights = replay(width, ops, seed=width, draw=deepening(width, ops), check=check_top)
    assert heights[ops // 4] < heights[-1] and heights[-1] > width // 2
    assert heights == sorted(heights)  # height never shrinks


def test_height_small_on_uniform_keys():
    # consecutive representatives of 2^14 uniform keys share few bits
    ps = PredecessorSet(64)
    rng = random.Random(14)
    for _ in range(1 << 14):
        ps.insert(rng.getrandbits(64))
    check_top(ps)
    assert ps._top.height <= 16


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
            keys = sorted(ref)
            i = rng.randrange(len(keys))
            assert ps.delete(keys[i]) == delete_answer(keys, i)
            ref.discard(keys[i])
            assert ps.delete(keys[i]) == (None, None, False)
    assert list(ps) == sorted(ref)


def test_neighbor_links_and_bounds():
    # the neighbors that insert and delete return
    ps = PredecessorSet(16)
    assert [ps.insert(x) for x in (5, 9, 300, 2, 77)] == [
        (None, None, True), (5, None, True), (9, None, True), (None, 5, True),
        (9, 300, True)]
    assert ps.min == 2 and ps.max == 300
    assert ps.delete(4) == (None, None, False)
    assert ps.delete(9) == (5, 77, True)
    assert ps.delete(2) == (None, 5, True)
    assert ps.delete(300) == (77, None, True)
    assert (ps.min, ps.max) == (5, 77)

    # at w=8 buckets split past 16 keys, so 40 keys fill several; a key at
    # a bucket edge has its other neighbor in the adjacent bucket
    ps = PredecessorSet(8)
    ref = list(range(0, 200, 5))
    for x in ref:
        ps.insert(x)
    reps = sorted(ps._buckets)
    assert len(reps) > 2
    r = reps[1]
    last = ps._buckets[reps[0]][-1]
    assert ps.insert(r - 1) == (last, r, True)  # the first bucket's new last key
    insort(ref, r - 1)
    i = ref.index(r)
    assert ps.delete(r) == delete_answer(ref, i)  # a bucket's first key
    ref.pop(i)
    i = ref.index(r - 1)
    assert ps.delete(r - 1) == delete_answer(ref, i)  # the last key before an edge
    ref.pop(i)
    assert list(ps) == ref


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
    ps.insert(3)
    ps.insert(3)
    ps.delete(7)
    ps.delete(4)
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
            for _ in range(min(3, len(ref) - j)):
                assert ps.delete(ref[j]) == delete_answer(ref, j)
                del ref[j]
        q = rng.randrange(universe)
        i = bisect_right(ref, q)
        assert ps.pred(q) == (ref[i - 1] if i else None)
    assert list(ps) == ref


def brute_full(ps: PredecessorSet) -> int:
    """The deepest stored level at which the representatives' prefixes
    take all 2**level values (0 when there are none)."""
    top = ps._top
    w = top.width
    reps = ps._buckets
    return max((level for level in range(top.height + 1)
                if len({r >> (w - level) for r in reps}) == 1 << level), default=0)


def clustered(width: int):
    """Keys near a few fixed centres, each run filling and emptying one
    neighbourhood, and a quarter uniform."""
    rng = random.Random(width + 1)
    centres = [rng.getrandbits(width) for _ in range(4)]

    def draw(rng: random.Random, i: int, ref: list[int]) -> int:
        if rng.random() < 0.25:
            return rng.randrange(1 << width)
        spread = 1 << max(width // 2, 4)
        return min(rng.choice(centres) + rng.randrange(spread), (1 << width) - 1)
    return draw


class CountingTable(dict):
    """A level table that counts membership tests, a search's probes."""
    probes = 0

    def __contains__(self, key):
        CountingTable.probes += 1
        return dict.__contains__(self, key)


@pytest.mark.parametrize("width", [8, 16, 64])
@pytest.mark.parametrize("keys", ["uniform", "clustered", "deep"])
def test_full_level_follows_the_representatives(width, keys):
    # the set grows for half the run and shrinks for the other half; after
    # every op full equals a recount from the representatives and the top
    # is still exact.  The run crosses grows, splits, merges and relabels of
    # a bucket, and full both rises and falls
    ops = {8: 6000, 16: 6000, 64: 4000}[width]
    draw = {"uniform": lambda rng, i, ref: rng.getrandbits(width),
            "clustered": clustered(width), "deep": deepening(width, ops)}[keys]
    ps = PredecessorSet(width)
    ref: list[int] = []
    rng = random.Random(width + len(keys))
    fulls = []
    events = dict.fromkeys(("grow", "split", "merge", "relabel"), 0)
    reps, height = set(), 1
    for step in range(ops):
        if not ref or rng.random() < (0.7 if step < ops // 2 else 0.3):
            x = draw(rng, step, ref)
            if ps.insert(x)[2]:
                insort(ref, x)
        else:
            i = rng.randrange(len(ref))
            assert ps.delete(ref[i]) == delete_answer(ref, i)
            ref.pop(i)
        check_top(ps)
        assert ps._top.full == brute_full(ps), step
        fulls.append(ps._top.full)
        new_reps = set(ps._buckets)
        events["grow"] += ps._top.height > height
        events["split"] += len(new_reps) > len(reps) and bool(reps)
        events["merge"] += len(new_reps) < len(reps)
        events["relabel"] += len(new_reps) == len(reps) and new_reps != reps
        reps, height = new_reps, ps._top.height
    assert list(ps) == ref
    # at w=64 a few crowded neighbourhoods complete no level past the first
    assert max(fulls) >= (2 if keys == "uniform" or width < 64 else 1), keys
    assert any(a > b for a, b in zip(fulls, fulls[1:])), keys
    assert all(events.values()), events


def test_full_level_cuts_the_search():
    # on 2^14 uniform keys the top's first levels are complete, and no
    # search probes more than ceil(lg(height - full + 1)) tables
    ps = PredecessorSet(64)
    rng = random.Random(33)
    for _ in range(1 << 14):
        ps.insert(rng.getrandbits(64))
    top = ps._top
    assert top.full == brute_full(ps) and top.full >= 4
    top._levels = [CountingTable(table) for table in top._levels]
    bound = (top.height - top.full).bit_length()
    for _ in range(2000):
        CountingTable.probes = 0
        ps.pred(rng.getrandbits(64))
        assert CountingTable.probes <= bound


def test_full_level_survives_copies():
    # full is state: a deep copy or a pickle keeps it, and goes on keeping
    # it right through further updates
    ps = PredecessorSet(16)
    rng = random.Random(35)
    keys = [rng.randrange(1 << 16) for _ in range(3000)]
    for x in keys:
        ps.insert(x)
    assert ps._top.full >= 2
    for c in (copy.deepcopy(ps), pickle.loads(pickle.dumps(ps))):
        assert c._top.full == ps._top.full
        for x in keys[:2500]:
            c.delete(x)
            assert c._top.full == brute_full(c)
        assert list(c) == sorted(set(keys[2500:]) - set(keys[:2500]))
