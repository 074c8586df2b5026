"""Higher-volume oracle replays and adversarial input patterns.

These runs are sized to finish in seconds while still exercising the
rebalancing and refresh paths far past the unit tests: a hundred thousand
operations against reference oracles, exhaustive greater-than domains with
every branching factor, and audited range-reporting runs on structured key
patterns that maximize chunk-boundary traffic.
"""

import dataclasses
import random
from bisect import bisect_left, insort

import pytest

from wordram.gtgame import STRATEGIES, sweep
from wordram.navlist import CLOSE, ELEMENT, OPEN, Close, Element, NavList, Open
from wordram.predecessor import PredecessorSet
from wordram.rangereport import RangeConfig, RangeReporter


@pytest.mark.parametrize("width", [8, 64])
def test_predecessor_hundred_thousand_ops(width):
    ps = PredecessorSet(width)
    ref: list[int] = []
    rng = random.Random(width * 1000 + 1)
    universe = 1 << width
    for _ in range(100_000):
        roll = rng.random()
        if roll < 0.45 or not ref:
            x = rng.randrange(universe)
            prev, nxt, fresh = ps.insert(x)
            if fresh:
                i = bisect_left(ref, x)
                assert prev == (ref[i - 1] if i else None)
                assert nxt == (ref[i] if i < len(ref) else None)
                ref.insert(i, x)
        elif roll < 0.7:
            i = rng.randrange(len(ref))
            assert ps.delete(ref[i]) == (ref[i - 1] if i else None,
                                         ref[i + 1] if i + 1 < len(ref) else None, True)
            ref.pop(i)
        else:
            q = rng.randrange(universe)
            i = bisect_left(ref, q + 1)
            assert ps.pred(q) == (ref[i - 1] if i else None)
    assert list(ps) == ref


# an entry of each kind, built by the caller
ENTRY = {ELEMENT: Element, OPEN: Open, CLOSE: Close}


def test_navlist_hundred_thousand_insertions():
    rng = random.Random(77)
    nl = NavList(64)
    mirror: list[int] = []
    kinds: list[int] = []
    for step in range(100_000):
        kind = ELEMENT if rng.random() < 0.4 else rng.choice((OPEN, CLOSE))
        i = rng.randrange(len(mirror) + 1)
        h = ENTRY[kind](step)
        if i == 0:
            nl.insert_first(h)
        else:
            nl.insert_after(mirror[i - 1], h)
        mirror.insert(i, h)
        kinds.insert(i, kind)
        if step % 20_000 == 0:
            nl.validate()
    nl.validate()
    assert mirror == list(nl)
    # nearest-element answers, strictly before and after, match a naive
    # walk on a sample
    positions = rng.sample(range(len(mirror)), 2000)
    for idx in positions:
        want_left = next(
            (mirror[j] for j in range(idx - 1, -1, -1) if kinds[j] == ELEMENT), None
        )
        want_right = next(
            (mirror[j] for j in range(idx + 1, len(mirror)) if kinds[j] == ELEMENT), None
        )
        assert nl.nearest_element_left(mirror[idx]) == want_left
        assert nl.nearest_element_right(mirror[idx]) == want_right


def test_navlist_heavy_churn_with_deletes():
    rng = random.Random(78)
    nl = NavList(8)
    mirror: list[int] = []
    for step in range(40_000):
        if not mirror or rng.random() < 0.55:
            kind = ELEMENT if rng.random() < 0.5 else rng.choice((OPEN, CLOSE))
            i = rng.randrange(len(mirror) + 1)
            h = ENTRY[kind](step)
            if i == 0:
                nl.insert_first(h)
            else:
                nl.insert_after(mirror[i - 1], h)
            mirror.insert(i, h)
        else:
            nl.delete(mirror.pop(rng.randrange(len(mirror))))
        if step % 8000 == 0:
            nl.validate()
            assert mirror == list(nl)
    nl.validate()
    assert mirror == list(nl)


def test_greater_than_exhaustive_wider_domain():
    rows = sweep(512, [2, 4, 16, 64], STRATEGIES, trials=0, seed=0, exhaustive=True)
    for row in rows:
        assert row.correct, (row.branch, row.strategy, row.errors)
        assert row.pairs == 512 * 512


def _audited_pattern_run(width, keys, deletions, variant="core", branch=2,
                         backend="exact"):
    rr = RangeReporter(RangeConfig(
        width=width, branch=branch, variant=variant, backend=backend,
        audit=True, capacity=max(64, 2 * len(keys)),
    ))
    shadow: list[int] = []
    universe = 1 << width
    rng = random.Random(1)
    for x in keys:
        if rr.insert(x):
            insort(shadow, x)
        for _ in range(10):
            a = rng.randrange(universe)
            b = rng.randrange(universe)
            if a > b:
                a, b = b, a
            got = rr.findany(a, b)
            i = bisect_left(shadow, a)
            empty = i >= len(shadow) or shadow[i] > b
            assert (got is None) == empty
            if got is not None:
                assert a <= got <= b and got in rr.leaves
    for x in deletions:
        if rr.delete(x):
            shadow.pop(bisect_left(shadow, x))
    assert list(rr.report(0, universe - 1)) == shadow


PATTERNS_W8 = {
    "sequential": list(range(64)),
    "boundaries": [0, 255, 1, 254, 128, 127, 64, 191, 32, 2, 253],
    "powers": [1 << i for i in range(8)] + [(1 << i) - 1 for i in range(1, 9)],
    "dense_cluster": list(range(96, 128)) + [0, 255],
    "two_clusters": list(range(0, 16)) + list(range(240, 256)),
    "comb": list(range(0, 256, 4)),
}


@pytest.mark.parametrize("name", sorted(PATTERNS_W8))
def test_adversarial_patterns_w8_core(name):
    keys = PATTERNS_W8[name]
    _audited_pattern_run(8, keys, deletions=list(reversed(keys)))
    _audited_pattern_run(8, keys, deletions=list(keys))


@pytest.mark.parametrize("variant,branch", [("5a", 4), ("5b", 8)])
def test_adversarial_patterns_w8_variants(variant, branch):
    for name in ("sequential", "two_clusters", "powers"):
        _audited_pattern_run(8, PATTERNS_W8[name], deletions=PATTERNS_W8[name],
                             variant=variant, branch=branch, backend="bloomier")


def test_structured_keys_w64_audited():
    # chunk-aligned keys hammer the boundary-child refresh logic
    keys = []
    for i in range(40):
        keys.append(i << 32)
        keys.append((i << 32) | 1)
        keys.append((i << 48) | (i << 16))
    _audited_pattern_run(64, keys, deletions=keys[::2] + keys[1::2])


def test_w32_merge_resplit_regression():
    # a delete that merges an undersized list bucket into a full neighbor
    # and re-splits; at width 32 this once overflowed the permutation word
    ops = [
        ("i", 950544251), ("i", 406873256), ("i", 317776750), ("i", 2324765180),
        ("i", 1831126756), ("i", 3762430127), ("i", 2680966058),
        ("i", 2084645049), ("i", 830041999), ("d", 317776750),
    ]
    rr = RangeReporter(RangeConfig(width=32, audit=True, capacity=64))
    for op, x in ops:
        if op == "i":
            assert rr.insert(x)
        else:
            assert rr.delete(x)
    assert rr.findany(0, (1 << 32) - 1) is not None


def test_full_universe_w8_audited():
    # every key of the 8-bit universe, inserted and removed in orders that
    # disagree, with the full structural audit after each operation
    rr = RangeReporter(RangeConfig(width=8, audit=True, capacity=512))
    for x in range(256):
        assert rr.insert(x)
    assert rr.sorted_elements() == list(range(256))
    for a in (0, 1, 100, 255):
        assert rr.findany(a, a) == a
    deletion = list(range(0, 256, 2)) + list(range(255, 0, -2))
    for x in deletion:
        assert rr.delete(x)
    assert len(rr) == 0


@pytest.mark.parametrize("variant,branch", [("5a", 4), ("5b", 4)])
def test_variants_w16_audited(variant, branch):
    rr = RangeReporter(RangeConfig(
        width=16, branch=branch, variant=variant, backend="bloomier",
        audit=True, capacity=512, seed=31,
    ))
    rng = random.Random(31)
    shadow: list[int] = []
    for _ in range(120):
        if not shadow or rng.random() < 0.6:
            x = rng.randrange(1 << 16)
            if rr.insert(x):
                insort(shadow, x)
        else:
            x = shadow[rng.randrange(len(shadow))]
            rr.delete(x)
            shadow.pop(bisect_left(shadow, x))
        for _ in range(15):
            a = rng.randrange(1 << 16)
            b = rng.randrange(1 << 16)
            if a > b:
                a, b = b, a
            got = rr.findany(a, b)
            i = bisect_left(shadow, a)
            empty = i >= len(shadow) or shadow[i] > b
            assert (got is None) == empty


@pytest.mark.parametrize("variant,branch", [("5a", 4), ("5a", 8), ("5b", 4),
                                            ("5b", 8), ("core", 2)])
def test_w64_bloomier_audited(variant, branch):
    rr = RangeReporter(RangeConfig(
        width=64, branch=branch, variant=variant, backend="bloomier",
        audit=True, capacity=1024, seed=300 + branch,
    ))
    rng = random.Random(300 + branch)
    shadow: list[int] = []
    for p_ins, ops in [(0.8, 60), (0.45, 60), (0.2, 40)]:
        for _ in range(ops):
            if not shadow or rng.random() < p_ins:
                x = rng.getrandbits(64)
                if rr.insert(x):
                    insort(shadow, x)
            else:
                x = shadow[rng.randrange(len(shadow))]
                assert rr.delete(x)
                shadow.pop(bisect_left(shadow, x))
            for _ in range(3):
                a, b = rng.getrandbits(64), rng.getrandbits(64)
                if a > b:
                    a, b = b, a
                got = rr.findany(a, b)
                i = bisect_left(shadow, a)
                assert (got is None) == (i >= len(shadow) or shadow[i] > b)
    while shadow:
        assert rr.delete(shadow.pop())
    assert rr.index.snapshot() == {} and len(rr.nav) == 2


def test_w64_bloomier_verbatim_entries_audited():
    # a full w=64 core reporter holds colliding index entries verbatim, and
    # deletes then read ancestor depths from them; check() reads the filter's
    # mirror, which audit mode builds, but a full audit after every one of
    # 2,048 updates would take minutes, so it runs every 128 deletes instead.
    # The keys under a record held verbatim go first: no delete below the
    # record writes its entry, so the record's own delete reads it verbatim.
    # Which records collide depends on the seed: the test takes the first
    # seed in a fixed range whose filled reporter holds one
    for seed in range(9, 40):
        rr = RangeReporter(RangeConfig(width=64, backend="bloomier", audit=True,
                                       capacity=1024, seed=seed))
        rr.config = dataclasses.replace(rr.config, audit=False)
        rng = random.Random(seed)
        while len(rr) < 1024:
            rr.insert(rng.getrandbits(64))
        bloom = rr.index._filter
        if any(key in bloom._exact for key in rr.table):
            break
    else:
        pytest.fail("no seed in 9-39 holds a record's entry verbatim")
    assert bloom._exact
    rr.check()
    verbatim_reads = 0
    get = rr.index.get

    def counting_get(key):
        nonlocal verbatim_reads
        verbatim_reads += key in bloom._exact
        return get(key)

    rr.index.get = counting_get
    keys = rr.sorted_elements()
    rng.shuffle(keys)
    held = [key for key in rr.table if key in bloom._exact]
    assert held
    bd, p = rr._dec(held[0])
    keys.sort(key=lambda x: x >> (64 - bd) != p)
    for i, x in enumerate(keys, 1):
        assert rr.delete(x)
        if i % 128 == 0:
            rr.check()
    assert verbatim_reads > 0
    assert bloom.live_count == 0 and len(rr) == 0 and list(rr.table) == [rr._root_key]


def test_many_seeds_short_audited_runs():
    for seed in range(20, 36):
        rr = RangeReporter(RangeConfig(width=8, audit=True, capacity=256, seed=seed))
        rng = random.Random(seed)
        shadow: list[int] = []
        for _ in range(120):
            if not shadow or rng.random() < 0.55:
                x = rng.randrange(256)
                if rr.insert(x):
                    insort(shadow, x)
            else:
                x = shadow[rng.randrange(len(shadow))]
                rr.delete(x)
                shadow.pop(bisect_left(shadow, x))
        assert rr.sorted_elements() == shadow
