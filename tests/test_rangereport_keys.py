"""A key is its own navigation entry: keys compare by value, are stored as
exact ints, and live in one key-to-bucket map that the navigation list owns."""

import copy
import enum
import pickle
import random
from bisect import bisect_left, bisect_right

import pytest

from test_rangereport import make
from wordram.navlist import Close
from wordram.rangereport import BranchingRecord


class Level(enum.IntEnum):
    LOW = 2
    MID = 100
    HIGH = 200


def twin(x: int) -> int:
    """An int equal to x; another object unless the interpreter caches x."""
    return int(str(x))


def expect(rr, shadow, a, b):
    """findany and report on [a, b] agree with the sorted shadow, and every
    answer is an exact int."""
    lo, hi = bisect_left(shadow, a), bisect_right(shadow, b)
    got = rr.findany(a, b)
    if lo == hi:
        assert got is None, (a, b, got)
    else:
        assert type(got) is int and got in shadow[lo:hi], (a, b, got)
    listed = list(rr.report(a, b))
    assert listed == shadow[lo:hi] and all(type(k) is int for k in listed)


def assert_stored_as_ints(rr):
    assert all(type(k) is int for k in rr.nav.elements)
    assert all(type(k) is int for k in rr.pred)
    assert all(type(e) in (int, BranchingRecord, Close) for e in rr.nav)
    for rec in rr.table.values():
        for side in (rec.left, rec.right):
            assert side is None or type(side) in (int, BranchingRecord)


def test_a_key_that_is_no_integer_changes_nothing():
    # a float equal to a live key passes a membership test, so an update
    # must reject it before it takes the key out of S or changes any layer
    for audit in (False, True):
        rr = make(audit=audit)
        for x in (3, 100, 200):
            rr.insert(x)
        dump, entries = rr.dump(), list(rr.nav)
        for bad in (3.0, 3.5, "3", None):
            with pytest.raises(TypeError):
                rr.delete(bad)
            with pytest.raises(TypeError):
                rr.insert(bad)
        assert list(rr.pred) == [3, 100, 200] and len(rr) == 3
        assert rr.dump() == dump and list(rr.nav) == entries
        rr.check()
        assert rr.delete(3)
        rr.check()
        assert list(rr.report(0, 255)) == [100, 200]


@pytest.mark.parametrize("width", [8, 64])
def test_equal_keys_that_are_other_objects(width):
    rng = random.Random(width)
    rr = make(width=width, capacity=512, seed=5)
    reserved = {0, 1} | set(Level)
    keys = set()
    while len(keys) < 120:
        keys.add(rng.randrange(1 << width))
    keys = sorted(keys - reserved)
    shadow = list(keys)
    for x in keys:
        assert rr.insert(x)
    # bool and IntEnum keys are stored as the plain ints they equal
    assert rr.insert(True) and rr.insert(Level.MID)
    shadow = sorted(shadow + [1, 100])
    for x in (1, True, 100, Level.MID, twin(100)):
        assert x in rr and not rr.insert(x)
    assert_stored_as_ints(rr)
    for x in shadow:
        t = twin(x)
        assert t in rr and not rr.insert(t)
        assert rr.findany(t, t) == x and type(rr.findany(t, t)) is int
        assert list(rr.report(t, t)) == [x]
    assert type(rr.findany(True, True)) is int
    assert type(rr.findany(Level.MID, Level.MID)) is int
    expect(rr, shadow, False, True)
    expect(rr, shadow, Level.LOW, Level.HIGH)
    for _ in range(200):
        a = rng.randrange(1 << width)
        expect(rr, shadow, a, min(a + rng.randrange(1 << (width // 2)), (1 << width) - 1))

    # copies answer alike and take updates by equal keys of any kind
    queries = [(k - 3, k + 3) for k in shadow[::7]]
    for c in (copy.deepcopy(rr), pickle.loads(pickle.dumps(rr))):
        c.check()
        assert_stored_as_ints(c)
        for a, b in queries:
            expect(c, shadow, max(a, 0), b)
        assert c.delete(True) and c.delete(twin(100))
        for x in shadow[::3]:
            if x not in (1, 100):
                assert c.delete(twin(x))
        rest = [x for x in shadow if x not in (1, 100) and x not in shadow[::3]]
        assert sorted(c.nav.elements) == rest
        expect(c, rest, 0, (1 << width) - 1)
        assert c.insert(Level.MID) and Level.MID in c
        assert_stored_as_ints(c)

    # the original is as it was, and deletes by equal keys empty it
    rr.check()
    expect(rr, shadow, 0, (1 << width) - 1)
    assert rr.delete(1) and rr.delete(Level.MID) and not rr.delete(True)
    for x in shadow:
        if x not in (1, 100):
            assert rr.delete(twin(x))
    assert len(rr) == 0 and rr.findany(0, (1 << width) - 1) is None
    assert list(rr.table) == [rr._root_key]


@pytest.mark.parametrize("copier", ["deepcopy", "pickle"])
def test_copies_keep_one_key_map(copier):
    # membership reads the navigation list's own key map: a copy has one
    # map, its list's, and updates to the copy leave the original's alone
    rng = random.Random(41)
    rr = make(width=64, capacity=1024, seed=41)
    keys = [rng.getrandbits(64) for _ in range(300)]
    for x in keys:
        rr.insert(x)
    keys = sorted(rr.nav.elements)
    c = copy.deepcopy(rr) if copier == "deepcopy" else pickle.loads(pickle.dumps(rr))
    elements = c.nav.elements
    assert elements is not rr.nav.elements and sorted(elements) == keys
    assert not any(v is elements for v in vars(c).values())
    # each key maps to a bucket of the copy's list that holds the key
    buckets = {id(b) for b in elements.values()}
    assert not buckets & {id(b) for b in rr.nav.elements.values()}
    assert all(x in elements[x].entries for x in keys)

    original = dict(rr.nav.elements)
    queries = [(x - (1 << 40), x + (1 << 40)) for x in keys[::5]]
    answers = [rr.findany(a, b) for a, b in queries]
    reports = [list(rr.report(a, b)) for a, b in queries[::4]]
    fresh = [rng.getrandbits(64) for _ in range(100)]
    for x in fresh:
        c.insert(x)
    for x in keys[::2]:
        assert c.delete(x)
    assert all(x in c for x in fresh) and not any(x in c for x in keys[::2])
    assert len(c) == len(c.nav.elements)
    c.check()

    assert rr.nav.elements == original and sorted(rr.nav.elements) == keys
    assert len(rr) == len(keys) and all(x in rr for x in keys[::2])
    assert not any(x in rr for x in fresh if x not in original)
    rr.check()
    assert [rr.findany(a, b) for a, b in queries] == answers
    assert [list(rr.report(a, b)) for a, b in queries[::4]] == reports
