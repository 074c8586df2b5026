import copy
import pickle
import random

import pytest

from wordram.navlist import CLOSE, ELEMENT, OPEN, Close, Element, NavList, Open

# an entry of each kind, built by the caller
ENTRY = {ELEMENT: Element, OPEN: Open, CLOSE: Close}


def put_after(nl, last, e):
    """Insert e first, or after last when last is an entry; return e."""
    if last is None:
        nl.insert_first(e)
    else:
        nl.insert_after(last, e)
    return e


def naive_nearest(mirror, idx, want_kind, direction):
    # strictly before or after idx
    step = -1 if direction == "left" else 1
    j = idx + step
    while 0 <= j < len(mirror):
        if mirror[j][1] == want_kind:
            return mirror[j][0]
        j += step
    return None


def fuzz(width: int, ops: int, seed: int, element_bias: float = 0.34) -> NavList:
    rng = random.Random(seed)
    nl = NavList(width)
    mirror: list[tuple[int, int]] = []
    for step in range(ops):
        if not mirror or rng.random() < 0.6:
            kind = ELEMENT if rng.random() < element_bias else rng.choice([OPEN, CLOSE])
            i = rng.randrange(len(mirror) + 1)
            h = put_after(nl, mirror[i - 1][0] if i else None, ENTRY[kind](step))
            mirror.insert(i, (h, kind))
        else:
            i = rng.randrange(len(mirror))
            nl.delete(mirror.pop(i)[0])
        if step % 251 == 0:
            nl.validate()
            assert [h for h, _ in mirror] == list(nl)
    nl.validate()
    assert [h for h, _ in mirror] == list(nl)
    for idx, (h, _) in enumerate(mirror):
        assert nl.nearest_element_left(h) == naive_nearest(mirror, idx, ELEMENT, "left")
        assert nl.nearest_element_right(h) == naive_nearest(mirror, idx, ELEMENT, "right")
    return nl


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_fuzz_against_naive_mirror(width):
    fuzz(width, 4000, seed=5)
    fuzz(width, 4000, seed=23, element_bias=0.8)


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_merge_of_full_neighbor_keeps_order(width):
    # deleting down to an undersized bucket next to a full one makes the
    # merged bucket larger than the split threshold; it must split again
    # and keep every entry in list order
    nl = NavList(width)
    handles = []
    last = None
    for i in range(6 * nl.cap):
        last = put_after(nl, last, Element(i))
        handles.append(last)
    rng = random.Random(width)
    mirror = list(handles)
    while len(mirror) > 1:
        idx = rng.randrange(len(mirror))
        nl.delete(mirror.pop(idx))
        nl.validate()
        assert mirror == list(nl)


def test_single_entry_and_boundaries():
    nl = NavList(8)
    h_open = put_after(nl, None, Open(0))
    assert nl.nearest_element_left(h_open) is None
    assert nl.nearest_element_right(h_open) is None
    h_el = put_after(nl, h_open, Element(5))
    h_close = put_after(nl, h_el, Close(12))
    assert nl.nearest_element_left(h_close) == h_el
    assert nl.nearest_element_right(h_open) == h_el
    # querying at an element looks strictly past it
    assert nl.nearest_element_left(h_el) is None
    assert nl.nearest_element_right(h_el) is None
    assert [e.kind for e in nl].count(ELEMENT) == 1


def test_delete_sole_entry_empties_structure():
    nl = NavList(8)
    h = put_after(nl, None, Element(1))
    nl.delete(h)
    assert len(nl) == 0
    assert list(nl) == []
    h2 = put_after(nl, None, Element(2))
    assert list(nl) == [h2]


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_split_leaves_a_gap_before_merge(width):
    # a split bucket's halves sit well above the merge floor: deleting
    # base // 2 entries from one half merges nothing
    nl = NavList(width)
    calls = []
    split, shrink = nl._split_bucket, nl._shrink
    nl._split_bucket = lambda bucket: (calls.append("split"), split(bucket))
    nl._shrink = lambda bucket: (calls.append("shrink"), shrink(bucket))
    handles = [put_after(nl, None, Open(None))]
    for i in range(nl.cap):
        handles.append(put_after(nl, handles[-1], Close(i)))
    assert calls == ["split"]
    for h in handles[: nl.base // 2]:
        nl.delete(h)
    assert calls == ["split"]
    nl.validate()
    assert list(nl) == handles[nl.base // 2:]


def test_invalid_handles():
    # a deleted entry is a stale handle: using it raises, and leaves the
    # structure as it was
    nl = NavList(8)
    h = put_after(nl, None, Open(None))
    stale = put_after(nl, h, Element(1))
    nl.delete(stale)
    with pytest.raises(KeyError):
        nl.delete(stale)
    with pytest.raises(KeyError):
        nl.insert_after(stale, Element(2))
    with pytest.raises(KeyError):
        nl.insert_before(stale, Element(2))
    # a listed entry cannot be inserted a second time
    with pytest.raises(KeyError):
        nl.insert_after(h, h)
    with pytest.raises(KeyError):
        nl.insert_first(h)
    with pytest.raises(KeyError):
        nl.nearest_element_left(stale)
    with pytest.raises(KeyError):
        nl.nearest_element_right(stale)
    nl.validate()
    assert list(nl) == [h]


def test_bounded_examination_with_short_runs(width=64):
    # runs of non-elements bounded by 2*width keep the walk inside a few
    # summary words, matching the structure's design point
    rng = random.Random(9)
    nl = NavList(width)
    handles = []
    last = None
    run = 0
    for i in range(20_000):
        if run >= 2 * width or rng.random() < 0.25:
            kind = ELEMENT
            run = 0
        else:
            kind = rng.choice([OPEN, CLOSE])
            run += 1
        last = put_after(nl, last, ENTRY[kind](i))
        handles.append(last)
    nl.max_examined = 0
    for h in rng.sample(handles, 2000):
        nl.nearest_element_left(h)
        nl.nearest_element_right(h)
    assert nl.max_examined <= 6


def _superbuckets(nl):
    sup = nl._head
    while sup is not None:
        yield sup
        sup = sup.next


def _trim(nl, bucket, size):
    # delete non-elements from bucket until it holds size entries
    while len(bucket.entries) > size:
        victim = next((e for e in bucket.entries if e.kind != ELEMENT), None)
        if victim is None:
            return
        nl.delete(victim)


@pytest.mark.parametrize("width", [16, 64])
def test_bounded_examination_at_the_floors(width):
    # deletes that leave buckets and superbuckets at their floors (base
    # entries, base buckets) pack the fewest entries into a superbucket, so
    # a run of up to 2*width non-elements covers the most summary words.
    # Runs start at 4*width so that, once the floor deletes have removed
    # over half of them, they are still close to 2*width; a last pass cuts
    # any run above 2*width. Deletes only ever remove non-elements.
    nl = NavList(width)
    last = put_after(nl, None, Element(0))
    for r in range(40):
        for i in range(4 * width):
            last = put_after(nl, last, Open(i) if i % 2 else Close(i))
        last = put_after(nl, last, Element(r + 1))
    for sup in list(_superbuckets(nl)):
        for bucket in list(sup.buckets):
            _trim(nl, bucket, nl.base)
    for sup in list(_superbuckets(nl)):
        # merge floor-sized neighbors until the superbucket is at its floor
        while len(sup.buckets) > nl.base:
            for left, right in zip(sup.buckets, sup.buckets[1:]):
                if len(left.entries) == len(right.entries) == nl.base:
                    victim = next((e for e in left.entries if e.kind != ELEMENT), None)
                    if victim is not None:
                        nl.delete(victim)  # left absorbs right
                        _trim(nl, left, nl.base)
                        break
            else:
                break
    run = 0
    for e in list(nl):
        run = 0 if e.kind == ELEMENT else run + 1
        if run > 2 * width:
            nl.delete(e)
            run -= 1
    nl.validate()
    sups = list(_superbuckets(nl))
    buckets = [b for sup in sups for b in sup.buckets]
    assert sum(len(sup.buckets) == nl.base for sup in sups) >= 0.9 * len(sups)
    assert sum(len(b.entries) == nl.base for b in buckets) >= 0.9 * len(buckets)

    order = list(nl)
    elements = [e for e in order if e.kind == ELEMENT]
    nl.max_examined = 0
    seen = 0  # elements before the current entry
    for e in order:
        after = seen + (e.kind == ELEMENT)
        assert nl.nearest_element_left(e) == (elements[seen - 1] if seen else None)
        assert nl.nearest_element_right(e) == (
            elements[after] if after < len(elements) else None)
        seen = after
    assert nl.max_examined <= 6


def test_deepcopy_and_pickle_a_long_list():
    # a w=64 reporter's list at 2^14 keys: about 3 entries per key, so a
    # superbucket chain of some 200 links.  A copy must not recurse along
    # that chain or from an entry through its bucket into the whole list,
    # and it owns its entries: changing it leaves the original as it was
    rng = random.Random(79)
    nl, last, kinds = NavList(64), None, []
    for i in range(3 << 14):
        kind = rng.choice((ELEMENT, OPEN, CLOSE))
        last = put_after(nl, last, ENTRY[kind](i))
        kinds.append((kind, i))
    nl.validate()
    for c in (copy.deepcopy(nl), pickle.loads(pickle.dumps(nl))):
        c.validate()
        entries = list(c)
        assert [(e.kind, e.value) for e in entries] == kinds
        assert not {id(e) for e in entries} & {id(e) for e in nl}
        e = entries[len(entries) // 2]
        assert c.nearest_element_right(e).value == next(
            value for kind, value in kinds[e.value + 1:] if kind == ELEMENT)
        for e in entries[::2]:
            c.delete(e)
        c.validate()
    # a shallow copy would share the entries, each of which knows its bucket
    with pytest.raises(TypeError):
        copy.copy(nl)
    nl.validate()
    assert [(e.kind, e.value) for e in nl] == kinds
