import random

import pytest

from wordram.navlist import CLOSE, ELEMENT, OPEN, NavList


def naive_nearest(mirror, idx, want_kind, direction):
    step = -1 if direction == "left" else 1
    j = idx
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
            if i == 0:
                h = nl.insert_first(kind, value=step)
            else:
                h = nl.insert_after(mirror[i - 1][0], kind, value=step)
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
    # merged bucket transiently larger than the split threshold; the packed
    # permutation must still address every slot (regression: w=32 overflow)
    nl = NavList(width)
    handles = []
    last = None
    for i in range(6 * nl.cap):
        last = nl.insert_first(ELEMENT, value=i) if last is None else nl.insert_after(
            last, ELEMENT, value=i
        )
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
    h_open = nl.insert_first(OPEN, value=0)
    assert nl.nearest_element_left(h_open) is None
    assert nl.nearest_element_right(h_open) is None
    h_el = nl.insert_after(h_open, ELEMENT, value=5)
    h_close = nl.insert_after(h_el, CLOSE, value=12)
    assert nl.nearest_element_left(h_close) == h_el
    assert nl.nearest_element_right(h_open) == h_el
    # querying at an element returns the element itself
    assert nl.nearest_element_left(h_el) == h_el
    assert nl.nearest_element_right(h_el) == h_el
    assert nl.n_elements == 1


def test_delete_sole_entry_empties_structure():
    nl = NavList(8)
    h = nl.insert_first(ELEMENT, value=1)
    nl.delete(h)
    assert len(nl) == 0
    assert list(nl) == []
    h2 = nl.insert_first(ELEMENT, value=2)
    assert list(nl) == [h2]


def test_invalid_handles():
    # a deleted entry is a stale handle: using it raises, and leaves the
    # structure as it was
    nl = NavList(8)
    h = nl.insert_first(OPEN)
    stale = nl.insert_after(h, ELEMENT, value=1)
    nl.delete(stale)
    with pytest.raises(KeyError):
        nl.delete(stale)
    with pytest.raises(KeyError):
        nl.insert_after(stale, ELEMENT)
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
        last = nl.insert_first(kind, value=i) if last is None else nl.insert_after(
            last, kind, value=i
        )
        handles.append(last)
    nl.max_examined = 0
    for h in rng.sample(handles, 2000):
        nl.nearest_element_left(h)
        nl.nearest_element_right(h)
    assert nl.max_examined <= 6
