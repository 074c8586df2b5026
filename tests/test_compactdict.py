import random

import pytest

from wordram.compactdict import SmallDict, VacancyTracker


def test_vacancy_lowest_slot_policy():
    vt = VacancyTracker(12, 4)
    assert [vt.alloc() for _ in range(4)] == [0, 1, 2, 3]
    vt.free(1)
    assert vt.alloc() == 1
    vt.free(0)
    vt.free(3)
    assert vt.alloc() == 0
    assert vt.alloc() == 3
    assert vt.alloc() == 4


def test_vacancy_oracle_replay():
    rng = random.Random(8)
    vt = VacancyTracker(64, 8)
    naive = [False] * 64
    for _ in range(100_000):
        if vt.free_count and (rng.random() < 0.55 or all(naive)):
            slot = vt.alloc()
            want = naive.index(False)
            assert slot == want
            naive[slot] = True
        else:
            used = [i for i, b in enumerate(naive) if b]
            if not used:
                continue
            slot = rng.choice(used)
            vt.free(slot)
            naive[slot] = False
        assert vt.free_count == naive.count(False)


def test_vacancy_errors():
    vt = VacancyTracker(4, 2)
    with pytest.raises(ValueError):
        vt.free(0)
    for _ in range(4):
        vt.alloc()
    with pytest.raises(ValueError):
        vt.alloc()


def test_smalldict_slot_examples():
    d = SmallDict(8, 8)
    assert d.insert(10) == 0
    assert d.insert(20) == 1
    assert d.insert(30) == 2
    d.delete(20)
    assert d.insert(40) == 1  # freed slot is reused first
    assert d.lookup(10) == 0 and d.lookup(40) == 1
    assert d.lookup(20) is None


def test_smalldict_capacity_and_errors():
    d = SmallDict(4, 4)
    for k in range(4):
        d.insert(k)
    with pytest.raises(ValueError, match="bucket full"):
        d.insert(9)
    d.delete(0)
    with pytest.raises(ValueError, match="duplicate"):
        d.insert(1)
    d2 = SmallDict(4, 4)
    d2.insert(3)
    with pytest.raises(ValueError, match="duplicate"):
        d2.insert(3)
    with pytest.raises(KeyError):
        d2.delete(7)
    d2.delete(3)
    with pytest.raises(KeyError):
        d2.delete(3)


def test_smalldict_oracle_replay():
    rng = random.Random(13)
    d = SmallDict(32, 10)
    ref: dict[int, int] = {}
    for _ in range(10_000):
        key = rng.randrange(1 << 10)
        if key in ref:
            if rng.random() < 0.5:
                assert d.lookup(key) == ref[key]
            else:
                d.delete(key)
                del ref[key]
        elif len(ref) < 32 and rng.random() < 0.7:
            ref[key] = d.insert(key)
        else:
            assert d.lookup(key) is None
        assert len(d) == len(ref)
        values = sorted(ref.values())
        assert values == sorted(set(values))  # slots stay distinct


def test_space_bits_bound_and_packing():
    capacity, key_bits = 64, 12
    d = SmallDict(capacity, key_bits, summary_block=8)
    got = d.space_bits()
    value_bits = (capacity - 1).bit_length()
    bound = capacity * (key_bits + value_bits) + capacity + 64 + 64
    assert got <= bound
    keys = [5, 99, 2048]
    slots = [d.insert(k) for k in keys]
    for k, s in zip(keys, slots):
        assert d.lookup(k) == s
    assert d.occupied_space_bits() <= d.space_bits()


def test_parameter_clamps():
    d = SmallDict(1, 1)
    assert d.capacity == 4 and d.key_bits == 4
