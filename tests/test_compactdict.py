import random

import pytest

from wordram.compactdict import SmallDict
from wordram.perfecthash import PerfectHashConfig


def test_vacancy_lowest_slot_policy():
    d = SmallDict(12, 8, summary_block=4)
    assert [d.insert(k) for k in range(10, 14)] == [0, 1, 2, 3]
    d.delete(11)
    assert d.insert(20) == 1
    d.delete(10)
    d.delete(13)
    assert d.insert(21) == 0
    assert d.insert(22) == 3
    assert d.insert(23) == 4


def test_vacancy_oracle_replay():
    # the phash-churn bucket: 358 slots in 23 blocks of 16, 10 padding bits
    cfg = PerfectHashConfig.create(1 << 16, 64)
    assert (cfg.bucket_capacity, cfg.summary_block) == (358, 16)
    for capacity, block in ((cfg.bucket_capacity, cfg.summary_block), (64, 8)):
        rng = random.Random(8)
        d = SmallDict(capacity, cfg.bucket_key_bits, summary_block=block)
        naive = [None] * capacity  # key held by each slot
        live: list[int] = []
        for i in range(100_000):
            # phases that fill and drain the dictionary in turn
            p = 0.55 if i // 5000 % 2 == 0 else 0.45
            if len(live) < capacity and (rng.random() < p or not live):
                slot = d.insert(i)
                assert slot == naive.index(None)
                naive[slot] = i
                live.append(i)
            else:
                j = rng.randrange(len(live))
                key = live[j]
                live[j] = live[-1]
                live.pop()
                slot = d.lookup(key)
                assert naive[slot] == key
                d.delete(key)
                naive[slot] = None
            assert len(d) == len(live)
            if i % 100 == 0:
                # summary bit b is set exactly when block b's slots are all taken
                blocks = range(0, capacity, block)
                full = [None not in naive[b:b + block] for b in blocks]
                assert d._full == sum(f << j for j, f in enumerate(full))


def test_vacancy_errors():
    for block in (0, -1):
        with pytest.raises(ValueError):
            SmallDict(4, 4, summary_block=block)
    d = SmallDict(4, 4, summary_block=2)
    with pytest.raises(KeyError):
        d.delete(0)
    for k in range(4):
        d.insert(k)
    with pytest.raises(ValueError, match="bucket full"):
        d.insert(9)
    d.delete(2)
    with pytest.raises(KeyError):
        d.delete(2)
    assert d.insert(9) == 2


@pytest.mark.parametrize("capacity,key_bits,block",
                         [(4, 4, 1), (12, 8, 4), (64, 12, 8), (100, 10, 7), (5, 4, 8),
                          (358, 36, 16)])
def test_space_bits_match_slot_array_layout(capacity, key_bits, block):
    # header, occupancy vector (capacity + n_blocks bits), occupied slots' keys
    d = SmallDict(capacity, key_bits, summary_block=block)
    occupancy = capacity + -(-capacity // block)
    for n in range(3):
        assert d.space_bits() == 64 + occupancy + n * key_bits
        d.insert(n)
    d.delete(1)
    assert d.space_bits() == 64 + occupancy + 2 * key_bits


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
    # a full dictionary stays within a packed array of (key, value) fields
    capacity, key_bits = 64, 12
    d = SmallDict(capacity, key_bits, summary_block=8)
    value_bits = (capacity - 1).bit_length()
    bound = capacity * (key_bits + value_bits) + capacity + 64 + 64
    keys = [5, 99, 2048]
    slots = [d.insert(k) for k in keys]
    for k, s in zip(keys, slots):
        assert d.lookup(k) == s
    for k in range(3000, 3000 + capacity - len(keys)):
        before = d.space_bits()
        d.insert(k)
        assert d.space_bits() == before + key_bits
    assert len(d) == capacity and d.space_bits() <= bound


def test_capacity_zero_refuses_first_insert():
    # capacity and key width are not clamped: a spill interval of size 0
    # is a SmallDict that is full from the start
    d = SmallDict(0, 64, summary_block=8)
    assert d.capacity == 0 and d.key_bits == 64
    assert d.space_bits() == 64
    with pytest.raises(ValueError, match="bucket full"):
        d.insert(1 << 63)
    assert len(d) == 0
    tiny = SmallDict(1, 1, summary_block=4)
    assert tiny.insert(1) == 0
    with pytest.raises(ValueError, match="bucket full"):
        tiny.insert(0)
    with pytest.raises(ValueError):
        SmallDict(-1, 4)
