import dataclasses
import random

import pytest

from wordram.perfecthash import PerfectHash, PerfectHashConfig, RebuildRequired


def make(n=1 << 12, u_bits=64, seed=0):
    return PerfectHash(PerfectHashConfig.create(n, u_bits), seed)


def test_config_parameters():
    cfg = PerfectHashConfig.create(1 << 14, 64)
    assert cfg.bucket_count == 84
    assert cfg.bucket_capacity == 278
    assert cfg.bucket_key_bits == 36  # (6 + 2c) lglg u with c = 0
    assert cfg.spill_capacity == 8 * ((1 << 14) // 64)
    assert cfg.range_size == cfg.bucket_count * cfg.bucket_capacity + cfg.spill_capacity
    # small-n clamps
    tiny = PerfectHashConfig.create(8, 16)
    assert tiny.bucket_capacity >= 16 and tiny.bucket_count >= 1


def test_single_insert_lands_in_bucket_range():
    ph = make()
    value, inserted = ph.insert(12345)
    assert inserted
    assert value < ph.config.bucket_range  # empty buckets cannot collide
    assert ph.evaluate(12345) == value


def test_injectivity_random_bulk():
    n = 1 << 12
    ph = make(n=n, seed=6)
    rng = random.Random(6)
    seen: dict[int, int] = {}
    while len(seen) < n:
        x = rng.randrange(1 << 64)
        if x in seen:
            continue
        value, inserted = ph.insert(x)
        assert inserted
        seen[x] = value
    values = list(seen.values())
    assert len(set(values)) == len(values)
    assert all(0 <= v < ph.config.range_size for v in values)
    for x, v in seen.items():
        assert ph.evaluate(x) == v


def test_mixed_ops_against_shadow_map():
    n = 1 << 10
    ph = make(n=n, seed=9)
    rng = random.Random(9)
    shadow: dict[int, int] = {}
    for _ in range(3 * n):
        if shadow and (rng.random() < 0.4 or len(shadow) >= n):
            x = rng.choice(list(shadow))
            assert ph.delete(x)
            del shadow[x]
        else:
            x = rng.randrange(1 << 64)
            if x in shadow:
                continue
            value, inserted = ph.insert(x)
            assert inserted
            shadow[x] = value
        values = list(shadow.values())
        assert len(set(values)) == len(values)
    for x, v in shadow.items():
        assert ph.evaluate(x) == v
    assert not ph.delete(1 << 63 | 12345) or True  # absent delete only flags


def test_absent_delete_flags_false():
    ph = make()
    assert not ph.delete(777)


def test_reduction_collision_spills():
    # a small capacity keeps the reduced width low enough to construct two
    # keys with the same reduced image for the fixed seed by birthday search
    ph = make(n=16, u_bits=32, seed=4)
    rng = random.Random(4)
    seen: dict[int, int] = {}
    pair = None
    while pair is None:
        x = rng.randrange(1 << 32)
        image = ph._reduce(x)
        if image in seen and seen[image] != x:
            pair = (seen[image], x)
        seen[image] = x
    a, b = pair
    ph.insert(a)
    value, inserted = ph.insert(b)
    assert inserted
    assert value >= ph.config.bucket_range  # second of the pair spills
    assert ph.evaluate(a) != ph.evaluate(b)


def test_spill_overflow_raises_rebuild_required():
    # with no spill interval, the first key that cannot enter its bucket
    # (bucket full or colliding) must surface as an explicit rebuild error
    cfg = dataclasses.replace(PerfectHashConfig.create(64, 32), spill_capacity=0)
    ph = PerfectHash(cfg, 4)
    assert ph.config.spill_capacity == 0
    rng = random.Random(4)
    seen = set()
    with pytest.raises(RebuildRequired):
        while True:
            x = rng.randrange(1 << 32)
            if x in seen or ph._route(x)[0] != 1:
                continue
            seen.add(x)
            ph.insert(x)
    assert len(seen) <= ph.config.bucket_capacity + 1


def test_rebuild_reinserts_live_keys():
    ph = make(n=64, u_bits=32, seed=1)
    keys = random.Random(1).sample(range(1 << 32), 40)
    for k in keys:
        ph.insert(k)
    fresh = ph.rebuild(keys, seed=2)
    values = [fresh.evaluate(k) for k in keys]
    assert len(set(values)) == len(values)


def test_value_stability_until_delete():
    ph = make(seed=3)
    v1, _ = ph.insert(999)
    for _ in range(50):
        ph.insert(random.Random(3).randrange(1 << 64))
    assert ph.evaluate(999) == v1
    ph.delete(999)
    v2, _ = ph.insert(999)  # may differ after reinsertion
    assert ph.evaluate(999) == v2


def test_space_bits_monotone_and_components():
    ph = make(n=1 << 10)
    empty = ph.space_bits()
    assert empty > 0
    last = empty
    rng = random.Random(0)
    for _ in range(100):
        ph.insert(rng.randrange(1 << 64))
        now = ph.space_bits()
        assert now >= last
        last = now
