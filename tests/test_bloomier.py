import math
import random

import pytest

from wordram.bloomier import BloomierConfig, BloomierFilter


def make(n=1 << 12, u_bits=32, r=8, eps=2**-6, seed=0):
    return BloomierFilter(BloomierConfig.create(n, u_bits, r, eps), seed)


def find_hash_collision(bf: BloomierFilter, seed: int) -> tuple[int, int]:
    """Two distinct keys the filter's hash sends to the same image."""
    rng = random.Random(seed)
    seen: dict[int, int] = {}
    while True:
        x = rng.randrange(1 << bf.config.universe_bits)
        hx = bf._hash(x)
        if hx in seen and seen[hx] != x:
            return seen[hx], x
        seen[hx] = x


def test_config_hash_range():
    cfg = BloomierConfig.create(1 << 12, 32, 8, 2**-6)
    # max(n lg(u/n), n/eps) rounded up to a power of two
    assert cfg.hash_range == 1 << 18
    assert cfg.hash_range >= cfg.max_items
    spread = (1 << 12) * math.log2((1 << 32) / (1 << 12))
    assert cfg.hash_range >= spread
    with pytest.raises(ValueError):
        BloomierConfig.create(1 << 12, 12, 8, 2**-6)  # universe below 2n
    with pytest.raises(ValueError):
        BloomierConfig.create(1 << 12, 32, 8, 0.0)


def test_hashed_key_width_beats_full_keys():
    cfg = BloomierConfig.create(1 << 12, 64, 8, 2**-6)
    assert cfg.hash_range_bits < 64


def test_stored_key_contract():
    bf = make()
    bf.insert(42, 7)
    assert bf.lookup(42) == 7
    bf.delete(42)
    assert bf.lookup(42) == 0  # nothing else stored, so no collision possible


def test_value_validation_and_capacity():
    bf = make(n=4)
    with pytest.raises(ValueError):
        bf.insert(1, 0)
    with pytest.raises(ValueError):
        bf.insert(1, 1 << 8)
    for i in range(4):
        bf.insert(i, 1)
    with pytest.raises(ValueError):
        bf.insert(99, 1)


def test_collision_pair_routes_to_exact_dictionary():
    bf = make(seed=77)
    x, y = find_hash_collision(bf, seed=5)
    bf.insert(x, 3)
    bf.insert(y, 9)
    assert len(bf._exact) == 1
    assert bf.lookup(x) == 3
    assert bf.lookup(y) == 9
    bf.delete(x)
    assert bf.lookup(y) == 9  # survivor of the colliding pair stays exact
    bf2 = make(seed=77)
    bf2.insert(x, 3)
    bf2.insert(y, 9)
    bf2.delete(y)
    assert bf2.lookup(x) == 3


def test_live_count_follows_held_entries_tiny_range():
    # two items over an 8-bit universe hash into a 16-slot range
    bf = make(n=2, u_bits=8, eps=1.0, seed=3)
    assert bf.config.hash_range_bits == 4
    x, y = find_hash_collision(bf, seed=3)
    third = next(k for k in range(3) if k not in (x, y))
    for first, second in ((x, y), (y, x)):
        bf.insert(first, 1)
        bf.insert(second, 2)
        assert len(bf._exact) == len(bf._hashed) == 1
        assert bf.live_count == 2
        with pytest.raises(ValueError):
            bf.insert(third, 1)  # at capacity
        bf.delete(first)
        assert bf.live_count == 1 and bf.lookup(second) == 2
        bf.delete(second)
        assert bf.live_count == 0 and not bf._exact and not bf._hashed


def test_oracle_replay_no_stored_key_errors():
    bf = make(seed=11)
    rng = random.Random(11)
    shadow: dict[int, int] = {}
    for _ in range(10_000):
        if shadow and (rng.random() < 0.4 or len(shadow) >= bf.config.max_items):
            x = rng.choice(list(shadow))
            bf.delete(x)
            del shadow[x]
        else:
            x = rng.randrange(1 << 32)
            if x in shadow:
                continue
            v = rng.randrange(1, 256)
            bf.insert(x, v)
            shadow[x] = v
        if rng.random() < 0.02:
            for k, v in shadow.items():
                assert bf.lookup(k) == v
    for k, v in shadow.items():
        assert bf.lookup(k) == v


def test_lookup_on_empty_filter_is_zero():
    bf = make()
    rng = random.Random(1)
    assert all(bf.lookup(rng.randrange(1 << 32)) == 0 for _ in range(1000))


def test_false_positive_rate_bounded():
    bf = make(seed=2)
    rng = random.Random(2)
    keys: set[int] = set()
    while len(keys) < bf.config.max_items:
        keys.add(rng.randrange(1 << 32))
    for k in keys:
        bf.insert(k, 1)
    hits = probes = 0
    while probes < 200_000:
        x = rng.randrange(1 << 32)
        if x in keys:
            continue
        probes += 1
        hits += bf.lookup(x) != 0
    assert hits / probes <= 1.5 * bf.config.error_rate


def test_space_accounting():
    bf = make()
    empty = bf.space_bits()
    bf.insert(9, 1)
    assert bf.space_bits() > empty
    cfg = bf.config
    per_hashed = cfg.hash_range_bits + cfg.value_bits
    assert bf.space_bits() == empty + per_hashed


def test_batch_over_capacity_writes_nothing():
    bf = make(n=4)
    bf.insert_all([1, 2], 1)
    exact, hashed = dict(bf._exact), dict(bf._hashed)
    # the batch would pass capacity at its third key, so none is written
    with pytest.raises(ValueError):
        bf.insert_all([3, 4, 5], 1)
    with pytest.raises(ValueError):
        bf.insert_all([3], 0)
    assert bf._exact == exact and bf._hashed == hashed
    bf.insert_all([3, 4], 2)
    assert bf.live_count == 4 and bf.lookup(4) == 2


def test_batches_match_per_key_updates():
    # x and y collide; the second of them to arrive is stored verbatim
    x, y = find_hash_collision(make(seed=77), seed=5)
    rng = random.Random(9)
    others = [rng.randrange(1 << 32) for _ in range(6)]
    steps = [
        ("insert_all", [x, *others[:3], y], 3),
        ("replace_all", [others[0], y], 5),
        ("delete_all", [others[1], x], None),
        # y's collision partner is gone, so its replace moves it back from
        # the verbatim dictionary into the hashed one
        ("replace_all", [y, others[2]], 6),
        ("insert_all", others[3:], 2),
        ("delete_all", [others[4], y], None),
    ]
    batched, single = make(seed=77), make(seed=77)
    for step, (method, keys, value) in enumerate(steps):
        args = () if value is None else (value,)
        getattr(batched, method)(keys, *args)
        for key in keys:
            getattr(single, method.removesuffix("_all"))(key, *args)
        assert batched._exact == single._exact
        assert list(batched._hashed.items()) == list(single._hashed.items())
        assert batched.space_bits() == single.space_bits()
        if step == 0:
            assert list(batched._exact) == [y]
        if step == 3:
            assert not batched._exact and batched.lookup(y) == 6
    assert batched.live_count == 4


def test_depth_reader_agrees_with_lookup():
    # the one-call read gives lookup - 1, or None where lookup gives 0, for
    # stored, absent and verbatim keys alike
    bf = make(seed=77)
    read = bf.depth_reader()
    x, y = find_hash_collision(bf, seed=5)
    rng = random.Random(12)
    stored = {rng.randrange(1 << 32): rng.randrange(1, 1 << 8) for _ in range(500)}
    stored.pop(x, None)
    stored.pop(y, None)
    for key, value in stored.items():
        bf.insert(key, value)
    bf.insert(x, 1)
    bf.insert(y, 200)
    assert y in bf._exact  # y's hash image is x's, so y is stored verbatim
    absent = [rng.randrange(1 << 32) for _ in range(2000)]
    for key in [*stored, x, y, *absent]:
        raw = bf.lookup(key)
        assert read(key) == (raw - 1 if raw else None), key
    assert read(x) == 0 and read(y) == 199
    # the reader sees later updates: the dictionaries change in place
    bf.delete(x)
    assert read(x) is None and read(y) == 199
    bf.replace(y, 7)
    assert read(y) == 6 and not bf._exact
