import random

import pytest

from wordram.hashing import (
    BucketHashFamily,
    MultiplyShiftHash,
    TabulationHash,
    derive_seed,
)


def test_determinism_across_instances():
    a = MultiplyShiftHash(1234, 64, 20)
    b = MultiplyShiftHash(1234, 64, 20)
    rng = random.Random(0)
    for _ in range(10_000):
        x = rng.getrandbits(64)
        assert a(x) == b(x)


def test_output_width_and_zero_defined():
    h = MultiplyShiftHash(7, 32, 32)
    rng = random.Random(1)
    for _ in range(1000):
        assert h(rng.getrandbits(32)) < 1 << 32
    assert 0 <= h(0) < 1 << 32
    assert h(5) == h(5)


def test_invalid_widths():
    with pytest.raises(ValueError):
        MultiplyShiftHash(0, 16, 17)
    with pytest.raises(ValueError):
        MultiplyShiftHash(0, 16, 0)


def test_collision_rate_monte_carlo():
    # pairwise collisions over random distinct pairs stay near 2^-out
    out_bits = 12
    h = MultiplyShiftHash(99, 48, out_bits)
    rng = random.Random(99)
    collisions = 0
    trials = 10**6
    for _ in range(trials):
        x = rng.getrandbits(48)
        y = rng.getrandbits(48)
        if x != y and h(x) == h(y):
            collisions += 1
    assert collisions / trials <= 4 / (1 << out_bits)


def test_chi_square_sanity_over_w8_domain():
    h = MultiplyShiftHash(5, 8, 4)
    counts = [0] * 16
    for x in range(256):
        counts[h(x)] += 1
    expected = 256 / 16
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 60  # generous df=15 ceiling; catches a broken family only


def test_representation_bits():
    h = MultiplyShiftHash(3, 64, 16)
    assert h.representation_bits() == 2 * (64 + 16)
    assert h.representation_bits() <= 8 * 64  # O(word) seeds


def test_tabulation_range_and_determinism():
    t1 = TabulationHash(11, 58, 84)
    t2 = TabulationHash(11, 58, 84)
    rng = random.Random(2)
    seen = set()
    for _ in range(5000):
        x = rng.getrandbits(58)
        v = t1(x)
        assert 1 <= v <= 84
        assert v == t2(x)
        seen.add(v)
    assert len(seen) == 84  # all buckets reachable at this sample size


def test_bucket_family_members_independent():
    fam = BucketHashFamily(21, 40, 8, 16)
    xs = [random.Random(3).getrandbits(40) for _ in range(50)]
    outputs = {i: tuple(fam.member(i)(x) for x in xs) for i in range(1, 9)}
    # distinct seeds give distinct functions
    assert len(set(outputs.values())) == 8
    for i in range(1, 9):
        assert all(v < 1 << 16 for v in outputs[i])
    assert fam.representation_bits() > 0


def test_derive_seed_spreads():
    base = 42
    derived = {derive_seed(base, i) for i in range(1000)}
    assert len(derived) == 1000
