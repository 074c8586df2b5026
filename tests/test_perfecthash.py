import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

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
    assert not ph.delete(1 << 63 | 12345)


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
            if x in seen or ph._route(x)[0] != 0:
                continue
            seen.add(x)
            ph.insert(x)
    assert len(seen) <= ph.config.bucket_capacity + 1


def spill_forcing_keys(ph, rng, buckets):
    """Endless distinct random keys that route to one of `buckets`, found
    with the structure's own route: fed to insert, they fill those buckets
    and then the spill."""
    seen = set()
    while True:
        key = rng.getrandbits(ph.config.universe_bits)
        if key not in seen and ph._route(key)[0] in buckets:
            seen.add(key)
            yield key


def test_spill_fills_at_full_size():
    # at capacity 2**16 over 64-bit keys, random keys never reach the spill
    # in bulk; keys that route to four chosen buckets overflow them and
    # then fill the spill's 8,192 slots
    ph = make(n=1 << 16, u_bits=64, seed=5)
    cfg = ph.config
    rng = random.Random(5)
    stream = spill_forcing_keys(ph, rng, set(rng.sample(range(cfg.bucket_count), 4)))
    values = {}
    for key in stream:
        b, short = ph._route(key)
        bucket = ph._buckets[b]
        spills = len(bucket) == cfg.bucket_capacity or short in bucket.slot_of
        if spills and len(ph._spill) == cfg.spill_capacity:
            # RebuildRequired fires exactly when a key must spill into a
            # full spill, and changes nothing
            with pytest.raises(RebuildRequired):
                ph.insert(key)
            refused = key
            break
        value, inserted = ph.insert(key)
        assert inserted and (value >= cfg.bucket_range) == spills
        values[key] = value
    assert len(ph._spill) == ph.spill_peak == cfg.spill_capacity
    assert ph.live_count == len(values) < cfg.capacity
    # values stay injective and in range
    assert len(set(values.values())) == len(values)
    assert all(0 <= v < cfg.range_size for v in values.values())
    assert all(ph.evaluate(key) == v for key, v in values.items())
    # spilled keys delete, which makes room for the refused key, and
    # reinsert, into the spill again as their buckets are still full
    spilled = [key for key, v in values.items() if v >= cfg.bucket_range]
    gone = rng.sample(spilled, 100)
    for key in gone:
        assert ph.delete(key)
        del values[key]
    value, inserted = ph.insert(refused)
    assert inserted and value >= cfg.bucket_range
    values[refused] = value
    for key in gone[1:]:
        value, inserted = ph.insert(key)
        assert inserted and value >= cfg.bucket_range
        values[key] = value
    with pytest.raises(RebuildRequired):
        ph.insert(gone[0])
    assert len(set(values.values())) == len(values) == ph.live_count
    assert all(ph.evaluate(key) == v for key, v in values.items())
    # a rebuild under a fresh seed scatters the live keys over every bucket
    # and serves inserts again
    fresh = ph.rebuild(list(values), seed=6)
    assert fresh.live_count == len(values) and fresh.spill_peak < cfg.spill_capacity
    value, inserted = fresh.insert(gone[0])
    assert inserted
    values = {key: fresh.evaluate(key) for key in [*values, gone[0]]}
    assert len(set(values.values())) == len(values)
    assert all(0 <= v < cfg.range_size for v in values.values())


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


def shared_routes(ph, u_bits):
    """Groups of two or more keys in [0, 2^u_bits) sharing (bucket, short
    key), computed from the hash objects, lowest keys first."""
    groups: dict[tuple[int, int], list[int]] = {}
    for x in range(1 << u_bits):
        r = ph._reduce(x)
        b = ph._family.bucket_of(r)
        groups.setdefault((b, ph._family.member(b)(r)), []).append(x)
    return sorted((g for g in groups.values() if len(g) > 1), key=lambda g: g[0])


@pytest.mark.parametrize("capacity,u_bits", [
    (8, 16), (64, 32), (512, 32), (1 << 12, 40), (1 << 14, 64), (1 << 16, 64),
    (1 << 16, 128), (1 << 17, 128),
])
def test_route_agrees_with_hash_objects(capacity, u_bits):
    # the one-frame kernel computes the reduction, the selector and the
    # bucket's member hash from their bound terms; it must give what the
    # hash objects give, with the bucket 0-based.  (1 << 17, 128) reduces
    # keys to 67 bits, nine byte tables, so its high block runs
    cfg = PerfectHashConfig.create(capacity, u_bits)
    ph = PerfectHash(cfg, capacity)
    assert (ph._hi is not None) == (cfg.reduced_bits > 64)
    rng = random.Random(u_bits)
    keys = [0, (1 << u_bits) - 1] + [rng.randrange(1 << u_bits) for _ in range(2000)]
    for key in keys:
        r = ph._reduce(key)
        b = ph._family.bucket_of(r)
        assert ph._route(key) == (b - 1, ph._family.member(b)(r)), key


def test_delete_of_absent_key_sharing_a_route_removes_the_live_key():
    # delete is for live keys only: it cannot tell an absent key from the
    # live key whose (bucket, short key) it shares
    ph = make(n=64, u_bits=16, seed=1)
    live, absent = shared_routes(ph, 16)[0][:2]
    ph.insert(live)
    assert ph.delete(absent)
    assert ph.live_count == 0
    assert not ph.delete(live)


def test_copies_evaluate_alike_and_stay_independent():
    # the kernel's terms are plain attributes, so a deep copy and an
    # unpickled structure route on their own state
    ph = make(n=256, u_bits=16, seed=8)
    rng = random.Random(8)
    pair = shared_routes(ph, 16)[0][:2]
    keys = pair + [x for x in rng.sample(range(1 << 16), 200) if x not in pair]
    want = {x: ph.insert(x)[0] for x in keys}
    assert ph._spill.lookup(pair[1]) is not None  # the spill is copied too
    probes = keys + [rng.randrange(1 << 16) for _ in range(500)]
    copies = [copy.deepcopy(ph), pickle.loads(pickle.dumps(ph))]
    for c in copies:
        # the hot path's spill map is the copy's own spill's map
        assert c._spilled is c._spill.slot_of and c._spilled is not ph._spilled
        assert [c.evaluate(x) for x in probes] == [ph.evaluate(x) for x in probes]
        assert c.space_bits() == ph.space_bits() and c.spill_peak == ph.spill_peak
    for x in keys:
        assert ph.delete(x)
    assert ph.live_count == 0
    first, second = copies
    for x in keys:
        assert first.evaluate(x) == want[x]
        assert first.delete(x)
    for x in keys:
        assert second.evaluate(x) == want[x]
    assert second.live_count == len(keys) and first.live_count == 0


def spilled_keys(ph, u_bits, count):
    """Insert the first two keys of `count` shared-route groups; returns the
    second key of each, which the first's bucket slot sends to the spill."""
    out = []
    for group in shared_routes(ph, u_bits)[:count]:
        ph.insert(group[0])
        value, inserted = ph.insert(group[1])
        assert inserted and value >= ph.config.bucket_range
        out.append(group[1])
    return out


def test_spill_reuses_its_lowest_vacant_slot():
    # the spill hands out slots as a bucket does, lowest vacant first,
    # whatever order they were freed in
    ph = make(n=64, u_bits=16, seed=1)
    base = ph.config.bucket_range
    a, b, c = spilled_keys(ph, 16, 3)
    assert [ph.evaluate(x) - base for x in (a, b, c)] == [0, 1, 2]
    assert ph.delete(a) and ph.delete(b)
    # a's route-mate still holds their bucket slot, so a spills again
    value, inserted = ph.insert(a)
    assert inserted and value == base
    assert ph.evaluate(c) == base + 2 and len(ph._spill) == 2


def test_spilling_one_key_costs_its_universe_bits():
    # a spilled key is stored whole; its slot is implied by the spill's
    # occupancy vector, which is accounted whether or not a key is spilled
    ph = make(n=64, u_bits=16, seed=1)
    live, mate = shared_routes(ph, 16)[0][:2]
    ph.insert(live)
    before = ph.space_bits()
    value, _ = ph.insert(mate)
    assert value >= ph.config.bucket_range
    assert ph.space_bits() - before == ph.config.universe_bits
    ph.delete(mate)
    assert ph.space_bits() == before


STATEFUL_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
    stateful_step_count=60,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_matches_dict_oracle():
    # at u_bits=16 bucket keys are short, so keys sharing a route are
    # common; drawing some keys from such groups sends many inserts down
    # the spill path; a spill interval of 4 fills up, so RebuildRequired
    # is raised too
    cfg = dataclasses.replace(PerfectHashConfig.create(64, 16), spill_capacity=4)
    sharing = [x for g in shared_routes(PerfectHash(cfg, 1), 16)[:12] for x in g]
    keys = st.one_of(st.integers(0, (1 << 16) - 1), st.sampled_from(sharing))

    class PerfectHashMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.ph = PerfectHash(cfg, 1)
            self.model: dict[int, int] = {}

        @rule(x=keys)
        def insert(self, x):
            if x in self.model:
                return  # callers insert absent keys only
            if len(self.model) >= cfg.capacity:
                with pytest.raises(ValueError):
                    self.ph.insert(x)
                return
            # the key spills when its bucket is full or holds its short key
            b, short = self.ph._route(x)
            bucket = self.ph._buckets[b]
            spills = short in bucket.slot_of or len(bucket) == cfg.bucket_capacity
            spill_full = len(self.ph._spill) == cfg.spill_capacity
            try:
                value, inserted = self.ph.insert(x)
            except RebuildRequired:
                assert spills and spill_full
                return
            assert not (spills and spill_full)
            assert inserted and 0 <= value < cfg.range_size
            assert (value >= cfg.bucket_range) == spills
            self.model[x] = value

        @precondition(lambda self: self.model)
        @rule(data=st.data())
        def delete(self, data):
            x = data.draw(st.sampled_from(sorted(self.model)))
            assert self.ph.delete(x)
            del self.model[x]

        @rule(x=keys)
        def evaluate(self, x):
            value = self.ph.evaluate(x)
            assert 0 <= value < cfg.range_size
            if x in self.model:
                assert value == self.model[x]

        @invariant()
        def values_injective_and_stable(self):
            assert len(set(self.model.values())) == len(self.model)
            for x, value in self.model.items():
                assert self.ph.evaluate(x) == value

        @invariant()
        def counts(self):
            assert self.ph.live_count == len(self.model)
            assert self.ph.spill_peak >= len(self.ph._spill)
            # spilled keys hold distinct slots of the spill interval
            slots = list(self.ph._spill.slot_of.values())
            assert len(set(slots)) == len(slots)
            assert all(0 <= slot < cfg.spill_capacity for slot in slots)

    run_state_machine_as_test(PerfectHashMachine, settings=STATEFUL_SETTINGS)
