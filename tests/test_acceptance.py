"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria retry on up to three fresh seeds before failing, since
their guarantees are high-probability statements, not per-seed certainties.
Each timed criterion asserts its own wall-clock budget.
"""

import json
import math
import random
import subprocess
import sys
import time
from bisect import bisect_left, insort

import pytest

from wordram.bloomier import BloomierConfig, BloomierFilter
from wordram.gtgame import (
    QUERY_HEAVY,
    STRATEGIES,
    UPDATE_HEAVY,
    BitMemory,
    GreaterThanScheme,
    sweep,
)
from wordram.perfecthash import PerfectHash, PerfectHashConfig
from wordram.rangereport import RangeConfig, RangeReporter
from wordram.wordops import top_order


def _passline(n: int, detail: str) -> None:
    print(f"CRITERION {n}: PASS ({detail})")


def _oracle_empty(shadow, a, b):
    i = bisect_left(shadow, a)
    return i >= len(shadow) or shadow[i] > b


def _next_table(shadow, universe):
    nxt = [universe] * (universe + 1)
    j = len(shadow) - 1
    for v in range(universe - 1, -1, -1):
        if j >= 0 and shadow[j] == v:
            nxt[v] = v
            j -= 1
        else:
            nxt[v] = nxt[v + 1]
    return nxt


def _audited_small_run(width, branch, variant, backend, seed, ops,
                       queries_per_op, all_pairs_every):
    """Criterion-1 style run; returns mismatch count (must end up zero)."""
    rr = RangeReporter(RangeConfig(
        width=width, branch=branch, variant=variant, backend=backend,
        audit=True, capacity=1024, seed=seed,
    ))
    rng = random.Random(seed)
    shadow: list[int] = []
    universe = 1 << width
    mismatches = 0
    for step in range(ops):
        if not shadow or rng.random() < 0.6:
            x = rng.randrange(universe)
            if rr.insert(x):
                insort(shadow, x)
        else:
            x = shadow[rng.randrange(len(shadow))]
            rr.delete(x)
            shadow.pop(bisect_left(shadow, x))
        for _ in range(queries_per_op):
            a = rng.randrange(universe)
            b = rng.randrange(universe)
            if a > b:
                a, b = b, a
            got = rr.findany(a, b)
            if got is None:
                mismatches += not _oracle_empty(shadow, a, b)
            else:
                mismatches += not (a <= got <= b and got in rr)
        if all_pairs_every and step % all_pairs_every == 0:
            nxt = _next_table(shadow, universe)
            findany = rr.findany
            for a in range(universe):
                first = nxt[a]
                for b in range(a, universe):
                    got = findany(a, b)
                    if got is None:
                        mismatches += first <= b
                    else:
                        mismatches += not (a <= got <= b)
    return rr, mismatches


def test_criterion_1_exhaustive_small_universe():
    start = time.monotonic()
    total = 0
    for backend, seeds in (("exact", range(10)), ("bloomier", range(10, 20))):
        for seed in seeds:
            _, mism = _audited_small_run(
                8, 2, "core", backend, seed, ops=200,
                queries_per_op=300, all_pairs_every=20,
            )
            total += mism
    elapsed = time.monotonic() - start
    assert total == 0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _passline(1, f"20 seeds across both backends, 0 mismatches, {elapsed:.1f}s")


class _Criterion2Run:
    result = None

    @classmethod
    def get(cls):
        if cls.result is None:
            rr = RangeReporter(RangeConfig(
                width=64, variant="core", backend="bloomier",
                capacity=1 << 17, seed=20260809,
            ))
            rng = random.Random(20260809)
            shadow: list[int] = []
            universe = 1 << 64
            mismatches = 0
            start = time.monotonic()
            for _ in range(100_000):
                if not shadow or rng.random() < 0.6:
                    x = rng.randrange(universe)
                    if rr.insert(x):
                        insort(shadow, x)
                else:
                    x = shadow[rng.randrange(len(shadow))]
                    rr.delete(x)
                    shadow.pop(bisect_left(shadow, x))
                a = rng.randrange(universe)
                b = rng.randrange(universe)
                if a > b:
                    a, b = b, a
                got = rr.findany(a, b)
                if got is None:
                    mismatches += not _oracle_empty(shadow, a, b)
                else:
                    mismatches += not (a <= got <= b and got in rr)
            cls.result = (rr, mismatches, time.monotonic() - start)
        return cls.result


def test_criterion_2_large_word_equivalence():
    rr, mismatches, elapsed = _Criterion2Run.get()
    assert mismatches == 0
    assert elapsed < 15, f"criterion 2 took {elapsed:.1f}s"
    _passline(2, f"1e5 mixed ops at w=64, 0 mismatches, {elapsed:.1f}s")


def test_criterion_3_query_cost_envelope():
    rr, _, _ = _Criterion2Run.get()
    st = rr.stats
    assert st.max_test_branching <= 5
    assert st.max_nav_queries <= 4
    assert st.pred_queries_during_query == 0
    _passline(3, f"test_branching<={st.max_test_branching}, nav<={st.max_nav_queries}, pred=0")


def test_criterion_4_update_cost_envelope():
    rr, _, _ = _Criterion2Run.get()
    budget = 4 * (6 + 1)
    assert rr.stats.max_index_writes_insert <= budget
    _passline(4, f"max insert writes {rr.stats.max_index_writes_insert} <= {budget}")


def test_criterion_5_tradeoff_variants():
    report = []
    for variant in ("5a", "5b"):
        for branch in (4, 8):
            for backend in ("exact", "bloomier"):
                _, mism = _audited_small_run(
                    8, branch, variant, backend, seed=5, ops=200,
                    queries_per_op=100, all_pairs_every=50,
                )
                assert mism == 0, (variant, branch, backend)
            rr = RangeReporter(RangeConfig(
                width=64, branch=branch, variant=variant, backend="bloomier",
                capacity=1 << 17, seed=50 + branch,
            ))
            rng = random.Random(50 + branch)
            shadow: list[int] = []
            universe = 1 << 64
            mismatches = 0
            for _ in range(100_000):
                if not shadow or rng.random() < 0.6:
                    x = rng.randrange(universe)
                    if rr.insert(x):
                        insort(shadow, x)
                else:
                    x = shadow[rng.randrange(len(shadow))]
                    rr.delete(x)
                    shadow.pop(bisect_left(shadow, x))
                a = rng.randrange(universe)
                b = rng.randrange(universe)
                if a > b:
                    a, b = b, a
                got = rr.findany(a, b)
                if got is None:
                    mismatches += not _oracle_empty(shadow, a, b)
                else:
                    mismatches += not (a <= got <= b and got in rr)
            assert mismatches == 0, (variant, branch)
            top = top_order(64, branch)
            if variant == "5a":
                budget = math.ceil(math.log2(top + 1)) + branch + 2
                assert rr.stats.max_index_reads_query <= budget, (variant, branch)
                report.append(f"5a B={branch} reads<={rr.stats.max_index_reads_query}/{budget}")
            else:
                budget = 4 * branch * top
                assert rr.stats.max_index_writes_insert <= budget, (variant, branch)
                report.append(f"5b B={branch} writes<={rr.stats.max_index_writes_insert}/{budget}")
    _passline(5, "; ".join(report))


def test_criterion_6_greater_than():
    start = time.monotonic()
    for branch in (2, 4, 16):
        for strategy in STRATEGIES:
            rows = sweep(256, [branch], [strategy], trials=0, seed=0, exhaustive=True)
            assert rows[0].correct and rows[0].pairs == 65536, (branch, strategy)
    n = 1 << 16
    scheme_q = GreaterThanScheme(n, 16, QUERY_HEAVY)
    scheme_u = GreaterThanScheme(n, 16, UPDATE_HEAVY)
    rng = random.Random(6)
    wq_max = rq_max = wu_max = ru_max = 0
    for _ in range(20_000):
        a, b = rng.randrange(n), rng.randrange(n)
        mem = BitMemory()
        writes = scheme_q.update(mem, a)
        assert writes == 4  # exactly one bit per level
        answer, reads = scheme_q.query(mem, b)
        assert answer == (b > a)
        wq_max, rq_max = max(wq_max, writes), max(rq_max, reads)
        mem = BitMemory()
        writes = scheme_u.update(mem, a)
        answer, reads = scheme_u.query(mem, b)
        assert answer == (b > a)
        wu_max, ru_max = max(wu_max, writes), max(ru_max, reads)
    assert rq_max <= 18
    assert wu_max <= 64
    assert ru_max <= 4
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"criterion 6 took {elapsed:.1f}s"
    _passline(6, f"exhaustive 3x2 clean; Tq<=({rq_max},{ru_max}) Tu<=({wq_max},{wu_max}), {elapsed:.1f}s")


def _criterion7_attempt(seed):
    n, u_bits, r, eps = 1 << 12, 32, 8, 2**-6
    bf = BloomierFilter(BloomierConfig.create(n, u_bits, r, eps), seed)
    rng = random.Random(seed)
    keys: dict[int, int] = {}
    while len(keys) < n:
        x = rng.randrange(1 << u_bits)
        if x not in keys:
            v = rng.randrange(1, 1 << r)
            keys[x] = v
            bf.insert(x, v)
    key_list = list(keys)
    stored_errors = 0
    for i in range(10**6):
        k = key_list[i % n]
        stored_errors += bf.lookup(k) != keys[k]
    hits = probes = 0
    while probes < 10**6:
        x = rng.randrange(1 << u_bits)
        if x in keys:
            continue
        probes += 1
        hits += bf.lookup(x) != 0
    return bf, stored_errors, hits / probes


def test_criterion_7_bloomier_filter():
    start = time.monotonic()
    eps = 2**-6
    for attempt in range(3):
        bf, stored_errors, fp = _criterion7_attempt(700 + attempt)
        assert stored_errors == 0  # one-sided correctness is not statistical
        if fp <= 1.5 * eps:
            break
    else:
        pytest.fail("false-positive rate above 1.5x epsilon on 3 seeds")
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"criterion 7 took {elapsed:.1f}s"
    test_criterion_7_bloomier_filter.bf = bf
    _passline(7, f"0 stored-key errors, fp={fp:.5f} <= {1.5 * eps:.5f}, {elapsed:.1f}s")


def _criterion8_attempt(seed):
    n, u_bits = 1 << 14, 64
    cfg = PerfectHashConfig.create(n, u_bits)
    ph = PerfectHash(cfg, seed)
    rng = random.Random(seed)
    live: dict[int, int] = {}
    values = set()
    for _ in range(3 * n):
        if live and (rng.random() < 0.34 or len(live) >= n):
            x = next(iter(live)) if rng.random() < 0.01 else rng.choice(list(live))
            ph.delete(x)
            values.discard(live.pop(x))
        else:
            x = rng.randrange(1 << u_bits)
            if x in live:
                continue
            value, inserted = ph.insert(x)
            assert inserted
            if value in values:
                return ph, cfg, False
            values.add(value)
            live[x] = value
    for x, v in live.items():
        if ph.evaluate(x) != v:
            return ph, cfg, False
    return ph, cfg, True


def test_criterion_8_perfect_hashing():
    start = time.monotonic()
    n, u_bits = 1 << 14, 64
    spill_budget = 4 * math.ceil(n / u_bits)
    for attempt in range(3):
        ph, cfg, injective = _criterion8_attempt(800 + attempt)
        assert injective  # injectivity is structural, never statistical
        if ph.spill_peak <= spill_budget:
            break
    else:
        pytest.fail("spill peak above budget on 3 seeds")
    range_budget = n * (1 + 2 / 14 ** (1 / 3)) + 8 * math.ceil(n / u_bits)
    assert cfg.range_size <= range_budget
    elapsed = time.monotonic() - start
    assert elapsed < 20, f"criterion 8 took {elapsed:.1f}s"
    test_criterion_8_perfect_hashing.ph = ph
    _passline(8, f"injective, range {cfg.range_size} <= {range_budget:.0f}, "
                 f"spill {ph.spill_peak} <= {spill_budget}, {elapsed:.1f}s")


def test_criterion_9_space_accounting():
    bf = getattr(test_criterion_7_bloomier_filter, "bf", None)
    if bf is None:
        bf, errors, _ = _criterion7_attempt(700)
        assert errors == 0
    n, u_bits, r, eps = 1 << 12, 32, 8, 2**-6
    bloom_bound = 8 * n * (
        math.log2(math.log2((1 << u_bits) / n)) + math.log2(1 / eps) + r
    )
    assert bf.space_bits() <= bloom_bound
    c_bloom = bf.space_bits() / (bloom_bound / 8)

    ph = getattr(test_criterion_8_perfect_hashing, "ph", None)
    if ph is None:
        ph, _, injective = _criterion8_attempt(800)
        assert injective
    n_ph = 1 << 14
    ph_bound = 8 * n_ph * math.log2(64)
    assert ph.space_bits() <= ph_bound
    c_ph = ph.space_bits() / (ph_bound / 8)
    _passline(9, f"bloomier C={c_bloom:.2f}<=8, perfecthash C={c_ph:.2f}<=8")


def test_criterion_10_determinism():
    run = [sys.executable, "-m", "wordram.cli"]
    commands = [
        ["oracle-fuzz", "--w", "8", "--ops", "100", "--audit", "--seed", "12"],
        ["probe-bench", "--n", "4096", "--B", "2,16", "--trials", "500",
         "--seed", "12", "--format", "csv"],
        ["fp-rate", "--n", "256", "--u-bits", "24", "--trials", "20000",
         "--seed", "12"],
        ["perfect-hash-demo", "--n", "512", "--u-bits", "32", "--seed", "12"],
        ["space-report", "--n", "512", "--u-bits", "32", "--seed", "12"],
    ]
    for cmd in commands:
        first = subprocess.run(run + cmd, capture_output=True, timeout=120)
        second = subprocess.run(run + cmd, capture_output=True, timeout=120)
        assert first.returncode == second.returncode == 0, cmd
        assert first.stdout == second.stdout, cmd
        json.loads(first.stdout) if "--format" not in cmd else None
    _passline(10, f"{len(commands)} subcommands byte-identical on rerun")
