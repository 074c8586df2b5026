import math

import pytest

from wordram import gtgame
from wordram.gtgame import (
    QUERY_HEAVY,
    STRATEGIES,
    UPDATE_HEAVY,
    BitMemory,
    GreaterThanScheme,
    probe_bounds,
    sweep,
)


def play(scheme: GreaterThanScheme, a: int, b: int) -> tuple[bool, int, int]:
    mem = BitMemory()
    writes = scheme.update(mem, a)
    answer, reads = scheme.query(mem, b)
    return answer, writes, reads


def test_query_heavy_write_count_is_levels():
    scheme = GreaterThanScheme(16, 2, QUERY_HEAVY)
    for a in range(16):
        mem = BitMemory()
        assert scheme.update(mem, a) == 4


def test_update_heavy_leftmost_path_writes_no_siblings():
    scheme = GreaterThanScheme(16, 2, UPDATE_HEAVY)
    mem = BitMemory()
    assert scheme.update(mem, 0) == 4


def test_update_heavy_sibling_count_by_construction():
    scheme = GreaterThanScheme(16, 4, UPDATE_HEAVY)
    mem = BitMemory()
    # value 15 has digits (3, 3): two path bits plus three left siblings each
    assert scheme.update(mem, 15) == 2 + 3 * 2


def test_equal_values_answer_false():
    for strategy in STRATEGIES:
        scheme = GreaterThanScheme(64, 4, strategy)
        for a in (0, 17, 63):
            answer, _, _ = play(scheme, a, a)
            assert answer is False


@pytest.mark.parametrize("branch", [2, 4, 16, 64])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_exhaustive_small_domain(branch, strategy):
    n = 256
    scheme = GreaterThanScheme(n, branch, strategy)
    wb, rb = probe_bounds(n, branch, strategy)
    for a in range(n):
        mem = BitMemory()
        writes = scheme.update(mem, a)
        assert writes <= wb
        for b in range(n):
            answer, reads = scheme.query(mem, b)
            assert answer == (b > a), (branch, strategy, a, b)
            assert reads <= rb


def test_probe_bound_formulas():
    # query-heavy: levels writes, search + siblings reads
    assert probe_bounds(1 << 16, 16, QUERY_HEAVY) == (4, 3 + 15)
    # update-heavy: levels * branch writes, search + 1 reads
    assert probe_bounds(1 << 16, 16, UPDATE_HEAVY) == (64, 4)
    assert probe_bounds(1 << 16, 2, UPDATE_HEAVY) == (32, math.ceil(math.log2(17)) + 1)
    # exact powers of the branch take no extra level: n = B**3 has 3 levels,
    # which float logarithms overcount (math.log(125, 5) > 3)
    for n, branch in ((125, 5), (216, 6)):
        assert GreaterThanScheme(n, branch, QUERY_HEAVY).levels == 3
        assert probe_bounds(n, branch, QUERY_HEAVY) == (3, 2 + (branch - 1))
        assert probe_bounds(n, branch, UPDATE_HEAVY) == (3 * branch, 2 + 1)


def test_range_and_reuse_errors():
    scheme = GreaterThanScheme(16, 2, QUERY_HEAVY)
    mem = BitMemory()
    with pytest.raises(ValueError):
        scheme.update(mem, 16)
    scheme.update(mem, 3)
    with pytest.raises(ValueError):
        scheme.update(mem, 4)
    with pytest.raises(ValueError):
        scheme.query(mem, 99)


def test_degenerate_single_level():
    n = 16
    scheme = GreaterThanScheme(n, n, QUERY_HEAVY)
    assert scheme.levels == 1
    wb, rb = probe_bounds(n, n, QUERY_HEAVY)
    assert wb == 1 and rb == 1 + (n - 1)
    for a in (0, 7, 15):
        for b in (0, 7, 15):
            answer, _, _ = play(scheme, a, b)
            assert answer == (b > a)


def test_sweep_rows_and_asserted_bounds():
    rows = sweep(1 << 12, [2, 16], STRATEGIES, trials=2000, seed=5)
    assert len(rows) == 4
    for row in rows:
        assert row.correct
        assert row.write_max <= row.write_bound
        assert row.read_max <= row.read_bound
        assert row.pairs == 2000


@pytest.mark.parametrize("bounds,message", [((0, 0), "write bound violated"),
                                            ((1 << 20, 0), "read bound violated")],
                         ids=["write", "read"])
def test_sweep_bound_breach_raises_under_python_O(monkeypatch, bounds, message):
    # the probe bounds are checked by ensure, which -O does not strip
    monkeypatch.setattr(gtgame, "probe_bounds", lambda n, branch, strategy: bounds)
    with pytest.raises(AssertionError, match=message):
        sweep(1 << 8, [2], STRATEGIES, trials=50, seed=5)
