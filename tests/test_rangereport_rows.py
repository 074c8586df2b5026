"""The index rule's per-depth rows against the loop they replace."""

import copy
import pickle
import random

import pytest

import ruleloop
from test_rangereport import change_shapes, deep_key, rule_args
from test_rangereport_plan import heap_size
from wordram.navlist import Element
from wordram.rangereport import _ROWS, RangeConfig, RangeReporter
from wordram.wordops import VALID_WIDTHS

# core and 5a read the rows; 5b keeps its own loop
CONFIGS = [("core", 2), ("5a", 2), ("5a", 4), ("5a", 8)]


def reporter(width, variant, branch, **kw):
    return RangeReporter(RangeConfig(width=width, branch=branch, variant=variant, **kw))


def checked_rule(rr):
    """Wrap rr's index rule so that every call checks its three lists, in
    order, against the oracle's; returns counts of the calls below the
    root whose y is a lone key and a node, the rule's two loops."""
    calls = {"lone": 0, "node": 0}
    rule = rr._index_changes

    def checked(xc, d_v, y, a_depth, a_real):
        got = rule(xc, d_v, y, a_depth, a_real)
        assert got == ruleloop.index_changes(rr, xc, d_v, y, a_depth, a_real), (
            xc, d_v, a_depth, a_real)
        if y is not None and d_v:
            calls["lone" if type(y) is Element else "node"] += 1
        return got

    rr._index_changes = checked
    return calls


@pytest.mark.parametrize("width", [16, 64])
@pytest.mark.parametrize("variant,branch", CONFIGS)
@pytest.mark.parametrize("keys", ["uniform", "deep"])
def test_rows_give_the_loops_lists_on_a_churn(width, variant, branch, keys):
    # a churn of inserts and deletes: every rule call returns the loop's
    # lists in the loop's order, which the Bloomier filter's write order
    # depends on, and the index and the writes end alike
    rng = random.Random(width * 7 + branch)
    draw = ((lambda: rng.getrandbits(width)) if keys == "uniform"
            else (lambda: deep_key(rng, width)))
    rr = reporter(width, variant, branch, capacity=1024, seed=3)
    calls = checked_rule(rr)
    live = []
    for _ in range(3000):
        if len(live) < 300 or rng.random() < 0.5:
            x = draw()
            if rr.insert(x):
                live.append(x)
        else:
            x = live.pop(rng.randrange(len(live)))
            assert rr.delete(x)
    rr.check()
    assert calls["lone"] > 500 and calls["node"] > 100, calls


@pytest.mark.parametrize("width", [8, 16, 32])
@pytest.mark.parametrize("variant,branch", CONFIGS)
def test_rows_give_the_loops_lists_on_every_shape(width, variant, branch):
    # every argument tuple of the rule, up to x's bits
    rng = random.Random(width + branch)
    rr = reporter(width, variant, branch, capacity=4)
    shapes = 0
    for shape in change_shapes(rng, rr):
        args = rule_args(rr, *shape)
        assert rr._index_changes(*args) == ruleloop.index_changes(rr, *args), shape
        shapes += 1
    assert shapes == {8: 121, 16: 817, 32: 5985}[width]


def test_rows_are_shared_per_width_and_branch():
    # core and 5a at one branch read one table, whichever reporter fills it
    core = reporter(64, "core", 2, capacity=4)
    fast = reporter(64, "5a", 2, capacity=4)
    other = reporter(64, "5a", 8, capacity=4)
    assert core._rows is fast._rows is _ROWS[64, 2][0]
    assert other._rows is not core._rows
    for d_v in range(64):
        assert fast._rule_rows(d_v) is core._rule_rows(d_v)


@pytest.mark.parametrize("width", VALID_WIDTHS)
def test_rows_are_interned_and_small(width):
    # with every depth built the interning dict is empty, equal rows are
    # one object, and a table holds at most 20 KB
    for branch in (2, 4, 8, 16):
        if branch > width:
            continue
        rr = reporter(width, "5a", branch, capacity=4)
        rows = [rr._rule_rows(d_v) for d_v in range(width)]
        table, interned = _ROWS[width, branch]
        assert table is rr._rows and table == rows and not interned
        distinct = {id(row) for depth in rows for row in depth}
        assert len(distinct) == len({row for depth in rows for row in depth})
        assert all(len(depth) == rr.top for depth in rows)
        assert heap_size(table) <= 20 * 1024, (width, branch, heap_size(table))


@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 8)])
def test_copies_carry_no_rows(variant, branch):
    # the rows are shared, not state: a copy or a pickle binds the shared
    # table again and goes on updating as the reporter it copies would
    rng = random.Random(31)
    keys = [rng.getrandbits(64) for _ in range(600)]
    more = [rng.getrandbits(64) for _ in range(200)]

    def built():
        rr = reporter(64, variant, branch, capacity=2048, seed=5)
        for x in keys:
            rr.insert(x)
        return rr

    rr = built()
    assert "_rows" not in rr.__getstate__()
    assert sum(depth is not None for depth in rr._rows) > 5
    size = len(pickle.dumps(rr))
    for d_v in range(64):
        rr._rule_rows(d_v)
    assert len(pickle.dumps(rr)) == size
    for c in (copy.deepcopy(rr), pickle.loads(pickle.dumps(rr))):
        assert c._rows is rr._rows
        twin = built()
        for s in (c, twin):
            for x in keys[::3]:
                assert s.delete(x)
            for x in more:
                s.insert(x)
        assert c.dump() == twin.dump()
        assert c.index.writes == twin.index.writes
        assert c.index.snapshot() == twin.index.snapshot()
