"""findany's per-depth probe plans against the search loop they replace."""

import copy
import itertools
import math
import pickle
import random
import sys
import threading
from bisect import bisect_left, bisect_right

import pytest

import searchloop
from test_rangereport import deep_key
from wordram.rangereport import (
    _READ,
    _REUSE_DOWN,
    _REUSE_UP,
    _PLANS,
    BACKEND_BLOOMIER,
    BACKEND_EXACT,
    RangeConfig,
    RangeReporter,
)
from wordram.wordops import VALID_WIDTHS, top_order


def configs(width):
    """core:2, and 5a and 5b at every power-of-two branch up to width."""
    yield "core", 2
    for variant in ("5a", "5b"):
        for lg_b in range(1, width.bit_length()):
            yield variant, 1 << lg_b


def reporter(width, variant, branch, **kw):
    return RangeReporter(RangeConfig(width=width, branch=branch, variant=variant, **kw))


def plan_paths(node, outcomes=()):
    """(outcomes, probes, leaf) for every root-to-leaf path of a plan; a
    probe is (code, kc, end, reuse)."""
    if node[0] is None:
        yield outcomes, [], node
        return
    code, kc, end, reuse, fail, pass_ = node
    for outcome, child in ((False, fail), (True, pass_)):
        for path, probes, leaf in plan_paths(child, outcomes + (outcome,)):
            yield path, [(code, kc, end, reuse), *probes], leaf


def follow_loop(rr, v_d, outcomes):
    """The loop's probes along an outcome path, each (code, kc, end, reuse,
    token), where a token numbers the read whose descendant the test uses;
    then lo, the tokens of up and down, the counts and the outcomes used."""
    outcomes = list(outcomes)
    probes, used = [], []
    state = {"read": None, "up": None, "down": None}

    def probe(t, k):
        state["read"] = token = len([p for p in probes if p[3] == _READ])
        state["code"] = rr._codes[t][k]
        return token

    def branches(token, kc, end):
        if state["read"] is not None:
            reuse = _READ
        else:
            reuse = _REUSE_UP if token == state["up"] else _REUSE_DOWN
            assert token == state["up" if reuse == _REUSE_UP else "down"]
        code = state["code"] if reuse == _READ else rr._codes[0][kc]
        probes.append((code, kc, end, reuse, token))
        state["read"] = None
        outcome = outcomes[len(used)]
        used.append(outcome)
        state["up" if outcome else "down"] = token
        return outcome

    lo, up, down, tests, passes, reads = searchloop.search(rr, v_d, probe, branches)
    return probes, lo, up, down, tests, passes, reads, tuple(used)


def follow_plan(plan, outcomes):
    """The plan's probes along an outcome path, numbered as follow_loop
    numbers them, with its leaf and the tokens of up and down."""
    node, probes, up, down = plan, [], None, None
    reads = 0
    for outcome in outcomes:
        code, kc, end, reuse, fail, pass_ = node
        if reuse == _READ:
            token, reads = reads, reads + 1
        else:
            token = up if reuse == _REUSE_UP else down
        probes.append((code, kc, end, reuse, token))
        if outcome:
            up, node = token, pass_
        else:
            down, node = token, fail
    assert node[0] is None
    return probes, node, up, down


@pytest.mark.parametrize("width", VALID_WIDTHS)
def test_plans_follow_the_search_loop(width):
    # every plan names, on every outcome path, the loop's probes, reuses,
    # lo, test counts and 5a walk, and leaves up and down on the same reads
    for variant, branch in configs(width):
        rr = reporter(width, variant, branch, capacity=4)
        lg_top = math.ceil(math.log2(rr.top))
        for v_d in range(1, width):
            plan = rr._plans[v_d] or rr._plan(v_d)
            paths = list(plan_paths(plan))
            for outcomes, plan_probes, leaf in paths:
                probes, lo, up, down, tests, passes, reads, used = follow_loop(rr, v_d, outcomes)
                assert used == outcomes, (variant, branch, v_d, outcomes)
                got, plan_leaf, plan_up, plan_down = follow_plan(plan, outcomes)
                assert plan_leaf is leaf
                assert [p[:4] for p in got] == plan_probes
                assert got == probes, (variant, branch, v_d, outcomes)
                assert (plan_up, plan_down) == (up, down)
                _, l_tests, l_passes, l_reads, lo_is_1, walk = leaf
                assert (l_tests, l_passes, l_reads) == (tests, passes, reads)
                assert lo_is_1 == (lo == 1)
                assert walk == tuple(searchloop.walk_codes(rr, v_d, lo))
            # the loop takes no path the plan lacks
            loop_paths = {follow_loop(rr, v_d, bits)[-1]
                          for bits in itertools.product((False, True), repeat=lg_top)}
            assert loop_paths == {outcomes for outcomes, _, _ in paths}
        # the root's depth is never searched: its record always exists
        assert rr._plans[0] is None


@pytest.mark.parametrize("width", VALID_WIDTHS)
def test_plans_bound_every_query_without_running_one(width):
    # the deepest path makes ceil(lg top) branching tests, and the path
    # that reads most reads that many plus 1 (core, 5b) or branch - 1 (5a):
    # the lg lg w bound, read off the plans for every depth
    for variant, branch in configs(width):
        rr = reporter(width, variant, branch, capacity=4)
        lg_top = math.ceil(math.log2(top_order(width, branch)))
        resolution = branch - 1 if variant != "5b" else 1
        most_tests = most_reads = 0
        for v_d in range(1, width):
            for _, probes, leaf in plan_paths(rr._plans[v_d] or rr._plan(v_d)):
                _, tests, passes, reads, lo_is_1, walk = leaf
                assert reads == sum(p[3] == _READ for p in probes)
                assert passes <= tests
                most_tests = max(most_tests, tests)
                most_reads = max(most_reads, reads + lo_is_1 + len(walk))
        assert most_tests == lg_top, (variant, branch)
        assert most_reads == lg_top + resolution, (variant, branch, most_reads)


def heap_size(root):
    """Bytes of the objects reachable from root through lists and tuples,
    each counted once; None, bools and cached small ints are shared."""
    seen, total, todo = set(), 0, [root]
    while todo:
        obj = todo.pop()
        if (id(obj) in seen or obj is None or type(obj) is bool
                or type(obj) is int and -5 <= obj <= 256):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if type(obj) in (list, tuple):
            todo.extend(obj)
    return total


@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 8), ("5b", 4)])
def test_plan_tables_are_shared_and_small(variant, branch):
    # one table per (width, branch, variant), whichever reporter fills it;
    # with every depth built, the interning dict is empty and the table
    # holds at most 16 KB at w=64
    first = reporter(64, variant, branch, capacity=4)
    second = reporter(64, variant, branch, capacity=4)
    for v_d in range(1, 64):
        assert second._plan(v_d) is first._plan(v_d)
    assert first._plans is second._plans
    plans, nodes = _PLANS[64, branch, variant]
    assert plans is first._plans and not nodes
    assert heap_size(plans) + sys.getsizeof(nodes) <= 16 * 1024


def deep_stream(rng, width, n_keys, n_ops):
    """n_keys deep keys to insert, then n_ops ops: inserts and deletes of
    deep keys and short queries around live or deep keys."""
    keys = set()
    while len(keys) < n_keys:
        keys.add(deep_key(rng, width))
    live = sorted(keys)
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.1:
            ops.append(("insert", deep_key(rng, width)))
        elif roll < 0.2:
            ops.append(("delete", rng.choice(live)))
        else:
            x = rng.choice(live) if rng.random() < 0.5 else deep_key(rng, width)
            d = int(2.0 ** rng.uniform(0, min(width - 8, 16)))
            ops.append(("query", max(x - d, 0), min(x + d, (1 << width) - 1)))
    return sorted(keys), ops


@pytest.mark.parametrize("width,variant,branch", [
    (64, "core", 2), (64, "5a", 8), (64, "5b", 4), (16, "5a", 16), (16, "5b", 16),
    (32, "5a", 4),
])
@pytest.mark.parametrize("backend", [BACKEND_EXACT, BACKEND_BLOOMIER])
def test_findany_matches_the_search_loop(width, variant, branch, backend):
    # the plan and the loop give the same answers and the same counters:
    # index reads, the three query maxima and the navigation list's
    rng = random.Random(width * 31 + branch)
    plan_rr, loop_rr = (reporter(width, variant, branch, backend=backend, capacity=4096,
                                 seed=5) for _ in range(2))
    keys, ops = deep_stream(rng, width, 1500, 6000)
    for x in keys:
        plan_rr.insert(x)
        loop_rr.insert(x)
    shadow = list(keys)
    searched = 0
    for op, *args in ops:
        if op == "query":
            a, b = args
            reads = plan_rr.index.reads
            got = plan_rr.findany(a, b)
            assert searchloop.findany(loop_rr, a, b) == got, (a, b)
            searched += plan_rr.index.reads > reads
            want = shadow[bisect_left(shadow, a):bisect_right(shadow, b)]
            assert got in want if want else got is None, (a, b)
        elif op == "insert":
            if plan_rr.insert(args[0]):
                assert loop_rr.insert(args[0])
                shadow.insert(bisect_left(shadow, args[0]), args[0])
        elif plan_rr.delete(args[0]):
            assert loop_rr.delete(args[0])
            shadow.remove(args[0])
        assert plan_rr.index.reads == loop_rr.index.reads
    assert searched > 500
    for field in ("max_test_branching", "max_nav_queries", "max_index_reads_query",
                  "max_index_writes_insert", "max_index_writes_delete"):
        assert getattr(plan_rr.stats, field) == getattr(loop_rr.stats, field), field
    assert plan_rr.nav.max_examined == loop_rr.nav.max_examined
    assert plan_rr.dump() == loop_rr.dump()
    if backend == BACKEND_EXACT:
        assert plan_rr.index.snapshot() == loop_rr.index.snapshot()


@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 8), ("5b", 4)])
def test_branching_totals_match_a_recount(variant, branch):
    # stats totals the branching tests of every searched query, and the
    # passing ones, from the plan's leaves: recount both by replaying the
    # paper's binary search with test_branching
    rng = random.Random(17)
    rr = reporter(64, variant, branch, capacity=4096, seed=17)
    keys, ops = deep_stream(rng, 64, 2000, 4000)
    for x in keys:
        rr.insert(x)
    tests = passes = 0
    for op, *args in ops:
        if op != "query":
            continue
        a, b = args
        rr.findany(a, b)
        v_d = 64 - (a ^ b).bit_length()
        if rr._enc(v_d, a >> (64 - v_d)) in rr.table:
            continue
        lo, hi = 1, rr.top
        while lo < hi:
            mid = (lo + hi) // 2
            k = v_d // rr._chunks[mid]
            tests += 1
            if rr.test_branching(mid, k, a >> (64 - k * rr._chunks[mid])):
                passes += 1
                hi = mid
            else:
                lo = mid + 1
    assert tests > 2000 and 0 < passes < tests
    assert (rr.stats.total_test_branching, rr.stats.total_test_branching_true) == (tests, passes)


def zero_counters(rr):
    """Reset the counters a query moves, so two reporters with the same
    keys pickle alike."""
    for name in ("max_test_branching", "max_nav_queries", "max_index_reads_query",
                 "total_test_branching", "total_test_branching_true"):
        setattr(rr.stats, name, 0)
    rr.index.reads = rr.nav.max_examined = rr._q_nav = 0


@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 8)])
def test_copies_carry_no_plan(variant, branch):
    # the plans are shared, not state: a copy or a pickle of a queried
    # reporter answers alike, looks the table up again, and is no larger
    # than one of a reporter that never searched
    rng = random.Random(23)
    keys, ops = deep_stream(rng, 64, 1000, 2000)
    queried, fresh = (reporter(64, variant, branch, capacity=2048, seed=3) for _ in range(2))
    for x in keys:
        queried.insert(x)
        fresh.insert(x)
    queries = [args for op, *args in ops if op == "query"]
    want = [queried.findany(a, b) for a, b in queries]
    assert sum(plan is not None for plan in queried._plans) > 10
    assert not any(fresh._plans)
    for c in (copy.deepcopy(queried), pickle.loads(pickle.dumps(queried))):
        assert not any(c._plans)
        assert [c.findany(a, b) for a, b in queries] == want
        assert c._plans is queried._plans
    assert "_plans" not in queried.__getstate__()
    zero_counters(queried)
    zero_counters(fresh)
    assert len(pickle.dumps(queried)) <= len(pickle.dumps(fresh))


def test_threads_fill_one_table_alike():
    # reporters on several threads race to fill one configuration's table
    # with a short switch interval: every answer matches the sorted keys,
    # and the table ends equal to one that a single thread built
    key = (32, 16, "5a")
    saved = _PLANS.pop(key, None)
    try:
        solo = reporter(32, "5a", 16, capacity=4)
        expected = [None] + [solo._plan(v_d) for v_d in range(1, 32)]
        del _PLANS[key]
        rng = random.Random(29)
        keys, ops = deep_stream(rng, 32, 400, 1200)
        queries = [args for op, *args in ops if op == "query"]
        errors = []

        def run(seed):
            try:
                rr = reporter(32, "5a", 16, capacity=1024, seed=seed)
                for x in keys:
                    rr.insert(x)
                for a, b in queries:
                    want = keys[bisect_left(keys, a):bisect_right(keys, b)]
                    got = rr.findany(a, b)
                    if not (got in want if want else got is None):
                        errors.append((seed, a, b, got))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        plans, _ = _PLANS[key]
        assert all(plans[v_d] is None or plans[v_d] == expected[v_d] for v_d in range(32))
        assert sum(plan is not None for plan in plans) > 10
    finally:
        if saved is not None:
            _PLANS[key] = saved
        else:
            _PLANS.pop(key, None)
