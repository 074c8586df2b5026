"""Stateful property test: a RangeReporter against a sorted list.

Hypothesis drives insert, delete, findany and report on every variant and
index backend at small widths, and at w=64 on keys that branch at every
depth, with the structural audit on after every update and query bounds
drawn past both ends of the universe.
"""

from bisect import bisect_left, bisect_right

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from wordram.rangereport import BACKENDS, RangeConfig, RangeReporter

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=20,
    stateful_step_count=30,
    suppress_health_check=[HealthCheck.too_slow],
)


DEEP_BASE = 0x9E3779B97F4A7C15  # any fixed 64-bit word

# DEEP_BASE with a random-length random suffix: two such keys diverge at any
# depth, where uniform keys rarely branch below about 2 lg n
DEEP_KEYS_W64 = st.integers(0, 64).flatmap(
    lambda k: st.integers(0, (1 << k) - 1).map(lambda s: DEEP_BASE >> k << k | s))


def _machine(config: RangeConfig, near=None):
    """near draws the keys, uniform ones by default, and some bounds."""
    universe = 1 << config.width
    edges = st.sampled_from([0, 1, universe - 2, universe - 1])
    if near is None:
        near = st.integers(0, universe - 1)
    keys = st.one_of(near, edges)
    # bounds reach a whole universe past either end, and often sit at an edge
    bounds = st.one_of(st.integers(-universe, 2 * universe), edges,
                       st.sampled_from([-1, universe]), near)

    class RangeMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.rr = RangeReporter(config)
            self.model: list[int] = []

        @initialize(xs=st.lists(keys, max_size=24))
        def fill(self, xs):
            for x in xs:
                self.insert(x)

        @rule(x=keys)
        def insert(self, x):
            i = bisect_left(self.model, x)
            fresh = i == len(self.model) or self.model[i] != x
            assert self.rr.insert(x) == fresh
            if fresh:
                self.model.insert(i, x)

        @precondition(lambda self: self.model)
        @rule(data=st.data())
        def delete_present(self, data):
            x = data.draw(st.sampled_from(self.model))
            assert self.rr.delete(x)
            self.model.remove(x)

        @rule(x=keys)
        def delete_any(self, x):
            present = x in self.model
            assert self.rr.delete(x) == present
            if present:
                self.model.remove(x)

        @rule(a=bounds, b=bounds)
        def findany(self, a, b):
            if a > b:
                with pytest.raises(ValueError):
                    self.rr.findany(a, b)
                return
            got = self.rr.findany(a, b)
            inside = self.model[bisect_left(self.model, a):bisect_right(self.model, b)]
            if inside:
                assert got in inside
            else:
                assert got is None

        @rule(a=bounds, b=bounds)
        def report(self, a, b):
            if a > b:
                a, b = b, a
            want = self.model[bisect_left(self.model, a):bisect_right(self.model, b)]
            assert list(self.rr.report(a, b)) == want

        @rule(x=keys)
        def point_query(self, x):
            want = x if x in self.model else None
            assert self.rr.findany(x, x) == want

        @invariant()
        def same_set(self):
            assert self.rr.sorted_elements() == self.model

    return RangeMachine


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 4), ("5b", 4)])
@pytest.mark.parametrize("width", [8, 16])
def test_matches_sorted_list(width, variant, branch, backend):
    # capacity 64 holds the fill (24 keys) plus an insert on every step (30)
    config = RangeConfig(width=width, branch=branch, variant=variant,
                         backend=backend, capacity=64, audit=True, seed=width)
    run_state_machine_as_test(_machine(config), settings=SETTINGS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant,branch", [("core", 2), ("5a", 4), ("5b", 4)])
def test_matches_sorted_list_deep_keys_w64(variant, branch, backend):
    config = RangeConfig(width=64, branch=branch, variant=variant,
                         backend=backend, capacity=64, audit=True, seed=64)
    run_state_machine_as_test(_machine(config, near=DEEP_KEYS_W64), settings=SETTINGS)
