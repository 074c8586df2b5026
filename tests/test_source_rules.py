"""Source-wide rules that no single module test can see."""

import ast
import random
from pathlib import Path

from wordram.perfecthash import PerfectHash, PerfectHashConfig
from wordram.rangereport import BACKEND_BLOOMIER, RangeConfig, RangeReporter

SRC = Path(__file__).resolve().parents[1] / "src" / "wordram"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so checks must use wordops.ensure
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")) and not found, found


def _shadow(obj, methods, calls, layer):
    # what an outside-in layer tracer does: an instance attribute that
    # shadows the public method and forwards to it
    for name in methods:
        method = getattr(obj, name)

        def counted(*args, _method=method, _key=f"{layer}.{name}", **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _method(*args, **kwargs)

        setattr(obj, name, counted)  # AttributeError on a class with __slots__


def test_traced_instances_accept_method_shadows():
    # the benchmark times each layer by shadowing methods on the component
    # instances, so none may use __slots__ or reach a layer other than by
    # calling its method through the instance
    rng = random.Random(5)
    calls: dict[str, int] = {}
    ph = PerfectHash(PerfectHashConfig.create(256, 32), seed=3)
    for d in ph._buckets:
        _shadow(d, ("insert", "lookup", "delete"), calls, "SmallDict")
    keys = rng.sample(range(1 << 32), 100)
    for key in keys:
        ph.insert(key)
        ph.evaluate(key)
    for key in keys:
        ph.delete(key)

    rr = RangeReporter(RangeConfig(width=64, backend=BACKEND_BLOOMIER, capacity=256, seed=3))
    _shadow(rr.pred, ("insert", "delete", "pred", "succ"), calls, "PredecessorSet")
    _shadow(rr._sbar_pred, ("insert", "delete", "pred", "succ"), calls, "PredecessorSet")
    _shadow(rr.nav, ("insert_first", "insert_after", "delete", "nearest_element_left",
                     "nearest_element_right"), calls, "NavList")
    _shadow(rr.index, ("add", "set", "drop", "get"), calls, "AncestorIndex")
    _shadow(rr.index._filter, ("insert", "replace", "delete", "lookup"), calls,
            "BloomierFilter")
    keys = [rng.getrandbits(64) for _ in range(100)]
    for key in keys:
        rr.insert(key)
    for key in keys:
        rr.findany(key - (1 << 20), key + (1 << 20))
    for key in keys[:50]:
        rr.delete(key)
    # the layers whose traced counts must read above 0: every bucket call,
    # and the index reads of findany
    for key in ("SmallDict.insert", "SmallDict.lookup", "SmallDict.delete",
                "AncestorIndex.get"):
        assert calls.get(key), (key, calls)
