"""Source-wide rules that no single module test can see."""

import ast
import random
from pathlib import Path

from wordram.navlist import CLOSE, OPEN, Close, Element, Open, _Entry
from wordram.perfecthash import PerfectHash, PerfectHashConfig
from wordram.rangereport import BACKEND_BLOOMIER, BranchingRecord, RangeConfig, RangeReporter

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


def test_navigation_entries_hold_one_object_per_node():
    # every navigation entry, the branching record among them, is one
    # slotted object: its kind is its class's, and it compares by identity,
    # because list.index finds an entry by == and a field-wise __eq__ could
    # return another entry's slot.  A new per-key field shows up here.
    classes, todo = [], [_Entry]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo += cls.__subclasses__()
    assert {Element, Open, Close, BranchingRecord} <= set(classes)
    for cls in classes:
        for klass in cls.__mro__[:-1]:
            assert "__slots__" in vars(klass), klass
            assert "kind" not in vars(klass)["__slots__"], klass
            assert "__eq__" not in vars(klass), klass
    for e in (Element(1), Open(2), Close(3), BranchingRecord(4, None, None)):
        assert not hasattr(e, "__dict__"), e

    # on a filled w=64 reporter, every table value is a live Open entry of
    # the list, under its own key, and its Close is listed too
    rng = random.Random(11)
    rr = RangeReporter(RangeConfig(width=64, capacity=1024, seed=11))
    for _ in range(600):
        rr.insert(rng.getrandbits(64))
    listed = {id(e) for e in rr.nav}
    assert len(rr.table) > 500
    for key, rec in rr.table.items():
        assert rec.bucket is not None and rec.kind == OPEN and rec.value == key
        assert id(rec) in listed
        assert rec.close.kind == CLOSE and id(rec.close) in listed
        # a side holds its child's own entry, a lone key's element or a
        # branching child's record, and never a tag integer
        for side in (rec.left, rec.right):
            assert not isinstance(side, int) and side.bucket is not None
            assert id(side) in listed
            assert side is (rr.leaves[side.value] if type(side) is Element
                            else rr.table[side.value])
