"""Outside-in layer tracing.

The tracer replaces public methods on the component *instances* of a
structure with wrappers, so the program's own files stay untouched.  Each
wrapped call is a span; its self time is its duration minus the durations
of the spans it encloses.  Spans are aggregated in memory per (op class,
layer, method) and read out when the run ends.

Methods that only read a field (``NavList.entry``, ``PredecessorSet.prev_key``
and ``next_key``) are left unwrapped: a wrapper would cost more than the
call, and their time stays with the caller.
"""

from __future__ import annotations

import time


class LayerTracer:
    def __init__(self):
        # one child-time accumulator per open span, over a sentinel
        self._stack = [0.0]
        self.op_class = ""
        # (op class, layer, method) -> [calls, self seconds, truthy results]
        self.totals: dict[tuple[str, str, str], list] = {}
        # op class -> [ops, traced seconds]
        self.ops: dict[str, list] = {}

    def _record(self, layer: str, method: str) -> list:
        key = (self.op_class, layer, method)
        rec = self.totals.get(key)
        if rec is None:
            rec = self.totals[key] = [0, 0.0, 0]
        return rec

    def wrap(self, obj, layer: str, methods) -> None:
        """Time every call of obj.<method> as a span of `layer`."""
        for method in methods:
            setattr(obj, method, self.timed(getattr(obj, method), layer, method))

    def timed(self, fn, layer: str, method: str):
        stack = self._stack
        clock = time.perf_counter
        record = self._record

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                rec = record(layer, method)
                rec[0] += 1
                rec[1] += dur - child

        return traced

    def count(self, obj, layer: str, method: str) -> None:
        """Count calls of obj.<method> and its truthy results, without a span."""
        fn = getattr(obj, method)
        record = self._record

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec = record(layer, method)
            rec[0] += 1
            rec[2] += bool(result)
            return result

        setattr(obj, method, counted)

    def run_op(self, op_class: str, root_layer: str, fn, x, y):
        """One top-level op as the root span, charged to `root_layer`."""
        self.op_class = op_class
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(x, y)
        finally:
            dur = time.perf_counter() - t0
            child = stack.pop()
            rec = self._record(root_layer, "self")
            rec[0] += 1
            rec[1] += dur - child
            tot = self.ops.setdefault(op_class, [0, 0.0])
            tot[0] += 1
            tot[1] += dur

    def calls(self, op_class: str, layer: str, methods=None) -> int:
        return sum(r[0] for (c, l, m), r in self.totals.items()
                   if c == op_class and l == layer and (methods is None or m in methods))

    def self_seconds(self, op_class: str, layer: str) -> float:
        return sum(r[1] for (c, l, _), r in self.totals.items() if c == op_class and l == layer)

    def truthy(self, op_class: str, layer: str, method: str) -> int:
        rec = self.totals.get((op_class, layer, method))
        return rec[2] if rec else 0

    def self_sum_gap(self) -> float:
        """|sum of all self times - traced op time| / traced op time.

        Zero up to rounding when every span closed inside its parent.
        """
        traced = sum(t for _, t in self.ops.values())
        total = sum(r[1] for r in self.totals.values())
        return abs(total - traced) / traced if traced else 0.0
