"""Workload definitions: seeded op streams, the structures they drive, and
the sorted-list oracle that checks every answer.

A stream of ``(kind, x, y)`` ops is generated from the seed before any
timing starts.  Streams keep the live-set size constant (every insert of
a fresh key is paired with a delete of a random live key), so the structure
measured at the end of a run has the size it had after set-up.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

INSERT, DELETE, FINDANY, REPORT, EVALUATE = range(5)
KIND_NAMES = ("insert", "delete", "findany", "report", "evaluate")
UPDATES = (INSERT, DELETE)

W = 64
UNIVERSE = 1 << W
RANGE_PREFILL = 1 << 14
PHASH_CAPACITY = 1 << 16
PHASH_PREFILL = 3 * PHASH_CAPACITY // 4
SHORT_LOG2_MAX = 56.0
REPORT_EVERY = 8
EDGE_PROBES = 64


@dataclass(frozen=True)
class Workload:
    name: str
    family: str        # "range" or "phash"
    # about twice the untraced ops per second, which sizes the stream so
    # that it outlasts the timed phase
    max_rate: int
    # ops per second of the fixed-size traced run
    trace_rate: int
    # set-ups per run; setup_s is their median
    setup_reps: int
    variant: str = "core"
    branch: int = 2
    backend: str = "bloomier"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("churn-w64", "range", 20_000, 3_000, 3),
        Workload("query-short-w64", "range", 120_000, 15_000, 3),
        Workload("mixed-5a-w64-exact", "range", 40_000, 5_000, 3,
                 variant="5a", branch=8, backend="exact"),
        Workload("phash-churn", "phash", 200_000, 40_000, 9),
    )
}


class _Live:
    """Live keys with O(1) random choice, fresh-key draw and removal."""

    def __init__(self, rng: random.Random, keys: list[int]):
        self.rng = rng
        self.keys = list(keys)
        self.pos = {k: i for i, k in enumerate(self.keys)}

    def fresh(self) -> int:
        while True:
            x = self.rng.getrandbits(W)
            if x not in self.pos:
                self.pos[x] = len(self.keys)
                self.keys.append(x)
                return x

    def any(self) -> int:
        return self.keys[self.rng.randrange(len(self.keys))]

    def remove_any(self) -> int:
        i = self.rng.randrange(len(self.keys))
        x = self.keys[i]
        last = self.keys.pop()
        if last != x:
            self.keys[i] = last
            self.pos[last] = i
        del self.pos[x]
        return x


def _uniform_bounds(rng: random.Random) -> tuple[int, int]:
    a, b = rng.getrandbits(W), rng.getrandbits(W)
    return (a, b) if a <= b else (b, a)


def _short_bounds(rng: random.Random, live: _Live) -> tuple[int, int]:
    """Log-uniform length in [2, 2^56], centred on a live key or a random point."""
    length = int(2.0 ** rng.uniform(1.0, SHORT_LOG2_MAX))
    centre = live.any() if rng.random() < 0.5 else rng.getrandbits(W)
    a = max(0, centre - length // 2)
    return a, min(UNIVERSE - 1, a + length - 1)


class Stream:
    """Ops stored column-wise, which takes about half the memory of tuples."""

    def __init__(self, kinds=None, xs=None, ys=None):
        self.kinds = bytearray() if kinds is None else kinds
        self.xs = [] if xs is None else xs
        self.ys = [] if ys is None else ys

    def add(self, kind: int, x: int, y: int = 0) -> None:
        self.kinds.append(kind)
        self.xs.append(x)
        self.ys.append(y)

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):
        return zip(self.kinds, self.xs, self.ys)

    def __getitem__(self, part: slice) -> "Stream":
        return Stream(self.kinds[part], self.xs[part], self.ys[part])


def make_inputs(wl: Workload, seed: int, n_ops: int):
    """(prefill keys, op stream of about n_ops ops), both fixed by the seed."""
    rng = random.Random(f"{wl.name}/{seed}")
    prefill_n = PHASH_PREFILL if wl.family == "phash" else RANGE_PREFILL
    keys: set[int] = set()
    while len(keys) < prefill_n:
        keys.add(rng.getrandbits(W))
    prefill = sorted(keys)
    rng.shuffle(prefill)
    live = _Live(rng, prefill)
    ops = Stream()
    if wl.name == "churn-w64":
        while len(ops) < n_ops:
            ops.add(INSERT, live.fresh())
            ops.add(FINDANY, *_uniform_bounds(rng))
            ops.add(DELETE, live.remove_any())
            ops.add(FINDANY, *_uniform_bounds(rng))
    elif wl.name == "query-short-w64":
        for i in range(n_ops):
            kind = REPORT if i % REPORT_EVERY == REPORT_EVERY - 1 else FINDANY
            ops.add(kind, *_short_bounds(rng, live))
    elif wl.name == "mixed-5a-w64-exact":
        while len(ops) < n_ops:
            ops.add(INSERT, live.fresh())
            ops.add(FINDANY, *_short_bounds(rng, live))
            ops.add(DELETE, live.remove_any())
            ops.add(FINDANY, *_short_bounds(rng, live))
    else:
        while len(ops) < n_ops:
            ops.add(INSERT, live.fresh())
            ops.add(EVALUATE, live.any())
            ops.add(DELETE, live.remove_any())
    return prefill, ops


def edge_probes(seed: int) -> list[tuple[int, int]]:
    """Query bounds reaching past one end of the universe [0, 2^64)."""
    rng = random.Random(f"edge/{seed}")
    probes = []
    for i in range(EDGE_PROBES):
        inside = rng.getrandbits(W)
        outside = rng.randrange(1, 1 << 60)
        probes.append((inside, UNIVERSE - 1 + outside) if i % 2 else (-outside, inside))
    return probes


def build(wl: Workload, seed: int, prefill: list[int], between=None):
    """The structure under test, filled with the prefill keys.

    `between(now)`, when given, is called every 64 inserts.
    """
    if wl.family == "phash":
        from wordram.perfecthash import PerfectHash, PerfectHashConfig

        s = PerfectHash(PerfectHashConfig.create(PHASH_CAPACITY, W), seed)
    else:
        from wordram.rangereport import RangeConfig, RangeReporter

        s = RangeReporter(RangeConfig(
            width=W, branch=wl.branch, variant=wl.variant, backend=wl.backend,
            capacity=2 * RANGE_PREFILL, seed=seed,
        ))
    insert = s.insert
    for i, x in enumerate(prefill):
        insert(x)
        if between is not None and i & 63 == 63:
            between(time.perf_counter())
    return s


def op_functions(structure) -> dict:
    """Kind -> callable taking (x, y); each consumes its whole result."""
    if hasattr(structure, "findany"):
        report = structure.report
        return {
            INSERT: lambda x, _y, f=structure.insert: f(x),
            DELETE: lambda x, _y, f=structure.delete: f(x),
            FINDANY: structure.findany,
            REPORT: lambda a, b: list(report(a, b)),
        }
    return {
        INSERT: lambda x, _y, f=structure.insert: f(x),
        DELETE: lambda x, _y, f=structure.delete: f(x),
        EVALUATE: lambda x, _y, f=structure.evaluate: f(x),
    }


class Raised:
    """Stands in for the answer of an op that raised."""

    def __init__(self, exc: Exception):
        self.exc = exc


class Oracle:
    """Sorted-list shadow of the live set; judges answers after the fact.

    For the perfect hash it also remembers every live key's value, so values
    are checked to be in range, injective and stable.
    """

    def __init__(self, prefill: list[int], structure):
        self.shadow = sorted(prefill)
        self.range_size = getattr(getattr(structure, "config", None), "range_size", None)
        self.value_of: dict[int, int] = {}
        self.key_of: dict[int, int] = {}
        if self.range_size is not None:
            for x in prefill:
                v = structure.evaluate(x)
                self.value_of[x] = v
                self.key_of[v] = x
        self.prefill_ok = len(self.key_of) == len(self.value_of)

    def judge(self, ops, results) -> int:
        """Replay ops on the shadow; the number of wrong or raised answers."""
        wrong = 0
        for (kind, x, y), got in zip(ops, results):
            if isinstance(got, Raised):
                self._apply(kind, x, None)
                wrong += 1
            elif not self.check(kind, x, y, got):
                wrong += 1
        return wrong

    def _nonempty(self, a: int, b: int) -> bool:
        i = bisect_left(self.shadow, a)
        return i < len(self.shadow) and self.shadow[i] <= b

    def _member(self, x: int) -> bool:
        i = bisect_left(self.shadow, x)
        return i < len(self.shadow) and self.shadow[i] == x

    def check(self, kind: int, x: int, y: int, got) -> bool:
        """True iff `got` answers the op; updates are applied to the shadow."""
        if kind == FINDANY:
            if got is None:
                return not self._nonempty(x, y)
            return x <= got <= y and self._member(got)
        if kind == REPORT:
            return got == self.shadow[bisect_left(self.shadow, x):bisect_right(self.shadow, y)]
        if kind == EVALUATE:
            return got == self.value_of.get(x)
        if kind == INSERT:
            if self.range_size is None:
                self._apply(kind, x, None)
                return got is True
            value, inserted = got
            ok = inserted and 0 <= value < self.range_size and value not in self.key_of
            self._apply(kind, x, value)
            return ok
        self._apply(kind, x, None)
        return got is True

    def _apply(self, kind: int, x: int, value: int | None) -> None:
        """Make the shadow follow an insert or delete of x."""
        if kind == INSERT and not self._member(x):
            insort(self.shadow, x)
            if value is not None:
                self.value_of[x] = value
                self.key_of[value] = x
        elif kind == DELETE and self._member(x):
            self.shadow.pop(bisect_left(self.shadow, x))
            if x in self.value_of:
                del self.key_of[self.value_of.pop(x)]


def sortedlist_replay(prefill: list[int], ops, probe) -> float:
    """Reference seconds to replay `ops` on a plain bisect/insort sorted list.

    Each kind does the least a sorted list needs to answer it: a findany is
    one bisect, a report one slice, an evaluate returns the key's rank.
    """
    keys = sorted(prefill)
    probe.start_phase()
    start = time.perf_counter()
    for i, (kind, x, y) in enumerate(ops):
        if kind == INSERT:
            insort(keys, x)
        elif kind == DELETE:
            keys.pop(bisect_left(keys, x))
        elif kind == FINDANY:
            j = bisect_left(keys, x)
            _ = keys[j] if j < len(keys) and keys[j] <= y else None
        elif kind == REPORT:
            _ = keys[bisect_left(keys, x):bisect_right(keys, y)]
        else:
            _ = bisect_left(keys, x)
        if i & 255 == 255:
            probe.maybe(time.perf_counter())
    return (time.perf_counter() - start - probe.spent) * probe.scale()
