"""Fixed pure-Python kernels, timed between benchmark ops.

On a shared host the speed of this process drifts by up to about 2x, in
spells lasting seconds, so wall-clock latencies of one commit spread by
10-45% from run to run.  Every ``INTERVAL`` seconds of a timed phase the
probe times five small kernels that mimic the interpreter work of the
program: integer arithmetic with dict inserts, random lookups in a dict of
about 30 MB, allocation of small objects, shifts and masks of 64- to 70-bit
integers, and method calls.  The geometric mean of the five times is one
sample.  Of the kernels tried, this mix followed the workloads' own speed
most closely over 0.5 s slices.

A time measured after sample j is scaled by ``REF_SECONDS`` over the median
of the samples within ``WINDOW`` of j, so it reads as time on a host that
runs the kernels in ``REF_SECONDS``.  The kernels share no code with the
program, so a change to the program moves the scaled figures as much as it
moves the wall-clock ones.
"""

from __future__ import annotations

import random
import statistics
import time

INTERVAL = 0.05
WINDOW = 5
REF_SECONDS = 8e-5
_STEPS = 200
_TABLE_BITS = 18


class _Rec:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c


class _Counter:
    def __init__(self):
        self.x = 1
        self.y = 2

    def step(self, v: int) -> int:
        return self.x + v * self.y


def _arith() -> int:
    d = {}
    acc = 0
    for i in range(_STEPS):
        k = (i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        d[k] = i
        acc ^= k >> (i & 31)
    return acc


def _objects() -> int:
    acc = 0
    for i in range(_STEPS):
        r = _Rec(i, (i, i + 1), [i])
        acc += r.b[1] + r.a + r.c[0]
    return acc


def _wide_ints() -> int:
    acc = 0
    x = 0x123456789ABCDEF0
    for i in range(_STEPS):
        acc ^= (((x << 13) | i) >> (i & 63)) & ((1 << 70) - 1)
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    return acc


def _calls(counter=_Counter()) -> int:
    acc = 0
    for i in range(_STEPS):
        acc += counter.step(i)
    return acc


class _Lookups:
    """Random reads of a dict with 2**_TABLE_BITS int keys."""

    def __init__(self, rng: random.Random):
        self.mask = (1 << _TABLE_BITS) - 1
        self.table = {rng.getrandbits(64): i for i in range(1 << _TABLE_BITS)}
        self.keys = list(self.table)
        rng.shuffle(self.keys)
        self.pos = 0

    def __call__(self) -> int:
        table, keys, mask = self.table, self.keys, self.mask
        p = self.pos
        acc = 0
        for i in range(_STEPS):
            acc += table[keys[(p + i * 7919) & mask]]
        self.pos = (p + 104729) & mask
        return acc


class SpeedProbe:
    def __init__(self):
        self._kernels = (_arith, _Lookups(random.Random(0)), _objects, _wide_ints, _calls)
        self._next = 0.0
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        clock = time.perf_counter
        t0 = start = clock()
        product = 1.0
        for kernel in self._kernels:
            kernel()
            t1 = clock()
            product *= t1 - t0
            t0 = t1
        self.samples.append(product ** (1 / len(self._kernels)))
        self.spent += t0 - start
        self._next = t0 + INTERVAL

    def maybe(self, now: float) -> None:
        """Take a sample if INTERVAL has passed since the last one."""
        if now >= self._next:
            self.sample()

    def start_phase(self) -> None:
        self.samples = []
        self.spent = 0.0
        self.sample()

    def scale(self) -> float:
        """Factor turning this phase's wall seconds into reference seconds."""
        return REF_SECONDS / statistics.median(self.samples)

    def local_scales(self) -> list[float]:
        """Per sample j: the factor for times measured after sample j."""
        xs = self.samples
        return [REF_SECONDS / statistics.median(xs[max(0, j - WINDOW):j + WINDOW + 1])
                for j in range(len(xs))]
