"""Bit-probe schemes for comparing one stored number against queries.

The update stage writes a number a into an initially zero bit memory by
marking its root-to-leaf path in a balanced branch-B tree; the query stage
decides b > a from a bounded number of bit reads.  Two strategies trade the
sibling work between the stages: the query-heavy scheme scans left siblings
of b's node at the divergence level, the update-heavy scheme premarks left
siblings of a's nodes so one extra probe settles the comparison.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .wordops import ensure, top_order

QUERY_HEAVY = "query-heavy"
UPDATE_HEAVY = "update-heavy"
STRATEGIES = (QUERY_HEAVY, UPDATE_HEAVY)


class BitMemory:
    """Lazily zeroed addressable bits with read/write probe counters."""

    __slots__ = ("_set", "reads", "writes")

    def __init__(self):
        self._set: set[int] = set()
        self.reads = 0
        self.writes = 0

    @property
    def fresh(self) -> bool:
        return self.writes == 0

    def write(self, addr: int) -> None:
        self.writes += 1
        self._set.add(addr)

    def read(self, addr: int) -> bool:
        self.reads += 1
        return addr in self._set


class GreaterThanScheme:
    """Bit layout and both stage algorithms for domain [0, n)."""

    def __init__(self, n: int, branch: int, strategy: str):
        if n < 2:
            raise ValueError("domain must have at least two values")
        if branch < 2:
            raise ValueError("branch must be at least 2")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.n = n
        self.branch = branch
        self.strategy = strategy
        self.levels = max(1, top_order(n, branch))
        # level-major contiguous blocks: on-path region first, then the
        # disjoint left-sibling region used by the update-heavy strategy
        self._level_base = [0] * (self.levels + 1)
        acc = 0
        for level in range(1, self.levels + 1):
            self._level_base[level] = acc
            acc += branch**level
        self._sibling_offset = acc

    def _prefix(self, value: int, level: int) -> int:
        return value // self.branch ** (self.levels - level)

    def _path_addr(self, level: int, prefix: int) -> int:
        return self._level_base[level] + prefix

    def _sibling_addr(self, level: int, prefix: int) -> int:
        return self._sibling_offset + self._level_base[level] + prefix

    def update(self, memory: BitMemory, a: int) -> int:
        """Mark a's path (and left siblings under the update-heavy strategy)."""
        if not 0 <= a < self.n:
            raise ValueError(f"update value {a} out of range")
        if not memory.fresh:
            raise ValueError("memory already holds an update")
        before = memory.writes
        for level in range(1, self.levels + 1):
            prefix = self._prefix(a, level)
            memory.write(self._path_addr(level, prefix))
            if self.strategy == UPDATE_HEAVY:
                first_sibling = prefix - prefix % self.branch
                for p in range(first_sibling, prefix):
                    memory.write(self._sibling_addr(level, p))
        return memory.writes - before

    def query(self, memory: BitMemory, b: int) -> tuple[bool, int]:
        """Decide b > a; returns (answer, read probes used)."""
        if not 0 <= b < self.n:
            raise ValueError(f"query value {b} out of range")
        before = memory.reads
        # first level where b's path bit is unmarked; marked at < lo, unmarked at >= hi
        lo, hi = 1, self.levels + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if memory.read(self._path_addr(mid, self._prefix(b, mid))):
                lo = mid + 1
            else:
                hi = mid
        diverge = lo
        if diverge > self.levels:
            return False, memory.reads - before  # b == a
        prefix = self._prefix(b, diverge)
        if self.strategy == QUERY_HEAVY:
            first_sibling = prefix - prefix % self.branch
            for p in range(first_sibling, prefix):
                if memory.read(self._path_addr(diverge, p)):
                    return True, memory.reads - before
            return False, memory.reads - before
        marked_left = memory.read(self._sibling_addr(diverge, prefix))
        return not marked_left, memory.reads - before


@dataclass
class SweepRow:
    branch: int
    strategy: str
    write_max: int
    write_mean: float
    read_max: int
    read_mean: float
    correct: bool
    pairs: int = 0
    write_bound: int = 0
    read_bound: int = 0
    errors: list = field(default_factory=list)


def probe_bounds(n: int, branch: int, strategy: str) -> tuple[int, int]:
    """Exact combinatorial probe ceilings implied by the construction."""
    levels = max(1, top_order(n, branch))
    search = math.ceil(math.log2(levels + 1))
    if strategy == QUERY_HEAVY:
        return levels, search + (branch - 1)
    return levels * branch, search + 1


def sweep(n: int, branches, strategies, trials: int, seed: int,
          exhaustive: bool = False) -> list[SweepRow]:
    """Measure probe counts and correctness per (branch, strategy).

    Probe ceilings are asserted, not just reported; any wrong answer is
    collected into the row's error list.
    """
    rows = []
    for branch in branches:
        for strategy in strategies:
            scheme = GreaterThanScheme(n, branch, strategy)
            wb, rb = probe_bounds(n, branch, strategy)
            w_max = r_max = 0
            w_sum = r_sum = 0
            pairs = 0
            errors = []
            if exhaustive:
                pair_iter = ((a, b) for a in range(n) for b in range(n))
            else:
                rng = random.Random(seed)
                pair_iter = (
                    (rng.randrange(n), rng.randrange(n)) for _ in range(trials)
                )
            memory = None
            last_a = None
            n_updates = 0
            for a, b in pair_iter:
                if a != last_a or memory is None:
                    memory = BitMemory()
                    writes = scheme.update(memory, a)
                    ensure(writes <= wb, f"write bound violated: {writes} > {wb}")
                    w_max = max(w_max, writes)
                    w_sum += writes
                    n_updates += 1
                    last_a = a
                answer, reads = scheme.query(memory, b)
                ensure(reads <= rb, f"read bound violated: {reads} > {rb}")
                r_max = max(r_max, reads)
                r_sum += reads
                pairs += 1
                if answer != (b > a):
                    errors.append((a, b))
            rows.append(SweepRow(
                branch=branch, strategy=strategy,
                write_max=w_max, write_mean=w_sum / max(1, n_updates),
                read_max=r_max, read_mean=r_sum / max(1, pairs),
                correct=not errors, pairs=pairs,
                write_bound=wb, read_bound=rb, errors=errors[:8],
            ))
    return rows
