"""Benchmark and verification command line.

Subcommands replay oracle fuzz traffic, measure bit-probe tradeoffs,
estimate false-positive rates, drive the perfect-hash demo, and report
measured space against the target expressions.  Output on stdout is fully
determined by the arguments (including --seed); wall-clock timing goes to
stderr so reruns stay byte-identical.

Exit codes: 0 success, 1 assertion or acceptance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from collections import Counter

from .bloomier import BloomierConfig, BloomierFilter
from .gtgame import STRATEGIES, sweep
from .perfecthash import PerfectHash, PerfectHashConfig
from .rangereport import RangeConfig, RangeReporter


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        keys = sorted(payload)
        sys.stdout.write(",".join(keys) + "\n")
        sys.stdout.write(",".join(str(payload[k]) for k in keys) + "\n")


def _fuzz_bound(rng: random.Random, shadow: list[int], universe: int) -> int:
    """A query bound: half the time on a live key or next to one, where a
    slip between < and <= at an interval end shows, else uniform."""
    if shadow and rng.random() < 0.5:
        x = shadow[rng.randrange(len(shadow))] + rng.randrange(-1, 2)
        return min(max(x, 0), universe - 1)
    return rng.randrange(universe)


def _fuzz_interval(rng: random.Random, shadow: list[int], universe: int) -> tuple[int, int]:
    """A query interval: a quarter of the time a short one around a live
    key, of log-uniform length, whose LCA may sit at any depth and so
    makes findany search the orders; else two independent bounds."""
    if shadow and rng.random() < 0.25:
        x = shadow[rng.randrange(len(shadow))]
        j = rng.randrange(universe.bit_length() - 1)
        return max(x - rng.getrandbits(j), 0), min(x + rng.getrandbits(j), universe - 1)
    a = _fuzz_bound(rng, shadow, universe)
    b = _fuzz_bound(rng, shadow, universe)
    return (a, b) if a <= b else (b, a)


def _run_fuzz(args) -> int:
    from bisect import bisect_left, bisect_right, insort

    if args.ops < 1 or args.queries_per_op < 0:
        raise ValueError("--ops must be at least 1 and --queries-per-op at least 0")
    cfg = RangeConfig(
        width=args.w, branch=args.B, variant=args.variant, backend=args.backend,
        capacity=max(1024, 2 * args.ops), audit=args.audit, seed=args.seed,
    )
    rr = RangeReporter(cfg)
    rng = random.Random(args.seed)
    shadow: list[int] = []
    universe = 1 << args.w
    mismatches = 0
    queries = 0
    for _ in range(args.ops):
        roll = rng.random()
        if roll < 0.55 or not shadow:
            x = rng.randrange(universe)
            if rr.insert(x):
                insort(shadow, x)
        else:
            x = shadow[rng.randrange(len(shadow))]
            rr.delete(x)
            shadow.pop(bisect_left(shadow, x))
        for _ in range(args.queries_per_op):
            a, b = _fuzz_interval(rng, shadow, universe)
            got = rr.findany(a, b)
            i = bisect_left(shadow, a)
            empty = i >= len(shadow) or shadow[i] > b
            if got is None:
                if not empty:
                    mismatches += 1
            elif not (a <= got <= b) or got not in rr:
                mismatches += 1
            queries += 1
            if queries % 8 == 0:
                if list(rr.report(a, b)) != shadow[i:bisect_right(shadow, b)]:
                    mismatches += 1
    st = rr.stats
    report = {
        "ops": args.ops,
        "mismatches": mismatches,
        "live": len(rr),
        "max_test_branching": st.max_test_branching,
        "max_nav_queries": st.max_nav_queries,
        "max_index_reads_query": st.max_index_reads_query,
        "max_index_writes_insert": st.max_index_writes_insert,
        "max_index_writes_delete": st.max_index_writes_delete,
        "pred_queries_during_query": st.pred_queries_during_query,
    }
    _emit(report, args.format)
    return 0 if mismatches == 0 and st.pred_queries_during_query == 0 else 1


def _run_probe_bench(args) -> int:
    if args.trials < 1 and not args.exhaustive:
        raise ValueError("--trials must be at least 1")
    branches = [int(b) for b in args.B.split(",")]
    strategies = STRATEGIES if args.strategy == "both" else (args.strategy,)
    rows = sweep(args.n, branches, strategies, args.trials, args.seed,
                 exhaustive=args.exhaustive)
    if args.format == "json":
        payload = [
            {
                "B": r.branch, "strategy": r.strategy,
                "Tu_max": r.write_max, "Tq_max": r.read_max,
                "Tu_bound": r.write_bound, "Tq_bound": r.read_bound,
                "correct": r.correct,
            }
            for r in rows
        ]
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write("B,strategy,Tu_max,Tq_max,correct\n")
        for r in rows:
            sys.stdout.write(
                f"{r.branch},{r.strategy},{r.write_max},{r.read_max},{str(r.correct).lower()}\n"
            )
    return 0 if all(r.correct for r in rows) else 1


def _filled_bloomier(args) -> tuple[BloomierFilter, set[int], random.Random, float]:
    """A Bloomier filter holding args.n distinct seeded keys, the keys, the
    generator that drew them (for further draws), and the space target
    n * (lg lg(u/n) + lg(1/epsilon) + r) bits."""
    cfg = BloomierConfig.create(args.n, args.u_bits, args.r, args.epsilon)
    bf = BloomierFilter(cfg, args.seed)
    rng = random.Random(args.seed)
    universe = 1 << args.u_bits
    keys: set[int] = set()
    while len(keys) < args.n:
        keys.add(rng.randrange(universe))
    for k in keys:
        bf.insert(k, k % ((1 << args.r) - 1) + 1)
    bound = args.n * (
        math.log2(math.log2(universe / args.n)) + math.log2(1 / args.epsilon) + args.r
    )
    return bf, keys, rng, bound


def _run_fp_rate(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    bf, keys, rng, bound = _filled_bloomier(args)
    universe = 1 << args.u_bits
    stored_errors = sum(1 for k in keys if bf.lookup(k) == 0)
    hits = 0
    probes = 0
    while probes < args.trials:
        x = rng.randrange(universe)
        if x in keys:
            continue
        probes += 1
        if bf.lookup(x) != 0:
            hits += 1
    fp_rate = hits / probes
    report = {
        "n": args.n,
        "fp_rate": round(fp_rate, 8),
        "epsilon": args.epsilon,
        "stored_errors": stored_errors,
        "space_bits": bf.space_bits(),
        "C_measured": round(bf.space_bits() / bound, 4),
    }
    _emit(report, args.format)
    return 0 if stored_errors == 0 and fp_rate <= 1.5 * args.epsilon else 1


def _run_perfect_hash_demo(args) -> int:
    if args.ops < 0:
        raise ValueError("--ops must be at least 0 (0 runs 3n ops)")
    cfg = PerfectHashConfig.create(args.n, args.u_bits)
    ph = PerfectHash(cfg, args.seed)
    rng = random.Random(args.seed)
    universe = 1 << args.u_bits
    live: dict[int, int] = {}
    # how many live keys hold each value: a second holder breaks injectivity
    holders: Counter[int] = Counter()
    injective = True
    ops = args.ops if args.ops else 3 * args.n
    order: list[int] = []
    for _ in range(ops):
        if live and (rng.random() < 0.33 or len(live) >= args.n):
            x = order.pop(rng.randrange(len(order)))
            ph.delete(x)
            holders[live.pop(x)] -= 1
        else:
            x = rng.randrange(universe)
            if x in live:
                continue
            value, inserted = ph.insert(x)
            if inserted:
                live[x] = value
                order.append(x)
                holders[value] += 1
                if holders[value] > 1:
                    injective = False
    for x, value in live.items():
        if ph.evaluate(x) != value:
            injective = False
    report = {
        "n": args.n,
        "range": cfg.range_size,
        "spill_peak": ph.spill_peak,
        "space_bits": ph.space_bits(),
        "injective": injective,
        "live": len(live),
    }
    _emit(report, args.format)
    return 0 if injective else 1


def _run_space_report(args) -> int:
    report: dict = {}
    if args.component in ("bloomier", "both"):
        bf, _keys, _rng, bound = _filled_bloomier(args)
        report["bloomier_space_bits"] = bf.space_bits()
        report["bloomier_bound_bits"] = int(bound)
        report["bloomier_C"] = round(bf.space_bits() / bound, 4)
    if args.component in ("perfecthash", "both"):
        cfg_ph = PerfectHashConfig.create(args.n, args.u_bits)
        ph = PerfectHash(cfg_ph, args.seed)
        rng = random.Random(args.seed + 1)
        universe = 1 << args.u_bits
        seen: set[int] = set()
        while len(seen) < args.n:
            x = rng.randrange(universe)
            if x in seen:
                continue
            seen.add(x)
            ph.insert(x)
        bound = args.n * math.log2(args.u_bits)
        report["perfecthash_space_bits"] = ph.space_bits()
        report["perfecthash_bound_bits"] = int(bound)
        report["perfecthash_C"] = round(ph.space_bits() / bound, 4)
    _emit(report, args.format)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wordram-bench")
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("oracle-fuzz", help="replay random ops against a sorted-set oracle")
    fuzz.add_argument("--w", type=int, default=8)
    fuzz.add_argument("--B", type=int, default=2)
    fuzz.add_argument("--variant", choices=("core", "5a", "5b"), default="core")
    fuzz.add_argument("--backend", choices=("exact", "bloomier"), default="exact")
    fuzz.add_argument("--ops", type=int, default=200)
    fuzz.add_argument("--queries-per-op", type=int, default=5)
    fuzz.add_argument("--audit", action="store_true")
    _add_common(fuzz)

    probe = sub.add_parser("probe-bench", help="greater-than bit-probe tradeoff sweep")
    probe.add_argument("--n", type=int, default=1 << 16)
    probe.add_argument("--B", type=str, default="2,4,16")
    probe.add_argument("--strategy", choices=(*STRATEGIES, "both"), default="both")
    probe.add_argument("--trials", type=int, default=10000)
    probe.add_argument("--exhaustive", action="store_true")
    _add_common(probe)

    fp = sub.add_parser("fp-rate", help="Bloomier filter false-positive measurement")
    fp.add_argument("--n", type=int, default=1 << 12)
    fp.add_argument("--u-bits", type=int, default=32)
    fp.add_argument("--r", type=int, default=8)
    fp.add_argument("--epsilon", type=float, default=1 / 64)
    fp.add_argument("--trials", type=int, default=10**6)
    _add_common(fp)

    demo = sub.add_parser("perfect-hash-demo", help="dynamic perfect hashing demo run")
    demo.add_argument("--n", type=int, default=1 << 14)
    demo.add_argument("--u-bits", type=int, default=64)
    demo.add_argument("--ops", type=int, default=0)
    _add_common(demo)

    space = sub.add_parser("space-report", help="measured space vs target expressions")
    space.add_argument("--component", choices=("bloomier", "perfecthash", "both"),
                       default="both")
    space.add_argument("--n", type=int, default=1 << 12)
    space.add_argument("--u-bits", type=int, default=32)
    space.add_argument("--r", type=int, default=8)
    space.add_argument("--epsilon", type=float, default=1 / 64)
    _add_common(space)
    return parser


_RUNNERS = {
    "oracle-fuzz": _run_fuzz,
    "probe-bench": _run_probe_bench,
    "fp-rate": _run_fp_rate,
    "perfect-hash-demo": _run_perfect_hash_demo,
    "space-report": _run_space_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = _RUNNERS[args.command](args)
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1
    sys.stderr.write(f"elapsed: {time.monotonic() - start:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
