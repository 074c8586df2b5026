"""wordram benchmark: seeded closed-loop workloads over the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client issues each op only after the previous one returned; no threads.
Inputs come from --seed and are generated before any timing starts.  Every
answer is checked against a sorted-list oracle outside the timed window.

--trace 0 measures the end-to-end metrics: per-op latency, throughput,
set-up time and memory.  --trace 1 runs a fixed number of ops, half untraced
and half with the layers' methods wrapped (see layertrace.py), and reports
per-layer counts and self times.  Every metric is printed as
``name value unit``; the last line is one JSON object with the metrics the
benchmark definition (BENCHMARK.json) names for that mode.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

from speedprobe import SpeedProbe
from workloads import (
    EVALUATE, FINDANY, KIND_NAMES, UPDATES, WORKLOADS, Oracle, Raised, build,
    edge_probes, make_inputs, op_functions, sortedlist_replay,
)

SRC = Path(__file__).resolve().parent.parent / "src"

BASELINE_OPS = 50_000

# name, unit, better; emitted with --trace 0 on every workload
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("query_us_p50", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("heap_bytes_per_key", "B", "lower"),
    ("space_bits_per_key", "bit", "lower"),
)

# name, unit, better; emitted with --trace 1 on every workload (0 where idle)
PER_LAYER = (
    ("predecessor.S.calls_per_update", "count", "lower"),
    ("predecessor.S.us_per_update", "us", "lower"),
    ("predecessor.Sbar.calls_per_update", "count", "lower"),
    ("predecessor.Sbar.us_per_update", "us", "lower"),
    ("predecessor.queries_per_query", "count", "lower"),
    ("navlist.calls_per_update", "count", "lower"),
    ("navlist.us_per_update", "us", "lower"),
    ("navlist.nearest_calls_per_query", "count", "lower"),
    ("navlist.us_per_query", "us", "lower"),
    ("navlist.max_buckets_examined", "count", "lower"),
    ("rangereport.index.writes_per_update", "count", "lower"),
    ("rangereport.index.reads_per_query", "count", "lower"),
    ("rangereport.index.us_per_update", "us", "lower"),
    ("rangereport.index.us_per_query", "us", "lower"),
    ("rangereport.index.entries_per_key", "count", "lower"),
    ("rangereport.test_branching_per_query", "count", "lower"),
    ("rangereport.test_branching_true_frac", "frac", "higher"),
    ("rangereport.self_us_per_update", "us", "lower"),
    ("rangereport.self_us_per_query", "us", "lower"),
    ("bloomier.calls_per_update", "count", "lower"),
    ("bloomier.us_per_update", "us", "lower"),
    ("bloomier.us_per_query", "us", "lower"),
    ("bloomier.verbatim_frac", "frac", "lower"),
    ("perfecthash.self_us_per_op", "us", "lower"),
    ("perfecthash.spill_peak", "count", "lower"),
    ("compactdict.calls_per_op", "count", "lower"),
    ("compactdict.us_per_op", "us", "lower"),
    ("hashing.us_per_op", "us", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def _import_program() -> None:
    """Put the checkout's own sources first on the path, or exit non-zero."""
    pkg = SRC / "wordram"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no wordram sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import wordram

    if Path(wordram.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported wordram from {wordram.__file__}, not {pkg}")


def _quantile(sorted_xs: list[float], q: float) -> float:
    return sorted_xs[min(len(sorted_xs) - 1, int(q * len(sorted_xs)))]


def _op_class(wl, kind: int) -> str:
    if wl.family == "phash":
        return "op"
    return "update" if kind in UPDATES else "query"


def _replay(structure, ops, probe: SpeedProbe, deadline: float | None = None,
            tracer=None, wl=None) -> tuple[list, dict[int, list[float]]]:
    """Run ops in a closed loop; returns (answers, scaled latencies by kind).

    Stops at `deadline` (a perf_counter value) when one is given.  Answers
    are kept for the oracle, which judges them after the phase, so nothing
    but the speed probe runs between two ops.  With a tracer, each op is a
    root span.
    """
    fns = op_functions(structure)
    clock = time.perf_counter
    root = "perfecthash" if wl is not None and wl.family == "phash" else "rangereport"
    answers = []
    # per kind: wall seconds of each op, and the index of the probe sample
    # taken before it
    walls = {k: array("d") for k in range(len(KIND_NAMES))}
    marks = {k: array("l") for k in range(len(KIND_NAMES))}
    gc.collect()
    probe.start_phase()
    samples = probe.samples
    for kind, x, y in ops:
        fn = fns[kind]
        try:
            if tracer is None:
                t0 = clock()
                got = fn(x, y)
                t1 = clock()
            else:
                t0 = clock()
                got = tracer.run_op(_op_class(wl, kind), root, fn, x, y)
                t1 = clock()
        except Exception as exc:  # judged as a failed op; the run goes on
            answers.append(Raised(exc))
            t1 = clock()
        else:
            answers.append(got)
            walls[kind].append(t1 - t0)
            marks[kind].append(len(samples) - 1)
        probe.maybe(t1)
        if deadline is not None and t1 >= deadline:
            break
    scales = probe.local_scales()
    lat = {k: [dt * scales[j] for dt, j in zip(walls[k], marks[k])] for k in walls}
    return answers, lat


def _judge(oracle: Oracle, ops, answers) -> int:
    failed = oracle.judge(ops, answers)
    for got in answers:
        if isinstance(got, Raised):
            sys.stderr.write(f"an op raised {got.exc!r}\n")
            break
    return failed


def _heap_bytes_per_key(wl, seed: int, prefill) -> float:
    """Python heap held per key by a structure filled with the first quarter
    of the prefill keys, from tracemalloc.

    A quarter keeps the pass near 3 s; tracing every allocation of a full
    set-up would take about 13 s per run.
    """
    keys = prefill[:len(prefill) // 4]
    gc.collect()
    tracemalloc.start()
    try:
        s = build(wl, seed, keys)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / _live_count(s)


def _live_count(s) -> int:
    return s.live_count if hasattr(s, "live_count") else len(s)


def _edge_check(rr, oracle: Oracle, seed: int) -> tuple[int, int]:
    """Query bounds past the universe: (probes, wrong answers).

    A ValueError is an accepted rejection; any other answer must be right.
    """
    wrong = 0
    probes = edge_probes(seed)
    for a, b in probes:
        try:
            got = rr.findany(a, b)
        except ValueError:
            continue
        if not oracle.check(FINDANY, a, b, got):
            wrong += 1
    return len(probes), wrong


def _timed_setup(wl, seed: int, prefill, probe: SpeedProbe):
    """(structure, set-up time in reference seconds)."""
    gc.collect()
    probe.start_phase()
    t0 = time.perf_counter()
    s = build(wl, seed, prefill, probe.maybe)
    wall = time.perf_counter() - t0 - probe.spent
    return s, wall * probe.scale()


def _inputs(wl, seed: int, n_ops: int):
    prefill, ops = make_inputs(wl, seed, n_ops)
    # the stream is the harness's data: keep the collector from scanning it
    # on the program's time
    gc.collect()
    gc.freeze()
    return prefill, ops


def measure(wl, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    prefill, ops = _inputs(wl, seed, int(seconds * wl.max_rate))
    heap = _heap_bytes_per_key(wl, seed, prefill)
    probe = SpeedProbe()

    setup = []
    for _ in range(wl.setup_reps):
        s = None  # free the previous structure before building the next
        s, secs = _timed_setup(wl, seed, prefill, probe)
        setup.append(secs)
    oracle = Oracle(prefill, s)

    answers, lat = _replay(s, ops, probe, time.perf_counter() + seconds)
    busy = sum(sum(xs) for xs in lat.values())
    done = len(answers)
    failed = _judge(oracle, ops, answers) + (not oracle.prefill_ok)
    base_n = min(done, BASELINE_OPS)
    base = sortedlist_replay(prefill, ops[:base_n], probe)

    info: dict[str, tuple[float, str]] = {}
    for kind, xs in lat.items():
        if xs:
            xs.sort()
            for q in (50, 90, 99):
                value = _quantile(xs, q / 100) * 1e6
                info[f"{KIND_NAMES[kind]}_us_p{q}"] = (value, f"us n={len(xs)}")
    query = sorted(lat[FINDANY] + lat[EVALUATE])
    metrics = {
        "ops_per_s": (done / busy, "1/s"),
        "query_us_p50": (_quantile(query, 0.5) * 1e6, "us"),
        "setup_s": (statistics.median(setup), "s"),
        "heap_bytes_per_key": (heap, "B"),
        "space_bits_per_key": (s.space_bits() / _live_count(s), "bit"),
    }
    info["failed_ops_frac"] = (failed / done, "frac")
    info["baseline.sortedlist_us_per_op"] = (base / base_n * 1e6, f"us n={base_n}")
    info["ops_timed"] = (done, "count")
    info["live_keys"] = (_live_count(s), "count")
    info["probe.median_ms"] = (statistics.median(probe.samples) * 1e3, "ms")
    if wl.name == "query-short-w64":
        probes, wrong = _edge_check(s, oracle, seed)
        info["edge.out_of_universe_probes"] = (probes, "count")
        info["edge.out_of_universe_wrong"] = (wrong, "count")
    return metrics, info, done, failed


def _trace_layers(tracer, s, wl) -> None:
    if wl.family == "phash":
        # MultiplyShiftHash has __slots__, so its owners' references are swapped
        s._reduce = tracer.timed(s._reduce, "hashing", "reduce")
        family = s._family
        tracer.wrap(family, "hashing", ("bucket_of",))
        members = [tracer.timed(family.member(i + 1), "hashing", "member")
                   for i in range(family.buckets)]
        family.member = lambda i: members[i - 1]
        for d in s._buckets:
            tracer.wrap(d, "compactdict", ("insert", "lookup", "delete"))
        return
    tracer.wrap(s.pred, "predecessor.S", ("insert", "delete", "pred", "succ"))
    tracer.wrap(s._sbar_pred, "predecessor.Sbar", ("insert", "delete", "pred", "succ"))
    tracer.wrap(s.nav, "navlist", ("insert_first", "insert_after", "delete",
                                   "nearest_element_left", "nearest_element_right"))
    tracer.wrap(s.index, "rangereport.index", ("add", "set", "drop", "get"))
    if s.index._filter is not None:
        tracer.wrap(s.index._filter, "bloomier", ("insert", "replace", "delete", "lookup"))
    tracer.count(s, "rangereport", "test_branching")


def trace(wl, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    from layertrace import LayerTracer

    prefill, ops = _inputs(wl, seed, int(seconds * wl.trace_rate))
    s = build(wl, seed, prefill)
    oracle = Oracle(prefill, s)
    probe = SpeedProbe()
    half = len(ops) // 2
    answers0, lat0 = _replay(s, ops[:half], probe)
    tracer = LayerTracer()
    _trace_layers(tracer, s, wl)
    answers1, lat1 = _replay(s, ops[half:], probe, tracer=tracer, wl=wl)
    scale = probe.scale()
    busy0 = sum(sum(xs) for xs in lat0.values())
    busy1 = sum(sum(xs) for xs in lat1.values())
    done0, done1 = len(answers0), len(answers1)
    failed = _judge(oracle, ops, answers0 + answers1) + (not oracle.prefill_ok)

    def per(op_class: str, x: float) -> float:
        n = tracer.ops.get(op_class, [0])[0]
        return x / n if n else 0.0

    def us(op_class: str, layer: str) -> float:
        return per(op_class, tracer.self_seconds(op_class, layer) * scale * 1e6)

    def calls(op_class: str, layer: str, methods=None) -> float:
        return per(op_class, tracer.calls(op_class, layer, methods))

    U, Q, O = "update", "query", "op"
    tb = tracer.calls(Q, "rangereport", ("test_branching",))
    range_wl = wl.family == "range"
    bloom = s.index._filter if range_wl else None
    index_entries = 0
    if range_wl:
        index_entries = bloom.live_count if bloom is not None else len(s.index._store)
    values = {
        "predecessor.S.calls_per_update": calls(U, "predecessor.S"),
        "predecessor.S.us_per_update": us(U, "predecessor.S"),
        "predecessor.Sbar.calls_per_update": calls(U, "predecessor.Sbar"),
        "predecessor.Sbar.us_per_update": us(U, "predecessor.Sbar"),
        "predecessor.queries_per_query":
            calls(Q, "predecessor.S") + calls(Q, "predecessor.Sbar"),
        "navlist.calls_per_update": calls(U, "navlist"),
        "navlist.us_per_update": us(U, "navlist"),
        "navlist.nearest_calls_per_query": calls(
            Q, "navlist", ("nearest_element_left", "nearest_element_right")),
        "navlist.us_per_query": us(Q, "navlist"),
        "navlist.max_buckets_examined": s.nav.max_examined if range_wl else 0,
        "rangereport.index.writes_per_update": calls(U, "rangereport.index", ("add", "set", "drop")),
        "rangereport.index.reads_per_query": calls(Q, "rangereport.index", ("get",)),
        "rangereport.index.us_per_update": us(U, "rangereport.index"),
        "rangereport.index.us_per_query": us(Q, "rangereport.index"),
        "rangereport.index.entries_per_key": index_entries / _live_count(s),
        "rangereport.test_branching_per_query": per(Q, tb),
        "rangereport.test_branching_true_frac":
            tracer.truthy(Q, "rangereport", "test_branching") / tb if tb else 0.0,
        "rangereport.self_us_per_update": us(U, "rangereport"),
        "rangereport.self_us_per_query": us(Q, "rangereport"),
        "bloomier.calls_per_update": calls(U, "bloomier"),
        "bloomier.us_per_update": us(U, "bloomier"),
        "bloomier.us_per_query": us(Q, "bloomier"),
        "bloomier.verbatim_frac":
            len(bloom._exact) / bloom.live_count if bloom is not None else 0.0,
        "perfecthash.self_us_per_op": us(O, "perfecthash"),
        "perfecthash.spill_peak": s.spill_peak if not range_wl else 0,
        "compactdict.calls_per_op": calls(O, "compactdict"),
        "compactdict.us_per_op": us(O, "compactdict"),
        "hashing.us_per_op": us(O, "hashing"),
        "trace.overhead_frac": (busy1 / done1) / (busy0 / done0) - 1.0,
    }
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}

    info: dict[str, tuple[float, str]] = {}
    for op_class, (n, secs) in sorted(tracer.ops.items()):
        info[f"trace.{op_class}_ops"] = (n, "count")
        info[f"trace.{op_class}_us_per_op"] = (secs / n * scale * 1e6, "us")
        layers = sorted({l for c, l, _ in tracer.totals if c == op_class})
        for layer in layers:
            share = tracer.self_seconds(op_class, layer) / secs
            info[f"trace.{op_class}.{layer}.self_share"] = (share, "frac")
    gap = tracer.self_sum_gap()
    info["trace.self_sum_gap_frac"] = (gap, "frac")
    # the layers' self times must add up to the traced op time
    failed += gap > 1e-6
    return metrics, info, done0 + done1, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    wl = WORKLOADS[args.workload]
    run = trace if args.trace else measure
    metrics, info, attempted, failed = run(wl, args.seed, args.seconds)
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
