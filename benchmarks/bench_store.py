"""Store benchmark: cross-run warm start from the persistent tier.

PRs 1-3 made repeat pricing free *within* a process; every new process
still started cold.  The persistent evaluation store
(:mod:`repro.core.store`) closes that gap: priced designs are appended
durably, and any later run answers repeat requests from disk instead of
re-running the cost model + HAP solve.

Two cold/warm session pairs run against one store file each, simulating
a second session over each search family:

- **NASAIC** (controller + training path + hardware): gates
  *correctness* — the warm run's search outcome is **bit-identical** to
  the cold run's (trajectory, explored set; everything except the
  which-tier-answered accounting), >= 90% of its requests are served
  without computing, and ``store_hits > 0``.  Wall-clock is reported,
  not gated: the controller/training work the store cannot remove is
  identical in both sessions and bounds the ratio on small runs.
- **Monte-Carlo** (pure hardware pricing, the repeat-heavy shape of
  budget sweeps and table regenerations): gates *speed* — the warm
  session beats the cold one by >= 2x (best of 3 attempts, so scheduler
  hiccups on shared runners do not flake), plus the same bit-identity
  and served-rate checks.

Machine-readable record: ``benchmarks/results/BENCH_store.json`` with
per-family ``cold_ms`` / ``warm_ms`` / ``speedup`` / ``served_rate``
blocks and the gate description.

**Scale mode** (``--scale``) gates the offset-index tier instead: a
synthetic corpus ~10^3 entries and one ~10^6 entries (``--quick``
shrinks the large corpus), asserting that reopening the big store and
answering warm lookups from it stay within 2x of the small-store
numbers (with absolute noise floors) — i.e. open cost is the index
stamp, not an O(n) unpickle, and lookups are index seeks, not scans.
The same run compacts the large store and re-probes every sampled
address for bit-identical answers, live and after a cold reopen.
Record: ``benchmarks/results/BENCH_store_scale.json``.

Run standalone (CI smoke uses ``--quick`` for both modes)::

    PYTHONPATH=src:. python benchmarks/bench_store.py [--quick] [--scale]

or through pytest (``pytest benchmarks/bench_store.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import tempfile
import time
from pathlib import Path

from repro.accel import AllocationSpace
from repro.core import NASAIC, NASAICConfig, EvalStore, Evaluator
from repro.core.evalservice import design_content
from repro.core.serialization import result_to_dict
from repro.cost import CostModel
from repro.utils.rng import new_rng
from repro.workloads import w1

NASAIC_SCALE = dict(episodes=6, hw_steps=6)
NASAIC_QUICK = dict(episodes=3, hw_steps=4)
MC_RUNS, MC_QUICK_RUNS = 300, 80
SEED = 9
SPEEDUP_GATE = 2.0
SERVED_GATE = 0.9
ATTEMPTS = 3

SCALE_BASELINE = 1_000
SCALE_TARGET = 1_000_000
SCALE_QUICK_TARGET = 30_000
SCALE_RATIO_GATE = 2.0
# Absolute noise floors: at these magnitudes the 2x ratio would gate
# scheduler jitter, not algorithmic growth (an O(n) open of 10^6
# records costs seconds, far above 50 ms).
SCALE_OPEN_FLOOR_S = 0.05
SCALE_LOOKUP_FLOOR_S = 200e-6
SCALE_BATCH = 10_000
SCALE_PROBES = 64
SCALE_OPEN_REPS = 5
SCALE_LOOKUP_REPS = 400


def outcome_shape(result) -> dict:
    """Search outcome facts that must not depend on which tier answered
    (the warm start turns misses into store hits by design)."""
    payload = result_to_dict(result)
    for key in ("cache_hits", "cache_misses", "eval_seconds", "pricing"):
        payload.pop(key)
    return payload


def timed_nasaic(store: EvalStore, config: NASAICConfig):
    search = NASAIC(w1(), config=config, store=store)
    started = time.perf_counter()
    result = search.run()
    elapsed = time.perf_counter() - started
    search.close()
    return result, search.evalservice.stats.snapshot(), elapsed


def timed_mc(store: EvalStore, runs: int):
    from repro.accel import AllocationSpace
    from repro.core import EvalService, Evaluator
    from repro.core.baselines import _MonteCarloStrategy
    from repro.core.driver import SearchDriver
    from repro.cost import CostModel
    from repro.train import SurrogateTrainer, default_surrogate

    workload = w1()
    surrogate = default_surrogate([t.space for t in workload.tasks])
    evaluator = Evaluator(workload, CostModel(),
                          SurrogateTrainer(surrogate))
    strategy = _MonteCarloStrategy(workload, AllocationSpace(), evaluator,
                                   runs=runs, seed=SEED + 8, chunk=32)
    with EvalService(evaluator, store=store) as service:
        started = time.perf_counter()
        result = SearchDriver(strategy, service).run()
        elapsed = time.perf_counter() - started
        return result, service.stats.snapshot(), elapsed


def cold_warm(runner, workdir: Path, name: str) -> dict:
    """One cold/warm session pair over a fresh store file."""
    store_path = workdir / f"{name}.store"
    with EvalStore(store_path) as store:
        cold_result, cold_stats, cold_s = runner(store)
    assert cold_stats.store_hits == 0, "a fresh store cannot answer"
    with EvalStore(store_path) as store:  # "new session": reopen
        warm_result, warm_stats, warm_s = runner(store)
        store_entries = len(store)
    # Bit-identity: warm-starting may not change a single outcome.
    assert outcome_shape(warm_result) == outcome_shape(cold_result), \
        f"warm-started {name} run diverged from the cold run"
    served_rate = (1.0 - warm_stats.misses / warm_stats.requests
                   if warm_stats.requests else 0.0)
    assert warm_stats.store_hits > 0, f"no store reuse in {name}"
    assert served_rate >= SERVED_GATE, (
        f"{name}: warm run computed {warm_stats.misses} of "
        f"{warm_stats.requests} requests (served rate "
        f"{served_rate:.1%} < {SERVED_GATE:.0%})")
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "requests": warm_stats.requests,
        "store_hits": warm_stats.store_hits,
        "warm_misses": warm_stats.misses,
        "served_rate": served_rate,
        "store_entries": store_entries,
        "store_bytes": store_path.stat().st_size,
    }


def run_benchmark(quick: bool = False) -> dict:
    nasaic_config = NASAICConfig(
        seed=SEED, **(NASAIC_QUICK if quick else NASAIC_SCALE))
    mc_runs = MC_QUICK_RUNS if quick else MC_RUNS
    with tempfile.TemporaryDirectory() as workdir:
        nasaic = cold_warm(
            lambda store: timed_nasaic(store, nasaic_config),
            Path(workdir), "nasaic")
    best_mc: dict | None = None
    for attempt in range(ATTEMPTS):
        with tempfile.TemporaryDirectory() as workdir:
            mc = cold_warm(lambda store: timed_mc(store, mc_runs),
                           Path(workdir), "mc")
        if best_mc is None or mc["speedup"] > best_mc["speedup"]:
            best_mc = mc
        if best_mc["speedup"] >= SPEEDUP_GATE:
            break
    best_mc["attempts"] = attempt + 1
    return {"nasaic": nasaic, "mc": best_mc}


def render(report: dict) -> str:
    def block(name: str, r: dict) -> str:
        return (f"{name}: cold {r['cold_s'] * 1e3:.0f} ms -> warm "
                f"{r['warm_s'] * 1e3:.0f} ms ({r['speedup']:.2f}x); "
                f"{r['store_hits']}/{r['requests']} requests from store, "
                f"{r['warm_misses']} computed "
                f"({r['served_rate']:.1%} served; gate >= "
                f"{SERVED_GATE:.0%}); "
                f"{r['store_entries']} entries / "
                f"{r['store_bytes'] / 1024:.0f} KiB on disk")

    mc = report["mc"]
    return (
        "Persistent store warm start (two sessions per family, "
        "bit-identical outcomes)\n"
        + block("NASAIC (hw + training; speedup reported)",
                report["nasaic"]) + "\n"
        + block(f"MC     (pure hw pricing; gate >= "
                f"{SPEEDUP_GATE:.1f}x, best of {mc['attempts']})", mc))


def to_json(report: dict) -> dict:
    """Flatten into the BENCH_store.json schema."""
    def block(r: dict) -> dict:
        return {
            "cold_ms": r["cold_s"] * 1e3,
            "warm_ms": r["warm_s"] * 1e3,
            "speedup": r["speedup"],
            "requests": r["requests"],
            "store_hits": r["store_hits"],
            "warm_misses": r["warm_misses"],
            "served_rate": r["served_rate"],
            "store_entries": r["store_entries"],
            "store_bytes": r["store_bytes"],
        }

    return {
        "nasaic": block(report["nasaic"]),
        "mc": {**block(report["mc"]), "attempts": report["mc"]["attempts"]},
        "gate": (f"mc speedup >= {SPEEDUP_GATE}x, served_rate >= "
                 f"{SERVED_GATE} (both), outcomes bit-identical (both)"),
    }


# ----------------------------------------------------------------------
# Scale mode: the offset-index tier at ~10^6 entries
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _template_design() -> tuple:
    """One priced W1 design, ``(content key, evaluation)``: the template
    every synthetic record varies (the store keeps only real
    evaluations, and pricing 10^6 designs would dwarf the benchmark)."""
    workload = w1()
    networks = tuple(t.space.decode(t.space.smallest_indices())
                     for t in workload.tasks)
    accelerator = AllocationSpace().random_design(new_rng(SEED))
    evaluation = Evaluator(workload, CostModel(), trainer=None
                           ).evaluate_hardware(networks, accelerator)
    return design_content(networks, accelerator), evaluation


def _synthetic_entry(i: int):
    """Deterministic synthetic record ``i``: a handful of contexts,
    per-design digests and unique keys — the shape a long campaign
    writes.  Record ``i`` is the template design with ``i`` stamped into
    its first genotype value and its evaluation's latency."""
    (identities, slots, budget), evaluation = _template_design()
    (backbone, dataset, genotype), *others = identities
    key = (((backbone, dataset, (i,) + genotype[1:]), *others), slots,
           budget)
    return (f"scale-context-{i % 7}", f"scale-digest-{i}", key,
            dataclasses.replace(evaluation, latency_cycles=i))


def _build_corpus(path: Path, entries: int) -> float:
    """Append ``entries`` synthetic records in batches; returns build
    seconds.  Several ``put_memo`` rounds leave superseded memo records
    behind so the compaction stage has something real to drop."""
    started = time.perf_counter()
    with EvalStore(path) as store:
        for base in range(0, entries, SCALE_BATCH):
            store.put_many([_synthetic_entry(i) for i in
                            range(base, min(base + SCALE_BATCH, entries))])
            store.put_memo(f"scale-params-{base % 5}",
                           {("memo", base): base * 1.0})
        assert len(store) == entries, "corpus build dropped entries"
    return time.perf_counter() - started


def _measure_store(path: Path, entries: int) -> dict:
    """Open time (best of ``SCALE_OPEN_REPS`` fresh constructions) and
    warm per-lookup seconds over sampled known addresses."""
    open_s = float("inf")
    for _ in range(SCALE_OPEN_REPS):
        started = time.perf_counter()
        store = EvalStore(path, read_only=True)
        open_s = min(open_s, time.perf_counter() - started)
        store.close()
    probes = [_synthetic_entry(i * (entries // SCALE_PROBES) % entries)
              for i in range(SCALE_PROBES)]
    store = EvalStore(path, read_only=True)
    try:
        assert store.index_used, "store opened without its offset index"
        for salt, digest, key, expected in probes:  # warm up: memmap
            assert store.get(salt, digest, key) == expected
        started = time.perf_counter()
        for rep in range(SCALE_LOOKUP_REPS):
            salt, digest, key, _ = probes[rep % len(probes)]
            store.get(salt, digest, key)
        lookup_s = (time.perf_counter() - started) / SCALE_LOOKUP_REPS
    finally:
        store.close()
    return {"entries": entries, "open_s": open_s, "lookup_s": lookup_s,
            "bytes": path.stat().st_size}


def run_scale_benchmark(quick: bool = False) -> dict:
    target = SCALE_QUICK_TARGET if quick else SCALE_TARGET
    with tempfile.TemporaryDirectory() as workdir:
        small_path = Path(workdir) / "small.store"
        large_path = Path(workdir) / "large.store"
        _build_corpus(small_path, SCALE_BASELINE)
        build_s = _build_corpus(large_path, target)
        small = _measure_store(small_path, SCALE_BASELINE)
        large = _measure_store(large_path, target)

        # Compaction: answers must be bit-identical before and after,
        # live and across a cold reopen.
        probes = [_synthetic_entry(i * (target // SCALE_PROBES) % target)
                  for i in range(SCALE_PROBES)]
        with EvalStore(large_path) as store:
            before = [store.get(s, d, k) for s, d, k, _ in probes]
            report = store.compact()
            after = [store.get(s, d, k) for s, d, k, _ in probes]
        assert after == before, "compaction changed a live answer"
        with EvalStore(large_path, read_only=True) as store:
            cold = [store.get(s, d, k) for s, d, k, _ in probes]
        assert cold == before, "compaction changed an answer on reopen"
        compaction = {"bytes_before": report["bytes_before"],
                      "bytes_after": report["bytes_after"],
                      "records_dropped": report["records_dropped"],
                      "probes": len(probes)}
    open_gate_s = max(SCALE_RATIO_GATE * small["open_s"],
                      SCALE_OPEN_FLOOR_S)
    lookup_gate_s = max(SCALE_RATIO_GATE * small["lookup_s"],
                        SCALE_LOOKUP_FLOOR_S)
    return {"baseline": small, "scaled": large, "build_s": build_s,
            "open_gate_s": open_gate_s, "lookup_gate_s": lookup_gate_s,
            "compaction": compaction,
            "open_ok": large["open_s"] <= open_gate_s,
            "lookup_ok": large["lookup_s"] <= lookup_gate_s}


def render_scale(report: dict) -> str:
    small, large = report["baseline"], report["scaled"]
    comp = report["compaction"]

    def block(name: str, r: dict) -> str:
        return (f"{name}: {r['entries']:>9,} entries / "
                f"{r['bytes'] / 1e6:7.1f} MB — open "
                f"{r['open_s'] * 1e3:6.2f} ms, warm lookup "
                f"{r['lookup_s'] * 1e6:6.1f} us")

    return (
        "Store scale: offset-index open + lazy lookups "
        f"(gate: <= {SCALE_RATIO_GATE:.0f}x baseline, floors "
        f"{SCALE_OPEN_FLOOR_S * 1e3:.0f} ms / "
        f"{SCALE_LOOKUP_FLOOR_S * 1e6:.0f} us)\n"
        + block("baseline", small) + "\n"
        + block("scaled  ", large)
        + f" [{'OK' if report['open_ok'] else 'FAIL'} open, "
        f"{'OK' if report['lookup_ok'] else 'FAIL'} lookup]\n"
        f"compaction: {comp['bytes_before'] / 1e6:.1f} MB -> "
        f"{comp['bytes_after'] / 1e6:.1f} MB, "
        f"{comp['records_dropped']} records dropped, "
        f"{comp['probes']} probed answers bit-identical "
        "(live + cold reopen)")


def to_scale_json(report: dict) -> dict:
    """Flatten into the BENCH_store_scale.json schema."""
    def block(r: dict) -> dict:
        return {"entries": r["entries"], "bytes": r["bytes"],
                "open_ms": r["open_s"] * 1e3,
                "lookup_us": r["lookup_s"] * 1e6}

    small, large = report["baseline"], report["scaled"]
    return {
        "baseline": block(small),
        "scaled": {**block(large),
                   "open_ratio": large["open_s"] / small["open_s"],
                   "lookup_ratio": large["lookup_s"] / small["lookup_s"]},
        "build_s": report["build_s"],
        "compaction": report["compaction"],
        "gate": (f"scaled open <= max({SCALE_RATIO_GATE}x baseline, "
                 f"{SCALE_OPEN_FLOOR_S * 1e3:.0f}ms) and scaled warm "
                 f"lookup <= max({SCALE_RATIO_GATE}x baseline, "
                 f"{SCALE_LOOKUP_FLOOR_S * 1e6:.0f}us); compacted "
                 "answers bit-identical"),
    }


def test_store_scale(benchmark=None):
    """Acceptance: open time and warm-lookup latency stay flat (<= 2x
    with noise floors) from 10^3 to the scaled corpus, and compaction
    preserves every probed answer bit-identically."""
    if benchmark is not None:
        from benchmarks.conftest import (FULL_SCALE, run_once, write_json,
                                         write_report)

        report = run_once(benchmark,
                          lambda: run_scale_benchmark(quick=not FULL_SCALE))
        write_report("bench_store_scale", render_scale(report))
        write_json("store_scale", to_scale_json(report))
    else:
        report = run_scale_benchmark(quick=True)
    assert report["open_ok"] and report["lookup_ok"], render_scale(report)


def test_store_warm_start(benchmark=None):
    """Acceptance: bit-identical warm starts and >= 90% served from the
    store (asserted inside run_benchmark), MC session >= 2x faster."""
    if benchmark is not None:
        from benchmarks.conftest import run_once, write_json, write_report

        report = run_once(benchmark, run_benchmark)
        write_report("bench_store", render(report))
        write_json("store", to_json(report))
    else:
        report = run_benchmark()
    assert report["mc"]["speedup"] >= SPEEDUP_GATE, render(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke tests")
    parser.add_argument("--scale", action="store_true",
                        help="gate the offset-index tier at scale "
                             "instead of the warm-start sessions")
    args = parser.parse_args(argv)
    if args.scale:
        report = run_scale_benchmark(quick=args.quick)
        print(render_scale(report))
        try:
            from benchmarks.conftest import write_json

            write_json("store_scale", to_scale_json(report), quick=args.quick)
        except ImportError:  # pragma: no cover - repo root not on path
            pass
        if not (report["open_ok"] and report["lookup_ok"]):
            print("FAIL: store scale gates missed (see above)",
                  file=sys.stderr)
            return 1
        return 0
    report = run_benchmark(quick=args.quick)
    print(render(report))
    try:
        from benchmarks.conftest import write_json

        write_json("store", to_json(report), quick=args.quick)
    except ImportError:  # pragma: no cover - repo root not on sys.path
        pass
    if report["mc"]["speedup"] < SPEEDUP_GATE:
        print(f"FAIL: MC warm-start speedup "
              f"{report['mc']['speedup']:.2f}x below the "
              f"{SPEEDUP_GATE:.1f}x gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
