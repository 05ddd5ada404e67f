"""Serving benchmark: multi-client pricing through one shared daemon.

The persistent store made repeat pricing free across *sequential*
sessions, but its single-writer contract (enforced by the store's
advisory lock) means concurrent searches cannot share it directly —
each concurrent client owns a private cache and recomputes every
distinct design for itself.  The pricing daemon (``repro serve``)
closes that gap: one hosted evaluation tier (LRU + evaluation store;
per-layer cost cells are priced per batch, never persisted) behind a
Unix socket, where the first submit of a design prices it and
every later submit (any client) hits the shared LRU, and a single
writer task keeping all store appends serialized.

The benchmark prices a repeat-heavy trace — K concurrent clients each
run S sessions over the same pool of D distinct designs, so the fleet
requests every design K x S times.  The evaluation context is
deliberately heavyweight (three network chains from two workloads
under a tight latency constraint, the regime the co-exploration paper
actually searches in), so a miss costs real HAP solver work — the
thing a shared cache amortises.  Two harnesses differ only in
sharing:

- **private** (the status quo): K threads, each session with its own
  fresh in-process :class:`~repro.core.evalservice.EvalService`.
  Concurrent runs cannot share the persistent store (its writer lock
  enforces exactly that), so every session starts cold and the fleet
  computes K x S x D misses.
- **served**: the same K threads and sessions as
  :class:`~repro.core.client.RemoteEvalService` clients of one cold
  daemon; the fleet computes each design once (D computations, each
  on the first submit that asks for it — the shared LRU answers
  everything else, across clients and sessions alike).

Gates (asserted on every attempt):

- **bit-identity** — every served evaluation equals the in-process
  reference, for every client and request;
- **single-compute** — the daemon's ``computed`` counter equals the
  number of distinct designs (no design priced twice: later submits
  were LRU hits);
- **>= 2x aggregate throughput** — the served fleet finishes the
  trace at least ``SPEEDUP_GATE`` times faster than the private-cache
  fleet (best of ``ATTEMPTS``, so scheduler hiccups on shared runners
  do not flake).

Machine-readable record: ``benchmarks/results/BENCH_serve.json``.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src:. python benchmarks/bench_serve.py [--quick]

or through pytest (``pytest benchmarks/bench_serve.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.accel import AllocationSpace, ResourceBudget
from repro.core import EvalService, Evaluator, RemoteEvalService
from repro.core.server import serve_in_thread
from repro.cost import CostModel
from repro.utils.rng import new_rng
from repro.workloads import w1, w2
from repro.workloads.workload import DesignSpecs, PenaltyBounds

SEED = 17
CLIENTS = 4
SESSIONS = 4  # runs per client; private caches restart cold each one
DISTINCT, DISTINCT_QUICK = 80, 30
SUBMIT_BATCH = 16  # designs per evaluate_many call, like driver rounds
SPEEDUP_GATE = 2.0
ATTEMPTS = 3


def bench_workload():
    """A heavyweight evaluation context: both W1 tasks plus W2's
    second task (three network chains per design) under a tight
    latency budget, so every miss runs a real feasibility hill-climb
    instead of an already-feasible no-op solve."""
    base, other = w1(), w2()
    raw = list(base.tasks) + [
        dataclasses.replace(task, name=task.name + "-b")
        for task in other.tasks[1:]]
    tasks = tuple(dataclasses.replace(task, weight=1.0 / len(raw))
                  for task in raw)
    specs = DesignSpecs(latency_cycles=600_000, energy_nj=3.0e9,
                        area_um2=6.0e9)
    return dataclasses.replace(base, name="w1w2-tight", tasks=tasks,
                               specs=specs,
                               bounds=PenaltyBounds.from_specs(specs))


def sample_pool(workload, n: int) -> list:
    """``n`` distinct seeded (networks, accelerator) designs; at least
    three active sub-accelerators each, so the scheduler has real slot
    choices to price."""
    allocation = AllocationSpace(
        num_slots=4,
        budget=ResourceBudget(max_pes=4096, max_bandwidth_gbps=64))
    rng = new_rng(SEED)
    pool = []
    for _ in range(n):
        nets = tuple(task.space.decode(task.space.random_indices(rng))
                     for task in workload.tasks)
        accel = allocation.random_design(rng)
        while sum(s.is_active for s in accel.subaccs) < 3:
            accel = allocation.random_design(rng)
        pool.append((nets, accel))
    return pool


def client_trace(pool: list, client: int) -> list:
    """One client's session trace: the full pool, client-shuffled, so
    every request repeats across the fleet (and across sessions)."""
    rng = new_rng(SEED + 100 + client)
    return [pool[i] for i in rng.permutation(len(pool))]


def price_in_batches(service, trace: list) -> list:
    evaluations = []
    for start in range(0, len(trace), SUBMIT_BATCH):
        evaluations.extend(
            service.evaluate_many(trace[start:start + SUBMIT_BATCH]))
    return evaluations


def run_fleet(make_service, traces: list[list]) -> tuple[list, float]:
    """Price every trace on its own thread, ``SESSIONS`` times each
    with a fresh service; returns (per-client per-session evaluations,
    wall-clock).  ``make_service(client)`` builds that client's
    pricing tier — the only thing the two harnesses vary."""
    results: list = [None] * len(traces)
    errors: list = []
    barrier = threading.Barrier(len(traces) + 1)

    def run(slot: int) -> None:
        try:
            barrier.wait()
            sessions = []
            for _ in range(SESSIONS):
                service = make_service(slot)
                try:
                    sessions.append(
                        price_in_batches(service, traces[slot]))
                finally:
                    service.close()
            results[slot] = sessions
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in range(len(traces))]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return results, elapsed


def run_attempt(workload, pool: list, traces: list[list],
                want: dict) -> dict:
    """One private-vs-served comparison; gates asserted inline."""
    params = CostModel().params

    def private_service(_client: int) -> EvalService:
        return EvalService(Evaluator(workload, CostModel(),
                                     trainer=None, rho=10.0))

    private_results, private_s = run_fleet(private_service, traces)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        with serve_in_thread(
                store_path=Path(tmp) / "store.bin") as server:

            def served_service(_client: int) -> RemoteEvalService:
                return RemoteEvalService(server.socket_path, workload,
                                         params, 10.0)

            served_results, served_s = run_fleet(served_service, traces)
            computed = server.counters["computed"]
            (service,) = server.services.values()
            cache_hits = service.stats.hits

    requests = SESSIONS * sum(len(trace) for trace in traces)
    for results, label in ((private_results, "private"),
                           (served_results, "served")):
        for client, (trace, sessions) in enumerate(
                zip(traces, results)):
            for session, evaluations in enumerate(sessions):
                for index, (pair, evaluation) in enumerate(
                        zip(trace, evaluations)):
                    assert evaluation == want[id(pair)], (
                        f"{label} client {client} session {session} "
                        f"request {index} is not bit-identical to "
                        "the in-process reference")
    assert computed == len(pool), (
        f"daemon computed {computed} misses for {len(pool)} distinct "
        "designs — a design was priced again instead of hitting the "
        "shared LRU")
    return {
        "clients": len(traces),
        "sessions": SESSIONS,
        "distinct_designs": len(pool),
        "requests": requests,
        "private_s": private_s,
        "served_s": served_s,
        "speedup": private_s / served_s if served_s > 0 else float("inf"),
        "private_throughput_rps": requests / private_s,
        "served_throughput_rps": requests / served_s,
        "computed": computed,
        "cache_hits": cache_hits,
    }


def run_benchmark(quick: bool = False) -> dict:
    workload = bench_workload()
    pool = sample_pool(workload, DISTINCT_QUICK if quick else DISTINCT)
    traces = [client_trace(pool, client) for client in range(CLIENTS)]
    reference = Evaluator(workload, CostModel(), trainer=None, rho=10.0)
    want = {id(pair): reference.evaluate_hardware(*pair)
            for pair in pool}
    best: dict | None = None
    for attempt in range(ATTEMPTS):
        report = run_attempt(workload, pool, traces, want)
        if best is None or report["speedup"] > best["speedup"]:
            best = report
        if best["speedup"] >= SPEEDUP_GATE:
            break
    best["attempts"] = attempt + 1
    return best


def render(report: dict) -> str:
    return (
        "Served pricing: "
        f"{report['clients']} concurrent clients x "
        f"{report['sessions']} sessions x "
        f"{report['distinct_designs']} distinct designs "
        f"({report['requests']} requests, private caches restart "
        "cold each session)\n"
        f"private caches: {report['private_s'] * 1e3:.0f} ms "
        f"({report['private_throughput_rps']:.0f} req/s) -> daemon: "
        f"{report['served_s'] * 1e3:.0f} ms "
        f"({report['served_throughput_rps']:.0f} req/s); "
        f"{report['speedup']:.2f}x aggregate (gate >= "
        f"{SPEEDUP_GATE:.1f}x, best of {report['attempts']})\n"
        f"daemon computed {report['computed']} misses (one per "
        f"distinct design, on its first submit; {report['cache_hits']} "
        "LRU hits answered the rest); every evaluation "
        "bit-identical to in-process")


def to_json(report: dict) -> dict:
    """Flatten into the BENCH_serve.json schema."""
    return {
        **{key: report[key] for key in (
            "clients", "sessions", "distinct_designs", "requests",
            "computed", "cache_hits", "speedup", "attempts")},
        "private_ms": report["private_s"] * 1e3,
        "served_ms": report["served_s"] * 1e3,
        "private_throughput_rps": report["private_throughput_rps"],
        "served_throughput_rps": report["served_throughput_rps"],
        "gate": (f"served fleet >= {SPEEDUP_GATE}x private fleet, "
                 "computed == distinct designs, evaluations "
                 "bit-identical"),
    }


def test_served_multi_client(benchmark=None):
    """Acceptance: bit-identity and single-compute (asserted inside
    run_benchmark), served fleet >= 2x private-cache fleet."""
    if benchmark is not None:
        from benchmarks.conftest import run_once, write_json, write_report

        report = run_once(benchmark, run_benchmark)
        write_report("bench_serve", render(report))
        write_json("serve", to_json(report))
    else:
        report = run_benchmark()
    assert report["speedup"] >= SPEEDUP_GATE, render(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI smoke tests")
    args = parser.parse_args(argv)
    report = run_benchmark(quick=args.quick)
    print(render(report))
    try:
        from benchmarks.conftest import write_json

        write_json("serve", to_json(report), quick=args.quick)
    except ImportError:  # pragma: no cover - repo root not on sys.path
        pass
    if report["speedup"] < SPEEDUP_GATE:
        print(f"FAIL: served aggregate speedup {report['speedup']:.2f}x "
              f"below the {SPEEDUP_GATE:.1f}x gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
