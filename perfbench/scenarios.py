"""The benchmark's three workloads, their correctness and mechanism
checks, and the per-layer metrics of a traced unit.

A *unit* is one measured process lifetime: one cold ``repro search`` or
``repro mc`` process, or one ``repro serve`` daemon from spawn to exit
under load.  A run repeats units until ``--seconds`` have elapsed and
reports medians over them, so each run sees several independent
set-ups and several sub-seeds derived from the run's seed.
"""

from __future__ import annotations

import json
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"
UNIT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``QUICK`` is the smoke run's minimal size."""

    search_episodes: int = 40
    search_hw_steps: int = 10
    search_checkpoint_every: int = 20
    mc_runs: int = 2000
    serve_pool: int = 800
    serve_batch: int = 8
    serve_batches_per_connection: int = 160
    serve_connections: int = 2
    repriced_per_unit: int = 4


FULL = Sizes()
QUICK = Sizes(search_episodes=6, search_checkpoint_every=2, mc_runs=200,
              serve_pool=80, serve_batches_per_connection=20,
              repriced_per_unit=2)


@dataclass
class Unit:
    """One measured process lifetime and what was checked about it."""

    traced: bool
    setup_s: float = 0.0
    wall_s: float = 0.0
    evals_per_s: float = 0.0
    rss_mb: float = 0.0
    rtts_ms: list[float] = field(default_factory=list)
    attempted: int = 1
    failures: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    events: list = field(default_factory=list)


def _spawn_launcher(report: Path, trace: str | None, cli_args: list[str],
                    log: Path) -> tuple[subprocess.Popen, int]:
    command = [sys.executable, str(LAUNCH), "--report", str(report)]
    if trace:
        command += ["--trace", trace]
    spawn_ns = time.perf_counter_ns()
    with open(log, "wb") as stderr:
        proc = subprocess.Popen(
            command + ["--spawn-ns", str(spawn_ns), "--", *cli_args],
            stdout=subprocess.DEVNULL, stderr=stderr)
    return proc, spawn_ns


def _stop(proc: subprocess.Popen) -> None:
    """Kill ``proc`` if it still runs and reap it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _tail(log: Path) -> str:
    text = log.read_text(errors="replace").strip().splitlines()
    return text[-1] if text else "no stderr"


def _shift(events: list, spawn_ns: int, origin_ns: int, pid: int) -> list:
    offset = (spawn_ns - origin_ns) / 1e3
    for event in events:
        event["ts"] += offset
        event["pid"] = pid
    return events


def _trace_layers(trace: dict) -> dict:
    """Per-layer metrics one traced process contributes."""
    layers, calls, totals = trace["layers"], trace["calls"], trace["totals"]

    def total(*names: str) -> float:
        return sum(totals.get(name, 0.0) for name in names)

    def count(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    return {
        "startup.interp_s": total("startup.interp"),
        "startup.import_s": total("startup.import"),
        "setup.construct_s": layers.get("setup", 0.0),
        "driver.self_s": layers.get("driver", 0.0),
        "controller.sample_s": total("controller.sample"),
        "controller.sample_calls": count("controller.sample"),
        "controller.backward_s": total("controller.backward"),
        "controller.backward_calls": count("controller.backward"),
        "reinforce.self_s": layers.get("reinforce", 0.0),
        "choices.decode_s": layers.get("choices", 0.0),
        "train.self_s": layers.get("train", 0.0),
        "evalservice.self_s": layers.get("evalservice", 0.0),
        "evaluator.self_s": layers.get("evaluator", 0.0),
        "problem.build_many_s": total("problem.build_many"),
        "problem.build_s": total("problem.build"),
        "hap.solve_s": total("hap.solve"),
        "hap.solve_calls": count("hap.solve"),
        "store.open_s": total("store.open"),
        "store.get_s": total("store.get"),
        "store.get_calls": count("store.get"),
        "store.put_s": total("store.put", "store.put_memo"),
        "store.put_calls": count("store.put", "store.put_memo"),
        "serialization.checkpoint_s": total("serialization.checkpoint"),
        "serialization.checkpoint_calls": count("serialization.checkpoint"),
        "serialization.save_result_s": total("serialization.save_result"),
        "protocol.encode_s": total("protocol.encode_frame",
                                   "protocol.encode_blob"),
        "protocol.decode_s": total("protocol.decode_frame",
                                   "protocol.decode_blob"),
        "trace.unattributed_s": trace["thread_layers"].get("unattributed",
                                                           0.0),
        "trace.wall_s": trace["wall_s"],
        "trace.closure_error": trace["closure_error"],
    }


def _pricing_layers(stats: dict) -> dict:
    """Per-layer counters read from a service's public stats."""
    requests = stats["hits"] + stats["misses"]
    memo = stats["cost_memo_hits"] + stats["cost_memo_misses"]
    return {
        "evalservice.requests": requests,
        "evalservice.hit_rate": stats["hits"] / requests if requests else 0.0,
        "evalservice.store_hits": stats["store_hits"],
        "cost.memo_hit_rate": (stats["cost_memo_hits"] / memo
                               if memo else 0.0),
        "hap.moves_priced": stats["hap_moves_priced"],
        "hap.moves_pruned": stats["hap_moves_pruned"],
        "hap.moves_resumed": stats["hap_moves_resumed"],
        "hap.batched_rounds": stats["hap_batched_rounds"],
    }


#: Run-JSON fields a re-priced design must reproduce bit-identically.
PRICED = ("latency_cycles", "energy_nj", "area_um2", "feasible")


class _Repricer:
    """Re-prices designs from a run JSON on a fresh ``Evaluator``."""

    def __init__(self, workload_name: str) -> None:
        from repro.accel import AllocationSpace
        from repro.core.evaluator import Evaluator
        from repro.cost import CostModel
        from repro.workloads import workload_by_name

        self.workload = workload_by_name(workload_name)
        self.allocation = AllocationSpace()
        self.evaluator = Evaluator(self.workload, CostModel(), None)

    def mismatches(self, solutions: list[dict]) -> int:
        from repro.accel.dataflow import Dataflow

        def network(space, genotype: list[int]):
            # A canonical genotype omits choices the decoded network
            # does not use (e.g. U-Net levels below its height); any
            # option decodes those to the same network.
            values = list(genotype) + [
                choice.options[0] for choice in space.choices[len(genotype):]]
            return space.decode(space.indices_of(tuple(values)))

        bad = 0
        for solution in solutions:
            networks = tuple(
                network(task.space, net["genotype"])
                for task, net in zip(self.workload.tasks,
                                     solution["networks"]))
            slots = [(Dataflow.from_name(sub["dataflow"]), sub["pes"],
                      sub["bandwidth_gbps"])
                     for sub in solution["accelerator"]]
            slots += [(self.allocation.dataflows[0], 0, 0)] * (
                self.allocation.num_slots - len(slots))
            hw = self.evaluator.evaluate_hardware(
                networks, self.allocation.build(slots))
            bad += (tuple(getattr(hw, name) for name in PRICED)
                    != tuple(solution[name] for name in PRICED))
        return bad


class ColdProcessWorkload:
    """``search-w1`` / ``mc-w3``: one cold CLI process per unit, from
    interpreter start to the run JSON durably on disk."""

    def __init__(self, name: str, sizes: Sizes, seed: int, work: Path,
                 origin_ns: int) -> None:
        self.name = name
        self.sizes = sizes
        self.work = work
        self.origin_ns = origin_ns
        self.rng = random.Random(seed)
        self.outputs: list[tuple[Unit, Path, int]] = []

    def expected_evaluations(self) -> int:
        sizes = self.sizes
        if self.name == "search-w1":
            return sizes.search_episodes * (1 + sizes.search_hw_steps)
        return sizes.mc_runs

    def cli_args(self, index: int, seed: int) -> list[str]:
        out = str(self.work / f"run{index}.json")
        sizes = self.sizes
        if self.name == "search-w1":
            return ["search", "--workload", "W1", "--seed", str(seed),
                    "--episodes", str(sizes.search_episodes),
                    "--hw-steps", str(sizes.search_hw_steps),
                    "--progress", "0",
                    "--checkpoint", str(self.work / f"run{index}.ckpt"),
                    "--checkpoint-every",
                    str(sizes.search_checkpoint_every),
                    "--out", out]
        return ["mc", "--workload", "W3", "--runs", str(sizes.mc_runs),
                "--seed", str(seed), "--out", out]

    def run_unit(self, index: int, traced: bool) -> Unit:
        seed = self.rng.randrange(1 << 30)
        report = self.work / f"run{index}.report.json"
        log = self.work / f"run{index}.log"
        proc, spawn_ns = _spawn_launcher(
            report, "process" if traced else None,
            self.cli_args(index, seed), log)
        unit = Unit(traced=traced)
        try:
            proc.wait(timeout=UNIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            unit.failures.append(f"unit {index} timed out")
        finally:
            _stop(proc)
        if proc.returncode != 0 or not report.exists():
            unit.failures.append(f"unit {index} (seed {seed}) exited "
                                 f"{proc.returncode}: {_tail(log)}")
            return unit
        rep = json.loads(report.read_text())
        if rep["ready_ns"] is None or rep["saved_ns"] is None:
            unit.failures.append(f"unit {index}: search never started or "
                                 f"never saved its result")
            return unit
        run_s = (rep["run_end_ns"] - rep["ready_ns"]) / 1e9
        unit.setup_s = (rep["ready_ns"] - spawn_ns) / 1e9
        unit.wall_s = (rep["saved_ns"] - spawn_ns) / 1e9
        unit.evals_per_s = self.expected_evaluations() / run_s
        unit.rss_mb = rep["maxrss_kb"] / 1024
        unit.rtts_ms = [ns / 1e6 for ns in rep["rounds_ns"]]
        if traced:
            unit.layers = _trace_layers(rep["trace"])
            unit.events = _shift(rep["trace"]["events"], spawn_ns,
                                 self.origin_ns, index)
        self.outputs.append((unit, self.work / f"run{index}.json", seed))
        return unit

    def check(self) -> None:
        """Correctness and counters, outside the timed window."""
        repricer = _Repricer("W1" if self.name == "search-w1" else "W3")
        for unit, path, seed in self.outputs:
            try:
                result = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                unit.failures.append(f"run JSON of seed {seed} "
                                     f"unreadable: {exc}")
                continue
            pricing = result["pricing"]
            stats = dict(
                hits=result["cache_hits"], misses=result["cache_misses"],
                store_hits=pricing["store_hits"],
                cost_memo_hits=pricing["cost_memo_hits"],
                cost_memo_misses=pricing["cost_memo_misses"],
                hap_moves_priced=pricing["hap_moves_priced"],
                hap_moves_pruned=pricing["hap_moves_pruned"],
                hap_moves_resumed=pricing["hap_moves_resumed"],
                hap_batched_rounds=pricing["hap_batched_rounds"])
            unit.counters = dict(
                stats, trainings_run=result["trainings_run"],
                trainings_skipped=result["trainings_skipped"])
            if unit.traced:
                unit.layers.update(_pricing_layers(stats))
                unit.layers["train.trainings_run"] = result["trainings_run"]
                unit.layers["train.trainings_skipped"] = \
                    result["trainings_skipped"]
            expected = self.expected_evaluations()
            if result["hardware_evaluations"] != expected:
                unit.failures.append(
                    f"seed {seed}: {result['hardware_evaluations']} "
                    f"hardware evaluations, {expected} designs proposed")
            if self.name == "search-w1" and not (
                    result["best"] and result["best"]["feasible"]):
                unit.failures.append(f"seed {seed}: no feasible best "
                                     f"solution")
            explored = result["explored"]
            sample = random.Random(seed).sample(
                explored, min(self.sizes.repriced_per_unit, len(explored)))
            bad = repricer.mismatches(sample)
            if bad:
                unit.failures.append(
                    f"seed {seed}: {bad} of {len(sample)} explored designs "
                    f"re-priced differently on a fresh Evaluator")

    def mechanism_problems(self, units: list[Unit]) -> list[str]:
        """Whether this workload still exercises what it is for."""
        def total(key: str) -> int:
            return sum(unit.counters.get(key, 0) for unit in units)

        problems = []
        if self.name == "search-w1":
            if total("hits") == 0:
                problems.append("search-w1: no LRU hits, so the cached "
                                "pricing path is no longer exercised")
            if total("trainings_skipped") == 0:
                problems.append("search-w1: no training skipped, so early "
                                "pruning is no longer exercised")
        else:
            if total("hits") != 0:
                problems.append(f"mc-w3: {total('hits')} cache hits, so "
                                f"pricing is no longer all uncached")
            if total("hap_moves_resumed") == 0:
                problems.append("mc-w3: no HAP delta-resumes, so the HAP "
                                "refinement kernel is no longer exercised")
        return problems


class ServedStoreWorkload:
    """``serve-w3``: a ``repro serve --store`` daemon per unit, loaded
    by this process over two connections in a closed loop.

    The store is seeded with half of a fixed W3 design pool before any
    unit; every unit starts its daemon on a fresh copy of that store,
    so each sees the same mix of store reads, misses (computed, then
    appended) and LRU or coalesced hits.
    """

    name = "serve-w3"

    def __init__(self, sizes: Sizes, seed: int, work: Path, origin_ns: int,
                 recorder) -> None:
        import numpy as np

        from repro.accel import AllocationSpace
        from repro.core.evalservice import EvalService, design_content
        from repro.core.evaluator import Evaluator
        from repro.core.store import EvalStore
        from repro.cost import CostModel
        from repro.workloads import workload_by_name

        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.origin_ns = origin_ns
        self.recorder = recorder
        self.workload = workload_by_name("W3")
        self.params = CostModel().params
        rng = np.random.default_rng(seed)
        allocation = AllocationSpace()
        pool, keys = [], set()
        while len(pool) < sizes.serve_pool:
            networks = tuple(
                task.space.decode(task.space.random_indices(rng))
                for task in self.workload.tasks)
            pair = (networks, allocation.random_design(rng))
            key = design_content(*pair)
            if key not in keys:
                keys.add(key)
                pool.append(pair)
        self.pool = pool
        self.seeded = len(pool) // 2
        self.store = work / "seed.store"
        store = EvalStore(self.store)
        try:
            with EvalService(Evaluator(self.workload, CostModel(), None),
                             store=store) as service:
                service.evaluate_many(pool[:self.seeded])
        finally:
            store.close()
        self.samples: list[tuple[Unit, int, object]] = []

    def _copy_store(self, index: int) -> Path:
        from repro.core.serialization import store_index_path

        target = self.work / f"unit{index}.store"
        shutil.copyfile(self.store, target)
        if store_index_path(self.store).exists():
            shutil.copyfile(store_index_path(self.store),
                            store_index_path(target))
        return target

    def _wait_accepting(self, sock_path: Path,
                        proc: subprocess.Popen) -> int | None:
        deadline = time.monotonic() + UNIT_TIMEOUT_S
        while time.monotonic() < deadline and proc.poll() is None:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(str(sock_path))
                return time.perf_counter_ns()
            except OSError:
                time.sleep(0.002)
            finally:
                probe.close()
        return None

    def run_unit(self, index: int, traced: bool) -> Unit:
        from repro.core.client import RemoteEvalService

        sizes = self.sizes
        unit = Unit(traced=traced, attempted=0)
        store = self._copy_store(index)
        sock_path = self.work / f"unit{index}.sock"
        report = self.work / f"unit{index}.report.json"
        log = self.work / f"unit{index}.log"
        proc, spawn_ns = _spawn_launcher(
            report, "daemon" if traced else None,
            ["serve", "--socket", str(sock_path), "--store", str(store)],
            log)
        clients: list = []
        try:
            ready_ns = self._wait_accepting(sock_path, proc)
            if ready_ns is None:
                unit.failures.append(f"daemon {index} never accepted: "
                                     f"{_tail(log)}")
                return unit
            unit.setup_s = (ready_ns - spawn_ns) / 1e9
            clients = [RemoteEvalService(sock_path, self.workload,
                                         self.params, 10.0, timeout=10.0)
                       for _ in range(sizes.serve_connections)]
            self.recorder.enabled = traced
            drawn, load_s = self._load(index, unit, clients)
            self.recorder.enabled = False
            unit.evals_per_s = (len(unit.rtts_ms) * sizes.serve_batch
                                / load_s)
            stats = clients[0].server_stats()
            server, service = stats["server"], stats["stats"]
            unit.counters = dict(server, store_hits=service.store_hits,
                                 misses=service.misses)
            fresh = len({i for i in drawn if i >= self.seeded})
            if server["computed"] != fresh:
                unit.failures.append(
                    f"daemon {index} computed {server['computed']} designs, "
                    f"{fresh} distinct requested designs were not in the "
                    f"store (exactly-once pricing broken)")
            retries = sum(client.stats.retries for client in clients)
            degraded = sum(client.stats.degraded for client in clients)
            if retries or degraded:
                unit.failures.append(f"daemon {index}: {retries} client "
                                     f"retries, {degraded} degraded")
            if traced:
                unit.layers = {
                    "client.retries": retries,
                    "server.computed": server["computed"],
                    "server.coalesced": server["coalesced"],
                    "server.refused_busy": server["refused_busy"],
                    "server.shed": server["shed"],
                    **_pricing_layers(vars(service))}
            clients[0].shutdown_server()
        except (ConnectionError, OSError, RuntimeError, ValueError) as exc:
            unit.failures.append(f"daemon {index}: {exc}")
        finally:
            self.recorder.enabled = False
            for client in clients:
                client.close()
            try:
                proc.wait(timeout=UNIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                unit.failures.append(f"daemon {index} did not shut down")
            _stop(proc)
        if proc.returncode != 0 or not report.exists():
            unit.failures.append(f"daemon {index} exited "
                                 f"{proc.returncode}: {_tail(log)}")
            return unit
        rep = json.loads(report.read_text())
        unit.wall_s = (rep["done_ns"] - spawn_ns) / 1e9
        unit.rss_mb = rep["maxrss_kb"] / 1024
        if traced:
            daemon = _trace_layers(rep["trace"])
            daemon["server.compute_s"] = rep["trace"]["totals"].get(
                "evaluator.evaluate_hardware", 0.0)
            client = self._client_layers()
            for key in ("protocol.encode_s", "protocol.decode_s"):
                daemon[key] += client[key]
            unit.layers.update(daemon)
            unit.layers["client.batch_s"] = client["client.batch_s"]
            unit.events = _shift(rep["trace"]["events"], spawn_ns,
                                 self.origin_ns, index) + client["events"]
        return unit

    def _client_layers(self) -> dict:
        spans = self.recorder.spans
        totals = tracing.layer_summary(spans, threading.get_ident())["totals"]
        events = tracing.chrome_events(spans, -1, self.origin_ns)
        self.recorder.spans = []
        return {"protocol.encode_s": totals.get("protocol.encode_frame", 0.0),
                "protocol.decode_s": (totals.get("protocol.decode_frame", 0.0)
                                      + totals.get("protocol.decode_blob",
                                                   0.0)),
                "client.batch_s": totals.get("client.batch", 0.0),
                "events": events}

    def _load(self, index: int, unit: Unit, clients: list
              ) -> tuple[set[int], float]:
        """Closed loop, no think time: each connection on its own thread
        sends its batches back to back.  Returns the pool indices drawn
        and the load's wall time."""
        sizes = self.sizes
        drawn: set[int] = set()
        lock = threading.Lock()
        start = threading.Barrier(len(clients) + 1)

        def connection(conn: int, client) -> None:
            rng = random.Random(f"{self.seed}-{index}-{conn}")
            rtts, picks, errors, seen = [], [], [], set()
            start.wait()
            for _ in range(sizes.serve_batches_per_connection):
                batch = [rng.randrange(len(self.pool))
                         for _ in range(sizes.serve_batch)]
                began = time.perf_counter()
                try:
                    replies = client.evaluate_many(
                        [self.pool[i] for i in batch])
                except (ConnectionError, OSError, RuntimeError,
                        ValueError) as exc:
                    # Past an error the connection's mix is no longer
                    # the workload's; stop instead of stacking timeouts.
                    errors.append(str(exc))
                    break
                rtts.append((time.perf_counter() - began) * 1e3)
                seen.update(batch)
                picks.append((batch[0], replies[0]))
            with lock:
                drawn.update(seen)
                unit.rtts_ms.extend(rtts)
                unit.attempted += len(rtts) + len(errors)
                unit.failures.extend(errors)
                chosen = random.Random(index * 7 + conn).sample(
                    picks, min(sizes.repriced_per_unit, len(picks)))
                self.samples.extend((unit, i, reply) for i, reply in chosen)

        threads = [threading.Thread(target=connection, args=(conn, client))
                   for conn, client in enumerate(clients)]
        for thread in threads:
            thread.start()
        start.wait()
        began = time.perf_counter()
        for thread in threads:
            thread.join()
        return drawn, time.perf_counter() - began

    def check(self) -> None:
        """Sampled replies must equal direct pricing on a fresh
        ``Evaluator`` (outside the timed window)."""
        from repro.core.evaluator import Evaluator
        from repro.cost import CostModel

        evaluator = Evaluator(self.workload, CostModel(), None)
        for unit, i, reply in self.samples:
            if reply != evaluator.evaluate_hardware(*self.pool[i]):
                unit.failures.append(f"served reply for pool design {i} "
                                     f"differs from direct pricing")

    def mechanism_problems(self, units: list[Unit]) -> list[str]:
        problems = []
        for key, what in (("store_hits", "store reads"),
                          ("persisted", "store writes"),
                          ("computed", "misses")):
            if any(unit.counters.get(key, 0) == 0 for unit in units):
                problems.append(f"serve-w3: a daemon saw no {what}, so "
                                f"the served-store path is no longer "
                                f"exercised")
        return problems
