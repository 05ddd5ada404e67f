"""The pricing daemon: protocol framing, serving, coalescing, locks.

The served tier's contract is the strong one everything else in the
repo holds to: a daemon-priced evaluation is **bit-identical** to an
in-process one, no matter which tier answered (LRU, shared, store,
coalesced) or how many clients raced for it.  The framing tests pin
the failure modes of a length-prefixed stream — oversize, truncation,
garbage — to loud errors instead of desynchronised mispricing.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import socket
import struct
import threading
import time
import warnings

import pytest

from suite_helpers import die_in_worker, sample_design_pairs
from repro.core.client import (
    DaemonBusyError,
    RemoteEvalService,
    parse_endpoint,
    probe_status,
)
from repro.core.evalservice import EvalService, design_content
from repro.core.evaluator import Evaluator
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
)
from repro.core.server import PricingServer, serve_in_thread
from repro.core.store import EvalStore, cost_params_digest
from repro.cost import CostModel
from repro.cost.model import CostModelParams
from repro.workloads import w1

RHO = 10.0


def make_params() -> CostModelParams:
    return CostModelParams()


def make_evaluator(workload):
    return Evaluator(workload, CostModel(make_params()), trainer=None,
                     rho=RHO)


def make_client(server, workload, **kwargs) -> RemoteEvalService:
    return RemoteEvalService(server.socket_path, workload,
                             make_params(), RHO, **kwargs)


def wait_until(predicate, timeout: float = 30.0) -> None:
    """Poll ``predicate`` until it holds (fails the test on timeout)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("condition not reached in time")
        time.sleep(0.01)


def direct_prices(workload, pairs) -> list:
    evaluator = make_evaluator(workload)
    return [evaluator.evaluate_hardware(*pair) for pair in pairs]


def gate_batches(server, gate: threading.Event, fail_on=None) -> list:
    """Hold the hosted service's batch pricing until ``gate`` opens.

    Returns the list the batch sizes are recorded in; a batch holding
    ``fail_on`` (a design pair) raises instead of pricing.
    """
    poison = design_content(*fail_on) if fail_on is not None else None
    (service,) = server.services.values()
    real = service.evaluator.evaluate_hardware_many
    sizes: list[int] = []

    def gated(batch):
        sizes.append(len(batch))
        gate.wait(timeout=30)
        if any(design_content(*pair) == poison for pair in batch):
            raise ValueError("design cannot be priced")
        return real(batch)

    service.evaluator.evaluate_hardware_many = gated
    return sizes


def in_thread(outcomes: dict, name: str, fn) -> threading.Thread:
    """Run ``fn`` on a thread; its result or exception lands in
    ``outcomes[name]``."""
    def run() -> None:
        try:
            outcomes[name] = fn()
        except Exception as exc:  # surfaced by the test's asserts
            outcomes[name] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def workload():
    return w1()


@pytest.fixture(scope="module")
def pairs(workload):
    return sample_design_pairs(workload, n=5, seed=11)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip_sync_and_async(self):
        payload = {"op": "submit", "id": 3,
                   "pairs": [("nets", "accel")] * 4}
        frame = encode_frame(payload)

        left, right = socket.socketpair()
        with left, right:
            send_frame(left, payload)
            assert recv_frame(right) == payload

        async def round_trip():
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)  # clean EOF after frame
            return first, second

        first, second = asyncio.run(round_trip())
        assert first == payload
        assert second is None

    def test_oversized_frame_refused_before_send(self):
        with pytest.raises(FrameError, match="exceeds the protocol"):
            encode_frame({"blob": b"x" * 4096}, max_bytes=64)

    def test_oversized_length_prefix_refused_on_read(self):
        blob = pickle.dumps({"op": "ping"})
        frame = struct.pack("<Q", MAX_FRAME_BYTES + 1) + blob

        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            return await read_frame(reader)

        with pytest.raises(FrameError, match="over the protocol limit"):
            asyncio.run(read())

    def test_truncated_body_raises_not_hangs(self):
        frame = encode_frame({"op": "ping"})

        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(frame[:-3])  # EOF mid-body
            reader.feed_eof()
            return await read_frame(reader)

        with pytest.raises(asyncio.IncompleteReadError):
            asyncio.run(read())

    def test_sync_truncation_mid_frame_raises(self):
        left, right = socket.socketpair()
        with right:
            with left:
                left.sendall(encode_frame({"op": "ping"})[:-3])
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(right)

    def test_garbage_body_is_a_frame_error(self):
        blob = b"this is not a pickle"
        left, right = socket.socketpair()
        with left, right:
            left.sendall(struct.pack("<Q", len(blob)) + blob)
            with pytest.raises(FrameError, match="unpicklable"):
                recv_frame(right)

    def test_endpoint_parsing(self):
        assert str(parse_endpoint("unix:///run/x.sock")) == "/run/x.sock"
        assert str(parse_endpoint("/tmp/y.sock")) == "/tmp/y.sock"
        with pytest.raises(ValueError, match="no socket path"):
            parse_endpoint("unix://")


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class TestServedPricing:
    def test_served_is_bit_identical_to_inprocess(self, workload, pairs):
        trace = pairs + pairs[::-1]
        with EvalService(make_evaluator(workload)) as local:
            want = local.evaluate_many(trace)
        with serve_in_thread() as server:
            with make_client(server, workload) as client:
                got = client.evaluate_many(trace)
        assert got == want

    def test_client_stats_mirror_tiers(self, workload, pairs):
        with serve_in_thread() as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs + pairs[:2])
                assert client.stats.misses == len(pairs)
                assert client.stats.hits == 2
                assert client.stats.batches == 1
                assert client.stats.miss_seconds > 0.0
                # Second client: all answered from the shared tier.
                with make_client(server, workload) as second:
                    second.evaluate_many(pairs)
                    assert second.stats.misses == 0
                    assert second.stats.shared_hits == len(pairs)

    def test_submit_chunking_respects_frame_limit(self, workload, pairs):
        with serve_in_thread() as server:
            with make_client(server, workload,
                             submit_chunk=2) as client:
                got = client.evaluate_many(pairs)
        with EvalService(make_evaluator(workload)) as local:
            assert got == local.evaluate_many(pairs)

    def test_hello_version_skew_is_refused(self, workload):
        with serve_in_thread() as server:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with sock:
                sock.connect(str(server.socket_path))
                send_frame(sock, {"op": "hello",
                                  "version": PROTOCOL_VERSION + 1})
                reply = recv_frame(sock)
                assert not reply["ok"]
                assert "version" in reply["error"]

    def test_hello_from_version_1_names_both_versions(self, workload):
        """Version 1 shipped evaluations with a HAP schedule; a client
        still speaking it is refused, and the error says which version
        it sent and which one the daemon speaks."""
        assert PROTOCOL_VERSION == 2
        with serve_in_thread() as server:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with sock:
                sock.connect(str(server.socket_path))
                send_frame(sock, {"op": "hello", "version": 1})
                reply = recv_frame(sock)
                assert not reply["ok"]
                assert "version 1 " in reply["error"]
                assert "speaks 2" in reply["error"]

    def test_submit_before_hello_is_refused(self, workload):
        with serve_in_thread() as server:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with sock:
                sock.connect(str(server.socket_path))
                send_frame(sock, {"op": "submit", "pairs": []})
                reply = recv_frame(sock)
                assert not reply["ok"]
                assert "before a successful hello" in reply["error"]

    def test_malformed_frame_drops_connection_not_daemon(
            self, workload, pairs):
        with serve_in_thread() as server:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with sock:
                sock.connect(str(server.socket_path))
                blob = b"garbage, not a pickle"
                sock.sendall(struct.pack("<Q", len(blob)) + blob)
                reply = recv_frame(sock)
                assert not reply["ok"]
                assert recv_frame(sock) is None  # server hung up
            # The daemon itself survives and serves new clients.
            with make_client(server, workload) as client:
                assert client.ping() == PROTOCOL_VERSION

    def test_oversized_batch_fails_loudly_client_side(
            self, workload, pairs):
        """A frame-size budget that admits the handshake but not a
        giant single-chunk submit fails before any bytes are sent."""
        with serve_in_thread() as server:
            with make_client(server, workload,
                             max_frame_bytes=4096,
                             submit_chunk=10_000) as client:
                with pytest.raises(FrameError,
                                   match="exceeds the protocol"):
                    client.evaluate_many(pairs * 50)

    def test_client_disconnect_mid_batch_keeps_daemon_serving(
            self, workload, pairs):
        with serve_in_thread() as server:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with sock:
                sock.connect(str(server.socket_path))
                send_frame(sock, {"op": "hello",
                                  "version": PROTOCOL_VERSION,
                                  "workload": workload,
                                  "cost_params": make_params(),
                                  "rho": RHO})
                assert recv_frame(sock)["ok"]
                send_frame(sock, {"op": "submit", "id": 1,
                                  "pairs": pairs})
                # Hang up without reading the reply.
            deadline = time.monotonic() + 30
            with make_client(server, workload) as client:
                while time.monotonic() < deadline:
                    if server.counters["computed"] >= len(pairs):
                        break
                    time.sleep(0.05)
                # The abandoned batch still priced and is now shared.
                client.evaluate_many(pairs)
                assert client.stats.misses == 0

    def test_checkpointing_is_refused_with_pointer(self, workload):
        with serve_in_thread() as server:
            with make_client(server, workload) as client:
                with pytest.raises(RuntimeError, match="local --store"):
                    client.state_snapshot()
                with pytest.raises(RuntimeError, match="local --store"):
                    client.restore_state({})

    def test_closed_client_refuses_calls(self, workload):
        with serve_in_thread() as server:
            client = make_client(server, workload)
            client.close()
            with pytest.raises(RuntimeError, match="closed"):
                client.ping()


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_identical_inflight_keys_priced_once(self, workload, pairs):
        """N clients submit the same design while it is being priced:
        one compute, N identical answers."""
        clients = 4
        gate = threading.Event()
        with serve_in_thread() as server:
            first = make_client(server, workload)
            try:
                # Bind the hosted service, then make its next misses
                # slow enough that every racer lands mid-flight.
                first.ping()
                (service,) = server.services.values()
                real = service.evaluator.evaluate_hardware_many

                def slow(batch):
                    gate.wait(timeout=30)
                    time.sleep(0.2)
                    return real(batch)

                service.evaluator.evaluate_hardware_many = slow
                results: list = [None] * clients
                errors: list = []

                def run(slot: int) -> None:
                    try:
                        with make_client(server, workload) as client:
                            results[slot] = (
                                client.evaluate_many(pairs[:1]),
                                client.stats.snapshot())
                    except Exception as exc:  # surface in the test
                        errors.append(exc)

                threads = [threading.Thread(target=run, args=(slot,))
                           for slot in range(clients)]
                for thread in threads:
                    thread.start()
                time.sleep(0.3)  # let every submit reach the daemon
                gate.set()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                first.close()
            assert not errors
            assert server.counters["computed"] == 1
            assert server.counters["coalesced"] >= clients - 1
        want = make_evaluator(workload).evaluate_hardware(*pairs[0])
        miss_tiers = 0
        for evaluations, stats in results:
            assert evaluations == [want]
            miss_tiers += stats.misses
        assert miss_tiers == 1  # exactly one client paid the miss

    def test_submit_misses_priced_as_one_batch(self, workload, pairs):
        """A submit's k fresh misses reach the evaluator as one k-pair
        batch; a second client coalescing onto one of them gets the
        bit-identical answer, and each design is computed once."""
        gate = threading.Event()
        outcomes: dict = {}
        with serve_in_thread() as server:
            first = make_client(server, workload)
            second = make_client(server, workload)
            try:
                first.ping()
                sizes = gate_batches(server, gate)
                threads = [in_thread(outcomes, "first",
                                     lambda: first.evaluate_many(
                                         pairs[:3]))]
                wait_until(lambda: len(server._inflight) == 3)
                threads.append(in_thread(
                    outcomes, "second",
                    lambda: second.evaluate_many(pairs[1:2])))
                wait_until(lambda: server.counters["coalesced"] == 1)
                gate.set()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                gate.set()
                first.close()
                second.close()
            assert sizes == [3]
            assert server.counters["computed"] == 3
        want = direct_prices(workload, pairs[:3])
        assert outcomes["first"] == want
        assert outcomes["second"] == [want[1]]

    def test_poisoned_design_fails_only_its_own_request(self, workload,
                                                        pairs):
        """An injected poison on the middle design of a three-miss
        submit fails that submit alone; its batch siblings still answer
        a second client coalesced onto them, and the daemon serves on."""
        injector = FaultInjector(FaultPlan(poison_computes=(1,)))
        gate = threading.Event()
        outcomes: dict = {}
        with serve_in_thread(fault_injector=injector) as server:
            first = make_client(server, workload)
            second = make_client(server, workload)
            try:
                first.ping()
                sizes = gate_batches(server, gate)
                threads = [in_thread(outcomes, "first",
                                     lambda: first.evaluate_many(
                                         pairs[:3]))]
                wait_until(lambda: len(server._inflight) == 3)
                threads.append(in_thread(
                    outcomes, "second",
                    lambda: second.evaluate_many([pairs[0], pairs[2]])))
                wait_until(lambda: server.counters["coalesced"] == 2)
                gate.set()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                gate.set()
                first.close()
                second.close()
            assert sizes == [2]  # the poisoned design never priced
            assert server.counters["compute_errors"] == 1
            want = direct_prices(workload, pairs[:3])
            with make_client(server, workload) as healthy:
                assert healthy.evaluate_many(pairs[:3]) == want
        assert isinstance(outcomes["first"], RuntimeError)
        assert "pricing failed for 1 of 3" in str(outcomes["first"])
        assert outcomes["second"] == [want[0], want[2]]

    def test_raising_batch_is_repriced_design_by_design(self, workload,
                                                        pairs):
        """A batch whose pricing raises is repriced one design at a
        time, so only the design that raises fails; its siblings are
        admitted and later served as hits."""
        gate = threading.Event()
        gate.set()
        with serve_in_thread() as server:
            with make_client(server, workload) as client:
                client.ping()
                sizes = gate_batches(server, gate, fail_on=pairs[1])
                with pytest.raises(RuntimeError,
                                   match="pricing failed for 1 of 3"):
                    client.evaluate_many(pairs[:3])
                assert sizes == [3, 1, 1, 1]
                assert server.counters["computed"] == 2
                assert server.counters["compute_errors"] == 1
                got = client.evaluate_many([pairs[0], pairs[2]])
                assert client.stats.misses == 0
            assert sizes == [3, 1, 1, 1]
        want = direct_prices(workload, [pairs[0], pairs[2]])
        assert got == want


# ----------------------------------------------------------------------
# Worker-pool miss computation (--workers)
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_pooled_misses_are_bit_identical(self, workload, pairs):
        """workers=2 prices misses in worker processes; every answer
        equals the in-process reference and repeats hit the shared
        LRU exactly as on the serial path."""
        trace = pairs + pairs[::-1]
        with EvalService(make_evaluator(workload)) as local:
            want = local.evaluate_many(trace)
        with serve_in_thread(workers=2) as server:
            with make_client(server, workload) as client:
                got = client.evaluate_many(trace)
            assert server.counters["computed"] == len(pairs)
            assert server.counters["computed_parallel"] == len(pairs)
            (service,) = server.services.values()
            assert service.stats.pool_restarts == 0
        assert got == want

    def test_broken_pool_reprices_serially(self, workload, pairs,
                                           monkeypatch):
        """A pool worker killed mid-batch breaks the hosted service's
        pool: the batch is repriced serially (bit-identical), counted
        in the service's ``pool_restarts``, and the next large batch
        runs on a rebuilt pool."""
        monkeypatch.setattr("repro.core.evalservice._eval_in_worker",
                            die_in_worker)
        fresh = sample_design_pairs(workload, n=4, seed=29)
        with serve_in_thread(workers=2) as server:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with make_client(server, workload) as client:
                    got = client.evaluate_many(pairs)
            (service,) = server.services.values()
            assert service.stats.pool_restarts == 1
            assert server.counters["computed"] == len(pairs)
            assert server.counters["computed_parallel"] == 0
            monkeypatch.undo()
            with make_client(server, workload) as client:
                healed = client.evaluate_many(fresh)
            assert server.counters["computed_parallel"] == len(fresh)
            assert service.stats.pool_restarts == 1
        assert got == direct_prices(workload, pairs)
        assert healed == direct_prices(workload, fresh)

    def test_pooled_compute_stays_exactly_once(self, workload, pairs):
        """Concurrent clients over one design pool with workers on:
        the in-flight map dedups before pool dispatch, so each
        distinct design is computed exactly once fleet-wide."""
        clients = 4
        results: list = [None] * clients
        errors: list = []
        with serve_in_thread(workers=2) as server:

            def run(slot: int) -> None:
                try:
                    with make_client(server, workload) as client:
                        results[slot] = client.evaluate_many(pairs)
                except Exception as exc:  # surface in the test
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(slot,))
                       for slot in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            assert server.counters["computed"] == len(pairs)
        with EvalService(make_evaluator(workload)) as local:
            want = local.evaluate_many(pairs)
        for evaluations in results:
            assert evaluations == want

    def test_status_reports_workers_and_context_breakdown(
            self, workload, pairs):
        with serve_in_thread(workers=2) as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs[:2] + pairs[:2])
            status = probe_status(server.socket_path)
            assert status["workers"] == 2
            (context,) = status["contexts"].values()
            assert context["requests"] == 4
            assert context["hits"] == 2
            assert context["store_hits"] == 0
            assert context["coalesced"] == 0
            assert context["hit_rate"] == 0.5

    def test_serial_daemon_status_reports_zero_workers(
            self, workload, pairs):
        with serve_in_thread() as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs[:1])
            status = probe_status(server.socket_path)
            assert status["workers"] == 0
            (context,) = status["contexts"].values()
            assert context["requests"] == 1
            assert server.counters["computed_parallel"] == 0

    def test_coalesced_submits_attributed_to_context(self, workload,
                                                     pairs):
        """The per-context breakdown counts cross-client coalescing
        (the hosted service's own stats cannot see it)."""
        clients = 3
        gate = threading.Event()
        with serve_in_thread() as server:
            first = make_client(server, workload)
            try:
                first.ping()
                (service,) = server.services.values()
                real = service.evaluator.evaluate_hardware_many

                def slow(batch):
                    gate.wait(timeout=30)
                    time.sleep(0.2)
                    return real(batch)

                service.evaluator.evaluate_hardware_many = slow
                errors: list = []

                def run() -> None:
                    try:
                        with make_client(server, workload) as client:
                            client.evaluate_many(pairs[:1])
                    except Exception as exc:  # surface in the test
                        errors.append(exc)

                threads = [threading.Thread(target=run)
                           for _ in range(clients)]
                for thread in threads:
                    thread.start()
                time.sleep(0.3)  # let every submit reach the daemon
                gate.set()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                first.close()
            assert not errors
            status = server._handle_status()
            (context,) = status["contexts"].values()
            assert context["coalesced"] == server.counters["coalesced"]
            assert context["coalesced"] >= clients - 1


# ----------------------------------------------------------------------
# Store integration
# ----------------------------------------------------------------------
class TestDaemonStore:
    def test_priced_work_persists_and_warm_restarts(
            self, tmp_path, workload, pairs):
        store_path = tmp_path / "store.bin"
        with serve_in_thread(store_path=store_path) as server:
            with make_client(server, workload) as client:
                want = client.evaluate_many(pairs)
        # Graceful shutdown drained the persist queue, flushed the
        # memo and released the writer lock.
        with EvalStore(store_path, read_only=True) as store:
            assert len(store) == len(pairs)
            memo = store.get_memo(cost_params_digest(make_params()))
            assert memo
        with serve_in_thread(store_path=store_path) as server:
            with make_client(server, workload) as client:
                got = client.evaluate_many(pairs)
                assert client.stats.misses == 0
                assert client.stats.store_hits == len(pairs)
        assert got == want

    def test_second_daemon_on_same_store_fails_loudly(
            self, tmp_path, workload):
        store_path = tmp_path / "store.bin"
        with serve_in_thread(store_path=store_path):
            with pytest.raises(ValueError, match="repro serve"):
                with serve_in_thread(store_path=store_path):
                    pass  # pragma: no cover

    def test_shutdown_op_winds_daemon_down(self, tmp_path, workload,
                                           pairs):
        store_path = tmp_path / "store.bin"
        with serve_in_thread(store_path=store_path) as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs[:2])
                client.shutdown_server()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if not server.socket_path.exists():
                    break
                time.sleep(0.05)
        with EvalStore(store_path, read_only=True) as store:
            assert len(store) == 2

    def test_idle_maintenance_compacts_redundant_store(
            self, tmp_path, workload, pairs):
        """The daemon's idle-path hook compacts a store that has
        accumulated droppable records — and keeps serving identical
        answers from the swapped file."""
        store_path = tmp_path / "store.bin"
        with EvalStore(store_path) as store:
            for i in range(3):
                store.put_memo("params", {("m", i): i})
        size_before = store_path.stat().st_size
        with serve_in_thread(store_path=store_path,
                             maintenance_interval=0.05,
                             compact_min_redundant=1) as server:
            deadline = time.monotonic() + 30
            while (time.monotonic() < deadline
                   and not server.counters["compactions"]):
                time.sleep(0.02)
            assert server.counters["compactions"] >= 1
            assert server.counters["compacted_records"] >= 2
            assert store_path.stat().st_size < size_before
            with make_client(server, workload) as client:
                want = client.evaluate_many(pairs[:2])
        with EvalStore(store_path, read_only=True) as store:
            assert store.get_memo("params") == {("m", 0): 0, ("m", 1): 1,
                                                ("m", 2): 2}
        # A restart serves the compacted store bit-identically.
        with serve_in_thread(store_path=store_path) as server:
            with make_client(server, workload) as client:
                assert client.evaluate_many(pairs[:2]) == want
                assert client.stats.misses == 0

    def test_maintenance_leaves_clean_store_alone(self, tmp_path,
                                                  workload, pairs):
        """Below the redundancy threshold the hook must not rewrite
        anything (no churn on every idle tick)."""
        store_path = tmp_path / "store.bin"
        with serve_in_thread(store_path=store_path,
                             maintenance_interval=0.05,
                             compact_min_redundant=64) as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs[:2])
            time.sleep(0.3)  # several idle ticks
            assert server.counters["compactions"] == 0

    def test_contexts_are_salt_namespaced(self, tmp_path, workload,
                                          pairs):
        """Two clients with different rho share a daemon but never an
        answer: per-context hosted services."""
        with serve_in_thread(store_path=tmp_path / "s.bin") as server:
            with make_client(server, workload) as client:
                base = client.evaluate_many(pairs[:2])
            other = RemoteEvalService(server.socket_path, workload,
                                      make_params(), RHO * 2)
            with other:
                shifted = other.evaluate_many(pairs[:2])
                assert other.stats.misses == 2  # nothing shared
            assert len(server.services) == 2
        for lhs, rhs in zip(base, shifted):
            assert lhs.penalty != rhs.penalty or lhs == rhs


class TestServerLifecycle:
    def test_stale_socket_file_is_replaced(self, tmp_path, workload):
        socket_path = tmp_path / "stale.sock"
        with serve_in_thread(socket_path=socket_path):
            pass  # exits cleanly, unlinks the socket
        socket_path.touch()  # simulate a crash leaving a stale file
        with serve_in_thread(socket_path=socket_path) as server:
            with make_client(server, workload) as client:
                assert client.ping() == PROTOCOL_VERSION

    def test_flush_and_bump_generation_ops(self, tmp_path, workload,
                                           pairs):
        with serve_in_thread(store_path=tmp_path / "s.bin") as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs[:2])
                assert client.flush_store() > 0  # memo entries landed
                client.bump_generation()
                client.evaluate_many(pairs[:2])
                # Post-bump re-hits count as shared in the daemon too.
                stats = client.server_stats()
                assert stats["stats"].shared_hits == 2


# ----------------------------------------------------------------------
# Hardening: deadlines, capacity, crash semantics, status
# ----------------------------------------------------------------------
class TestHardening:
    def test_live_daemon_socket_is_never_stolen(self, tmp_path,
                                                workload):
        """A starting daemon probe-connects before unlinking: a *live*
        daemon's socket is refused, only a dead one is replaced."""
        socket_path = tmp_path / "pricing.sock"
        with serve_in_thread(socket_path=socket_path) as server:
            with pytest.raises(ValueError, match="refusing to steal"):
                with serve_in_thread(socket_path=socket_path):
                    pass  # pragma: no cover
            # The live daemon was untouched by the failed boot.
            with make_client(server, workload) as client:
                assert client.ping() == PROTOCOL_VERSION

    def test_idle_client_shed_on_read_timeout(self, workload):
        with serve_in_thread(read_timeout=0.2) as server:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with sock:
                sock.connect(str(server.socket_path))
                sock.settimeout(30)
                # Send nothing: the idle connection is shed instead of
                # pinning a reader task forever.
                assert recv_frame(sock) is None
            assert server.counters["shed"] >= 1
            # Healthy clients are unaffected.
            with make_client(server, workload) as client:
                assert client.ping() == PROTOCOL_VERSION

    def test_capacity_refusal_is_loud_and_retryable(self, workload,
                                                    pairs):
        """At ``max_inflight`` the daemon refuses with a retryable
        busy frame instead of queueing without bound; once capacity
        frees up the same client completes bit-identically."""
        gate = threading.Event()
        with serve_in_thread(max_inflight=1) as server:
            first = make_client(server, workload)
            client = None
            try:
                first.ping()
                (service,) = server.services.values()
                real = service.evaluator.evaluate_hardware_many

                def slow(batch):
                    gate.wait(timeout=30)
                    return real(batch)

                service.evaluator.evaluate_hardware_many = slow
                client = make_client(server, workload, retries=2,
                                     backoff=0.01)
                with pytest.raises(DaemonBusyError,
                                   match="at capacity"):
                    client.evaluate_many(pairs[:2])
                assert server.counters["refused_busy"] >= 1
                gate.set()
                got = client.evaluate_many(pairs[:2])
            finally:
                gate.set()
                first.close()
                if client is not None:
                    client.close()
        with EvalService(make_evaluator(workload)) as local:
            assert got == local.evaluate_many(pairs[:2])

    def test_status_probe_reports_health(self, tmp_path, workload,
                                         pairs):
        store_path = tmp_path / "s.bin"
        with serve_in_thread(store_path=store_path) as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs[:2])
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if server.counters["persisted"] >= 2:
                    break
                time.sleep(0.05)
            status = probe_status(server.socket_path)
            assert status["ok"]
            assert status["version"] == PROTOCOL_VERSION
            assert status["uptime_seconds"] >= 0.0
            assert status["services"] == 1
            assert status["counters"]["computed"] == 2
            assert status["store_path"] == str(store_path)
            assert status["store_entries"] == 2
            assert status["store_recovered"] is None

    def test_status_probe_without_daemon_raises(self, tmp_path):
        with pytest.raises(ConnectionError, match="no pricing daemon"):
            probe_status(tmp_path / "nobody.sock")

    def test_double_signal_forces_abort_and_store_recovers(
            self, tmp_path, workload, pairs):
        """First shutdown signal drains gracefully; a second one
        forces immediate exit even with a compute still in flight.
        The store's durable prefix stays openable afterwards."""
        store_path = tmp_path / "s.bin"
        gate = threading.Event()
        with serve_in_thread(store_path=store_path) as server:
            first = make_client(server, workload)
            try:
                first.evaluate_many(pairs[:1])
                (service,) = server.services.values()
                real = service.evaluator.evaluate_hardware_many

                def slow(batch):
                    gate.wait(timeout=30)
                    return real(batch)

                service.evaluator.evaluate_hardware_many = slow
                sock = socket.socket(socket.AF_UNIX,
                                     socket.SOCK_STREAM)
                with sock:
                    sock.connect(str(server.socket_path))
                    send_frame(sock, {"op": "hello",
                                      "version": PROTOCOL_VERSION,
                                      "workload": workload,
                                      "cost_params": make_params(),
                                      "rho": RHO})
                    assert recv_frame(sock)["ok"]
                    send_frame(sock, {"op": "submit", "id": 1,
                                      "pairs": pairs[1:2]})
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        if len(server._inflight) > 0:
                            break
                        time.sleep(0.02)
                    # Graceful drain blocks on the gated compute; the
                    # second signal must not wait for it.
                    server.request_shutdown()
                    server.request_shutdown()
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        if server.aborted:
                            break
                        time.sleep(0.02)
            finally:
                gate.set()
                first.close()
        assert server.aborted
        # The forced exit released the writer lock; the durable prefix
        # opens cleanly (recover is a no-op or a quarantine, never a
        # loud reject).
        with EvalStore(store_path, recover=True) as store:
            assert len(store) >= 0

    def test_forced_exit_leaves_socket_and_restart_serves(
            self, tmp_path, workload, pairs):
        """Crash semantics end-to-end: a force-stopped daemon leaves
        its socket file behind; a restarted daemon replaces the stale
        socket and an existing client completes via transparent
        reconnect — bit-identical, never degraded."""
        socket_path = tmp_path / "pricing.sock"
        store_path = tmp_path / "store.bin"
        client = None
        try:
            with serve_in_thread(socket_path=socket_path,
                                 store_path=store_path) as first:
                client = make_client(first, workload, retries=8,
                                     backoff=0.05)
                client.evaluate_many(pairs[:2])
                first.force_stop()
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if first.aborted:
                        break
                    time.sleep(0.02)
            assert first.aborted
            assert socket_path.exists()  # left for the next probe
            with serve_in_thread(socket_path=socket_path,
                                 store_path=store_path):
                got = client.evaluate_many(pairs)
                assert client.stats.reconnects >= 1
                assert not client.degraded
        finally:
            if client is not None:
                client.close()
        with EvalService(make_evaluator(workload)) as local:
            assert got == local.evaluate_many(pairs)

    def test_abort_mid_flush_never_leaks_the_store_lock(
            self, tmp_path, workload, pairs, monkeypatch):
        """A force-abort landing while a memo flush is still running in
        the write executor must wait for it: closing the store under
        the flush would let the append re-acquire the writer lock
        *after* close, leaving the file locked until GC and blocking
        the next open's crash recovery (found by chaos-serve fuzzing,
        case seed 1493)."""
        store_path = tmp_path / "store.bin"
        flush_started = threading.Event()
        release = threading.Event()
        original = EvalService.flush_store

        def slow_flush(service):
            flush_started.set()
            release.wait(timeout=30)
            return original(service)

        monkeypatch.setattr(EvalService, "flush_store", slow_flush)
        with serve_in_thread(store_path=store_path) as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs)
            server.request_shutdown()  # graceful drain reaches the flush
            assert flush_started.wait(timeout=30)
            server.force_stop()  # second signal lands mid-flush
            # Buggy behaviour closed the store out from under the
            # running flush; give the abort a moment to reach that
            # point before letting the flush finish.
            deadline = time.monotonic() + 1.0
            while (time.monotonic() < deadline
                   and server.store._handle is not None):
                time.sleep(0.01)
            release.set()
        assert server.aborted
        # The writer lock must be free: recovery opens on first try.
        with EvalStore(store_path, recover=True) as store:
            assert len(store) == len(pairs)

    def test_failed_handshakes_never_leak_fds(self, workload,
                                              monkeypatch):
        """Satellite regression: salt-mismatch and version-refused
        connects must close their socket (fd) on the way out."""
        def fd_count() -> int:
            return len(os.listdir("/proc/self/fd"))

        with serve_in_thread() as server:
            baseline = fd_count()
            for _ in range(5):
                with monkeypatch.context() as patch:
                    patch.setattr(
                        "repro.core.client.evaluation_context_salt",
                        lambda *args: "not-the-daemon-salt")
                    with pytest.raises(ValueError,
                                       match="version skew"):
                        make_client(server, workload)
                with monkeypatch.context() as patch:
                    patch.setattr(
                        "repro.core.client.PROTOCOL_VERSION",
                        PROTOCOL_VERSION + 1)
                    with pytest.raises(RuntimeError, match="version"):
                        make_client(server, workload)
            # Server-side peer fds unwind asynchronously; the client
            # side must already be back at the baseline.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if fd_count() <= baseline:
                    break
                time.sleep(0.05)
            assert fd_count() <= baseline
