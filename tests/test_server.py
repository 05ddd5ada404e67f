"""The pricing daemon: protocol framing, serving, exactly-once pricing, locks.

The served tier's contract is the strong one everything else in the
repo holds to: a daemon-priced evaluation is **bit-identical** to an
in-process one, no matter which tier answered (LRU, shared, store)
or how many clients raced for it.  The framing tests pin
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

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from suite_helpers import legacy_memo_frame, sample_design_pairs
from repro.core.client import (
    DaemonBusyError,
    RemoteEvalService,
    parse_endpoint,
    probe_status,
)
from repro.core.codec import encode_key
from repro.core.evalservice import (
    EvalService,
    design_content,
    evaluation_context_salt,
)
from repro.core.evaluator import Evaluator
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    _decode_payload,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
)
from repro.core.server import PricingServer, serve_in_thread
from repro.core.store import STORE_MAGIC, EvalStore
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


class Gadget:
    """Pickles as a call of ``fn(arg)`` — the classic pickle exploit."""

    def __init__(self, fn, arg) -> None:
        self.fn, self.arg = fn, arg

    def __reduce__(self):
        return self.fn, (self.arg,)


def raw_session(server, workload) -> socket.socket:
    """A raw connection that completed a valid hello."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(str(server.socket_path))
    send_frame(sock, {"op": "hello", "version": PROTOCOL_VERSION,
                      "workload": workload, "cost_params": make_params(),
                      "rho": RHO})
    assert recv_frame(sock)["ok"]
    return sock


def wire_keys(pairs) -> list[bytes]:
    """Submit entries for ``pairs``: their encoded content keys."""
    return [encode_key(design_content(*pair)) for pair in pairs]


def direct_prices(workload, pairs) -> list:
    evaluator = make_evaluator(workload)
    return [evaluator.evaluate_hardware(*pair) for pair in pairs]


def record_batches(server, fail_on=None) -> list:
    """Record the sizes of the hosted service's pricing batches.

    Returns the list the batch sizes are recorded in; a batch holding
    ``fail_on`` (a design pair) raises instead of pricing.
    """
    poison = design_content(*fail_on) if fail_on is not None else None
    (service,) = server.services.values()
    real = service.evaluator.evaluate_hardware_many
    sizes: list[int] = []

    def recorded(batch):
        sizes.append(len(batch))
        if any(design_content(*pair) == poison for pair in batch):
            raise ValueError("design cannot be priced")
        return real(batch)

    service.evaluator.evaluate_hardware_many = recorded
    return sizes


def in_thread(outcomes: dict, name, fn) -> threading.Thread:
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

    def test_allow_list_refuses_code_execution(self, tmp_path):
        """A pickle whose reduce calls ``os.system`` or
        ``builtins.eval`` is refused by its global, before it runs."""
        marker = tmp_path / "pwned"
        for gadget in (Gadget(os.system, f"touch {marker}"),
                       Gadget(eval, f"open({str(marker)!r}, 'w')")):
            blob = pickle.dumps({"op": "ping", "x": gadget})
            with pytest.raises(FrameError, match="does not allow"):
                _decode_payload(blob, len(blob))
        assert not marker.exists()

    def test_allow_list_admits_the_hello_payload(self, workload):
        hello = {"op": "hello", "version": PROTOCOL_VERSION,
                 "workload": workload, "cost_params": make_params(),
                 "rho": RHO}
        blob = pickle.dumps(hello, protocol=pickle.HIGHEST_PROTOCOL)
        decoded = _decode_payload(blob, len(blob))
        # Search spaces compare by identity; the context salt is the
        # value contract the handshake checks.
        assert evaluation_context_salt(
            decoded["workload"], decoded["cost_params"], decoded["rho"]
        ) == evaluation_context_salt(workload, make_params(), RHO)

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
        """Version 1 shipped evaluations with a HAP schedule, version 2
        pickled designs and evaluations, and version 3 carried the
        worker-pool stats fields; a client still speaking any of them is
        refused, and the error says which version it sent and which one
        the daemon speaks."""
        assert PROTOCOL_VERSION == 4
        with serve_in_thread() as server:
            for old in (1, 2, 3):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                with sock:
                    sock.connect(str(server.socket_path))
                    send_frame(sock, {"op": "hello", "version": old})
                    reply = recv_frame(sock)
                    assert not reply["ok"]
                    assert f"version {old} " in reply["error"]
                    assert "speaks 4" in reply["error"]

    def test_submit_before_hello_is_refused(self, workload):
        with serve_in_thread() as server:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with sock:
                sock.connect(str(server.socket_path))
                send_frame(sock, {"op": "submit", "keys": []})
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
                                  "keys": wire_keys(pairs)})
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
    """Each distinct design is computed once fleet-wide: the first
    submit prices it on the daemon's loop thread, later ones (any
    client) read it from the shared LRU."""

    def test_identical_concurrent_keys_priced_once(self, workload, pairs):
        """N clients submit the same design while the first submit is
        being priced: one compute, N identical answers, and every
        client after the first gets a ``shared`` hit."""
        clients = 4
        entered, gate = threading.Event(), threading.Event()
        outcomes: dict = {}

        def run() -> tuple:
            with make_client(server, workload) as client:
                return (client.evaluate_many(pairs[:1]),
                        client.stats.snapshot())

        with serve_in_thread() as server:
            first = make_client(server, workload)
            try:
                first.ping()
                (service,) = server.services.values()
                real = service.evaluator.evaluate_hardware_many

                def held(batch):
                    entered.set()
                    gate.wait(timeout=30)
                    return real(batch)

                service.evaluator.evaluate_hardware_many = held
                threads = [in_thread(outcomes, 0, run)]
                assert entered.wait(timeout=30)
                # The loop is held pricing: the other clients' connects
                # and hellos queue behind it.
                threads += [in_thread(outcomes, slot, run)
                            for slot in range(1, clients)]
                time.sleep(0.3)
                gate.set()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                gate.set()
                first.close()
            assert server.counters["computed"] == 1
            assert server.counters["coalesced"] == 0
        want = make_evaluator(workload).evaluate_hardware(*pairs[0])
        for slot in range(clients):
            evaluations, stats = outcomes[slot]
            assert evaluations == [want]
            if slot == 0:
                assert (stats.misses, stats.shared_hits) == (1, 0)
            else:
                assert (stats.misses, stats.shared_hits) == (0, 1)

    def test_submit_misses_priced_as_one_batch(self, workload, pairs):
        """A submit's k fresh misses reach the evaluator as one k-pair
        batch on the daemon's loop thread (there is no compute thread);
        a second client asking for one of them is answered from the
        LRU, bit-identically, and each design is computed once."""
        with serve_in_thread() as server:
            with make_client(server, workload) as first, \
                    make_client(server, workload) as second:
                first.ping()
                (service,) = server.services.values()
                real = service.evaluator.evaluate_hardware_many
                calls: list[tuple[int, str]] = []

                def recorded(batch):
                    calls.append((len(batch),
                                  threading.current_thread().name))
                    return real(batch)

                service.evaluator.evaluate_hardware_many = recorded
                got_first = first.evaluate_many(pairs[:3])
                got_second = second.evaluate_many(pairs[1:2])
                assert second.stats.misses == 0
                assert not any(thread.name.startswith("repro-serve-compute")
                               for thread in threading.enumerate())
            assert calls == [(3, "repro-serve")]
            assert server.counters["computed"] == 3
        want = direct_prices(workload, pairs[:3])
        assert got_first == want
        assert got_second == [want[1]]

    def test_poisoned_design_fails_only_its_own_request(self, workload,
                                                        pairs):
        """An injected poison on the middle design of a three-miss
        submit fails that submit alone; its batch siblings are admitted
        and answer a second client from the LRU, and the daemon serves
        on."""
        injector = FaultInjector(FaultPlan(poison_computes=(1,)))
        with serve_in_thread(fault_injector=injector) as server:
            with make_client(server, workload) as first:
                first.ping()
                sizes = record_batches(server)
                with pytest.raises(RuntimeError,
                                   match="pricing failed for 1 of 3"):
                    first.evaluate_many(pairs[:3])
            assert sizes == [2]  # the poisoned design never priced
            assert server.counters["compute_errors"] == 1
            want = direct_prices(workload, pairs[:3])
            with make_client(server, workload) as second:
                assert second.evaluate_many(
                    [pairs[0], pairs[2]]) == [want[0], want[2]]
                assert second.stats.misses == 0
                assert second.stats.shared_hits == 2
            with make_client(server, workload) as healthy:
                assert healthy.evaluate_many(pairs[:3]) == want
            assert server.counters["computed"] == 3

    def test_raising_batch_is_repriced_design_by_design(self, workload,
                                                        pairs):
        """A batch whose pricing raises is repriced one design at a
        time, so only the design that raises fails; its siblings are
        admitted and later served as hits."""
        with serve_in_thread() as server:
            with make_client(server, workload) as client:
                client.ping()
                sizes = record_batches(server, fail_on=pairs[1])
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

    def test_concurrent_clients_compute_each_design_once(self, workload,
                                                         pairs):
        """Concurrent clients over one multi-design pool, racing
        ungated: the first submit of a design admits it before the next
        submit is read, so each distinct design is computed exactly
        once fleet-wide."""
        clients = 4
        results: list = [None] * clients
        errors: list = []
        with serve_in_thread() as server:

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


# ----------------------------------------------------------------------
# Per-context status breakdown
# ----------------------------------------------------------------------
class TestContextBreakdown:
    def test_status_reports_context_breakdown(self, workload, pairs):
        with serve_in_thread() as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs[:2] + pairs[:2])
            status = probe_status(server.socket_path)
            assert "workers" not in status
            assert "inflight" not in status
            (context,) = status["contexts"].values()
            assert "coalesced" not in context
            assert context["requests"] == 4
            assert context["hits"] == 2
            assert context["shared_hits"] == 0
            assert context["store_hits"] == 0
            assert context["hit_rate"] == 0.5

    def test_shared_hits_attributed_to_context(self, workload, pairs):
        """The per-context breakdown shows cross-client reuse: clients
        after the first are answered from the first one's pricing, as
        ``shared`` hits of that context."""
        clients = 3
        with serve_in_thread() as server:
            for _ in range(clients):
                with make_client(server, workload) as client:
                    client.evaluate_many(pairs[:1])
            status = server._handle_status()
            (context,) = status["contexts"].values()
            assert context["requests"] == clients
            assert context["shared_hits"] == clients - 1
            assert context["hits"] == clients - 1
            assert server.counters["computed"] == 1


# ----------------------------------------------------------------------
# Store integration
# ----------------------------------------------------------------------
class TestDaemonStore:
    @pytest.mark.parametrize("corrupt", ["genotype", "backbone",
                                         "dataset", "truncated"])
    def test_key_not_naming_a_design_is_refused(
            self, tmp_path, workload, pairs, corrupt):
        """A key whose rebuilt pair differs (a genotype value outside
        the space, a backbone or dataset that is not the task's) or
        that does not decode is refused with an error frame; nothing
        is priced or persisted and the daemon serves on."""
        store_path = tmp_path / "store.bin"
        identities, slots, budget = design_content(*pairs[0])
        (backbone, dataset, genotype), *rest = identities
        if corrupt == "genotype":
            identities = ((backbone, dataset, (5,) + genotype[1:]), *rest)
        elif corrupt == "backbone":
            identities = (("unet", dataset, genotype), *rest)
        elif corrupt == "dataset":
            identities = ((backbone, "stl10", genotype), *rest)
        blob = encode_key((tuple(identities), slots, budget))
        if corrupt == "truncated":
            blob = blob[:-1]
        with serve_in_thread(store_path=store_path) as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs[1:2])
            wait_until(lambda: server.counters["persisted"] == 1)
            server_bytes = store_path.read_bytes()
            with raw_session(server, workload) as sock:
                send_frame(sock, {"op": "submit", "id": 7,
                                  "keys": wire_keys(pairs[2:3]) + [blob]})
                reply = recv_frame(sock)
                assert not reply["ok"]
                assert reply["id"] == 7
                assert ("refused" in reply["error"]
                        or "malformed" in reply["error"])
                assert server.counters["computed"] == 1
                assert store_path.read_bytes() == server_bytes
                # The connection stays usable for a good submit.
                send_frame(sock, {"op": "submit", "id": 8,
                                  "keys": wire_keys(pairs[1:2])})
                assert recv_frame(sock)["ok"]

    def test_priced_work_persists_and_warm_restarts(
            self, tmp_path, workload, pairs):
        store_path = tmp_path / "store.bin"
        with serve_in_thread(store_path=store_path) as server:
            with make_client(server, workload) as client:
                want = client.evaluate_many(pairs)
        # Graceful shutdown drained the persist queue and released the
        # writer lock; the store holds evaluations only.
        with EvalStore(store_path, read_only=True) as store:
            assert len(store) == len(pairs)
            assert store.redundant_records == 0
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
        # Cost-memo records an older version appended: all droppable.
        store_path.write_bytes(STORE_MAGIC + b"".join(
            legacy_memo_frame(i) for i in range(3)))
        size_before = store_path.stat().st_size
        with serve_in_thread(store_path=store_path,
                             maintenance_interval=0.05,
                             compact_min_redundant=1) as server:
            deadline = time.monotonic() + 30
            while (time.monotonic() < deadline
                   and not server.counters["compactions"]):
                time.sleep(0.02)
            assert server.counters["compactions"] >= 1
            assert server.counters["compacted_records"] >= 3
            assert store_path.stat().st_size < size_before
            with make_client(server, workload) as client:
                want = client.evaluate_many(pairs[:2])
        with EvalStore(store_path, read_only=True) as store:
            assert len(store) == 2 and store.redundant_records == 0
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

    def test_bump_generation_op(self, tmp_path, workload, pairs):
        with serve_in_thread(store_path=tmp_path / "s.bin") as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs[:2])
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
        """A submit with more than ``max_inflight`` fresh misses is
        refused with a retryable busy frame; the misses it claimed are
        priced first, so the retried submit completes bit-identically."""
        with serve_in_thread(max_inflight=1) as server:
            with make_client(server, workload, retries=0) as client:
                with pytest.raises(DaemonBusyError,
                                   match="at capacity"):
                    client.evaluate_many(pairs[:2])
                assert server.counters["refused_busy"] == 1
                assert server.counters["computed"] == 1
                got = client.evaluate_many(pairs[:2])
            assert server.counters["refused_busy"] == 1
            assert server.counters["computed"] == 2
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
        """Two shutdown signals landing while a submit is being priced
        force an immediate exit once that pricing returns, not a
        graceful drain.  The store's durable prefix stays openable
        afterwards."""
        store_path = tmp_path / "s.bin"
        entered, gate = threading.Event(), threading.Event()
        with serve_in_thread(store_path=store_path) as server:
            first = make_client(server, workload)
            try:
                first.evaluate_many(pairs[:1])
                (service,) = server.services.values()
                real = service.evaluator.evaluate_hardware_many

                def held(batch):
                    entered.set()
                    gate.wait(timeout=30)
                    return real(batch)

                service.evaluator.evaluate_hardware_many = held
                sock = raw_session(server, workload)
                with sock:
                    send_frame(sock, {"op": "submit", "id": 1,
                                      "keys": wire_keys(pairs[1:2])})
                    assert entered.wait(timeout=30)
                    # Both signals queue behind the submit holding the
                    # loop; the second must force, not wait for a drain.
                    server.request_shutdown()
                    server.request_shutdown()
                    gate.set()
                    wait_until(lambda: server.aborted, timeout=5.0)
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

    def test_submit_during_graceful_drain_is_hung_up(
            self, tmp_path, workload, pairs, monkeypatch):
        """A submit that arrives on an open connection after the
        graceful drain began is hung up on, not priced: a design priced
        then would be answered but could miss the persist queue's last
        drain, so the store would lose priced work."""
        store_path = tmp_path / "store.bin"
        append_started = threading.Event()
        release = threading.Event()
        original = EvalStore.put_many

        def slow_put_many(store, entries):
            append_started.set()
            release.wait(timeout=30)
            return original(store, entries)

        monkeypatch.setattr(EvalStore, "put_many", slow_put_many)
        try:
            with serve_in_thread(store_path=store_path) as server:
                sock = raw_session(server, workload)
                with sock:
                    with make_client(server, workload) as client:
                        client.evaluate_many(pairs[:2])
                    # The drain waits on the held append.
                    assert append_started.wait(timeout=30)
                    server.request_shutdown()
                    wait_until(lambda: server._closed)
                    send_frame(sock, {"op": "submit", "id": 1,
                                      "keys": wire_keys(pairs[2:3])})
                    assert recv_frame(sock) is None
                    assert server.counters["computed"] == 2
                    release.set()
                    # Let the drain finish before the block's own
                    # shutdown request, which would force an abort.
                    wait_until(lambda: not server.socket_path.exists())
        finally:
            release.set()
        assert not server.aborted
        with EvalStore(store_path) as store:
            assert len(store) == 2

    def test_abort_mid_flush_never_leaks_the_store_lock(
            self, tmp_path, workload, pairs, monkeypatch):
        """A force-abort landing while the persist queue is being
        flushed to the store (an append running in the write executor)
        must wait for it: closing the store under the append would let
        it re-acquire the writer lock *after* close, leaving the file
        locked until GC and blocking the next open's crash recovery
        (found by chaos-serve fuzzing, case seed 1493)."""
        store_path = tmp_path / "store.bin"
        append_started = threading.Event()
        release = threading.Event()
        original = EvalStore.put_many

        def slow_put_many(store, entries):
            append_started.set()
            release.wait(timeout=30)
            return original(store, entries)

        monkeypatch.setattr(EvalStore, "put_many", slow_put_many)
        with serve_in_thread(store_path=store_path) as server:
            with make_client(server, workload) as client:
                client.evaluate_many(pairs)
            assert append_started.wait(timeout=30)
            server.request_shutdown()  # graceful drain waits on it
            server.force_stop()  # second signal lands mid-append
            # Buggy behaviour closed the store out from under the
            # running append; give the abort a moment to reach that
            # point before letting the append finish.
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


# ----------------------------------------------------------------------
# Hostile frames
# ----------------------------------------------------------------------
_WRONG_TYPED = st.dictionaries(
    st.sampled_from(["op", "id", "keys", "version", "workload", "rho"]),
    st.one_of(st.none(), st.integers(), st.text(max_size=8),
              st.binary(max_size=16), st.lists(st.binary(max_size=40),
                                               max_size=3),
              st.sampled_from(["hello", "submit", "stats", "flush",
                               "bump_generation"])),
    max_size=4)


def _hostile_frames():
    return st.one_of(
        st.binary(max_size=200).map(lambda body: ("body", body)),
        st.binary(min_size=1, max_size=64).map(lambda body: ("cut", body)),
        st.integers(MAX_FRAME_BYTES + 1, 2 ** 64 - 1).map(
            lambda size: ("huge", size)),
        st.one_of(_WRONG_TYPED, st.lists(st.integers(), max_size=3),
                  st.integers(), st.text(max_size=10)).map(
            lambda payload: ("typed", payload)),
        st.sampled_from(["system", "eval"]).map(lambda g: ("gadget", g)),
        st.lists(st.binary(max_size=150), min_size=1, max_size=3).map(
            lambda keys: ("keys", keys)))


@pytest.fixture(scope="module")
def hostile_daemon(tmp_path_factory, workload, pairs):
    """One store-backed daemon (with priced entries on disk) that every
    hostile frame is thrown at."""
    root = tmp_path_factory.mktemp("hostile")
    store_path = root / "store.bin"
    with serve_in_thread(store_path=store_path) as server:
        with make_client(server, workload) as client:
            client.evaluate_many(pairs[:2])
        wait_until(lambda: server.counters["persisted"] == 2)
        yield server, store_path, root / "pwned"


class TestHostileFrames:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(frame=_hostile_frames())
    def test_every_hostile_frame_gets_an_error_frame(
            self, hostile_daemon, workload, pairs, frame):
        """Arbitrary, truncated, oversized, wrong-typed and gadget
        frames, and submits of malformed codec keys, each answer an
        error frame; nothing runs, nothing is persisted, and the daemon
        keeps serving."""
        server, store_path, marker = hostile_daemon
        before = store_path.read_bytes()
        kind, value = frame
        if kind == "keys":
            sock = raw_session(server, workload)
            good = wire_keys(pairs[:1])[0]
            send_frame(sock, {"op": "submit", "id": 1,
                              "keys": [good[:len(key) % len(good)] + key
                                       for key in value]})
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(30)
            sock.connect(str(server.socket_path))
            if kind == "body":
                sock.sendall(struct.pack("<Q", len(value)) + value)
            elif kind == "cut":
                sock.sendall(struct.pack("<Q", len(value) + 5) + value)
                sock.shutdown(socket.SHUT_WR)
            elif kind == "huge":
                sock.sendall(struct.pack("<Q", value))
            elif kind == "typed":
                send_frame(sock, value)
            else:
                fn = os.system if value == "system" else eval
                arg = (f"touch {marker}" if value == "system"
                       else f"open({str(marker)!r}, 'w')")
                send_frame(sock, {"op": "ping", "x": Gadget(fn, arg)})
        with sock:
            reply = recv_frame(sock)
        assert isinstance(reply, dict) and reply["ok"] is False, reply
        assert not marker.exists()
        assert store_path.read_bytes() == before
        with make_client(server, workload) as client:
            assert client.evaluate_many(pairs[:1]) == direct_prices(
                workload, pairs[:1])
