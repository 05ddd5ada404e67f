"""Pricing-as-a-service: the async multi-client evaluation daemon.

The co-exploration loop is bottlenecked by hardware pricing, not the
optimiser — the observation behind deephyper's asynchronous search and
Apollo's shared transferable evaluation data.  This module turns the
pricing tier into a long-running service (``repro serve``) that many
concurrent search clients reach over a local Unix socket, sharing one
LRU + persistent store + cost-model memo instead of each warming a
private cache from zero.

Architecture (one asyncio loop, two single-thread executors):

- **Hosted services.**  Each client ``hello`` ships its evaluation
  context (workload, cost parameters, rho); the server builds — or
  reuses — one :class:`~repro.core.evalservice.EvalService` per
  context salt, exactly like campaign sharing, so equal-context
  clients share one cache and differing contexts can never poison
  each other (entries are salt-namespaced).
- **One miss path, one compute thread.**  The daemon prices exactly
  as a local :class:`~repro.core.evalservice.EvalService` does: each
  design walks the hosted service's ``lookup_tiers``; a submit's fresh
  misses go to a one-thread compute executor as *one* job through the
  service's ``compute_batch`` (its worker pool when the service has
  ``workers > 1``, one serial ``evaluate_hardware_many`` call
  otherwise); the result comes back to the loop thread for
  ``admit_miss``.  Evaluators are not thread-safe, so the single
  compute thread is the only place pricing runs; the event loop stays
  free to serve hits and accept connections meanwhile, and cache and
  stats writes happen only on the loop thread.  Coalescing happens on
  the loop thread *before* dispatch, so each distinct in-flight design
  is computed exactly once however the batch is priced.
- **Cross-client coalescing.**  An in-flight future map keyed by
  ``(salt, content key)``: when client B submits a design client A is
  currently pricing, B awaits A's future instead of recomputing —
  identical in-flight content keys are priced exactly once.
- **Single writer task.**  Computed misses are enqueued and drained by
  one task that appends to the store through a dedicated one-thread
  executor, so all store appends stay serialized — the same
  single-writer contract the store's ``flock`` enforces across
  processes, upheld inside the daemon by construction.
- **Graceful SIGTERM.**  Shutdown stops accepting, waits for in-flight
  pricing, drains the persist queue, flushes every hosted service's
  cost memo and releases the store writer lock — a ``kill`` never
  drops priced work.  A *second* signal during the drain forces an
  immediate exit (crash semantics: the store's durable prefix is kept
  intact by construction, and the next daemon opens it with
  ``recover=True``).

Hardening (one faulty client must never take the daemon down):

- **Crash recovery.**  The store is opened with ``recover=True``: a
  file torn by a previous crash mid-append is truncated back to the
  last valid record, the tail quarantined to a ``.corrupt`` sidecar.
- **Stale-socket probing.**  A leftover socket file is only unlinked
  after a probe-connect proves nothing is listening — a starting
  daemon never steals a live daemon's socket.
- **Deadlines + shedding.**  Optional per-connection read deadline and
  a write deadline: a stalled or unread-buffer-filling client is shed
  (connection dropped, ``shed`` counter) without blocking the loop.
- **Bounded in-flight queue.**  Past ``max_inflight`` queued
  computations, submits are refused loudly with a ``retryable`` error
  frame the client backs off on — memory stays bounded under storm.
- **Compute isolation.**  A design whose pricing raises (poisoned
  input) answers a per-request error frame; the daemon, its other
  connections and coalesced siblings of *other* designs are untouched.
  A batch that raises is repriced design by design, so only the
  raising design fails and its batch siblings still resolve.
- **Status probing.**  A pre-handshake ``status`` op
  (``repro serve --status``) reports uptime, hosted services,
  in-flight and queued work, counters and store occupancy.

Determinism: pricing is RNG-free, so a served evaluation is
bit-identical to an in-process one — the ``served`` and ``chaos-serve``
oracle pairs in :mod:`repro.core.differential` and
``benchmarks/bench_serve.py`` gate this continuously.
"""

from __future__ import annotations

import asyncio
import pickle
import shutil
import signal
import socket
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from repro.core.evaluator import Evaluator
from repro.core.evalservice import (
    EvalService,
    design_content,
    evaluation_context_salt,
)
from repro.core.faults import TornWriteError
from repro.core.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    encode_frame,
    read_frame,
)
from repro.core.store import EvalStore
from repro.cost.model import CostModel

__all__ = ["PricingServer", "serve", "serve_in_thread"]


class PricingServer:
    """One pricing daemon: socket, hosted services, store, writer task.

    Args:
        socket_path: Unix socket to listen on (created on start; a
            stale file from a dead daemon is probe-connected first and
            only replaced when nothing answers).
        store_path: Optional persistent evaluation store backing every
            hosted service.  Opened for writing with ``recover=True``
            on start — the store's writer lock makes a second daemon on
            the same store fail loudly before it can touch the socket,
            and a tail torn by a previous crash is recovered.
        cache_size: LRU capacity of each hosted service.
        max_frame_bytes: Protocol frame-size guard (tests shrink it).
        read_timeout: Seconds a connection may sit idle between
            requests before being shed (``None`` = wait forever, the
            default — searches legitimately think between batches).
        write_timeout: Seconds a reply write may stall before the
            client is shed (``None`` = forever).  The default guards
            the loop against a client that stops reading.
        max_inflight: Bound on concurrently queued miss computations;
            submits needing more are refused with a ``retryable`` error
            frame.
        workers: ``workers`` of every hosted
            :class:`~repro.core.evalservice.EvalService` (``repro serve
            --workers``).  ``0``/``1`` price each submit's misses in
            one serial batch on the compute thread (default).  ``> 1``
            gives each hosted context its own worker pool, built
            lazily at its first batch of at least the service's
            ``parallel_threshold`` misses.  Distinct in-flight designs
            coalesce on the loop thread before dispatch, so the
            single-compute guarantee is unchanged.  Fault-injection
            hooks live in the daemon process, so with a
            ``fault_injector`` the hosted services get ``workers=0``.
        fault_injector: Test-only :class:`repro.core.faults.\
FaultInjector` hooked into the reply/batch/compute/append seams.
        maintenance_interval: Seconds between idle-path store
            maintenance checks (``None`` disables them).  When the
            daemon is idle — nothing in flight, persist queue drained —
            and the store has accumulated enough droppable records
            (``compact_min_redundant``), the store is compacted on the
            write executor, serialized with appends.
        compact_min_redundant: Droppable-record threshold handed to
            :meth:`repro.core.store.EvalStore.maybe_compact`.
    """

    def __init__(self, socket_path: str | Path, *,
                 store_path: str | Path | None = None,
                 cache_size: int = 4096,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 read_timeout: float | None = None,
                 write_timeout: float | None = 60.0,
                 max_inflight: int = 256,
                 workers: int = 0,
                 fault_injector=None,
                 maintenance_interval: float | None = 300.0,
                 compact_min_redundant: int = 256) -> None:
        self.socket_path = Path(socket_path)
        self.store_path = (Path(store_path)
                           if store_path is not None else None)
        self.cache_size = cache_size
        self.max_frame_bytes = max_frame_bytes
        self.read_timeout = read_timeout
        self.write_timeout = write_timeout
        self.max_inflight = max(1, max_inflight)
        self.workers = max(0, workers)
        self.maintenance_interval = maintenance_interval
        self.compact_min_redundant = max(1, compact_min_redundant)
        self._injector = fault_injector
        self.store: EvalStore | None = None
        #: context salt -> hosted service (inspectable in tests).
        self.services: dict[str, EvalService] = {}
        self.counters = {"connections": 0, "batches": 0, "computed": 0,
                         "computed_parallel": 0, "coalesced": 0,
                         "persisted": 0, "persist_errors": 0,
                         "compute_errors": 0, "refused_busy": 0,
                         "shed": 0, "compactions": 0,
                         "compacted_records": 0}
        #: context salt -> cross-client coalesced submits (the hosted
        #: service's own stats cannot see coalescing — it happens on
        #: the in-flight map before the service is asked anything).
        self._coalesced_by_salt: dict[str, int] = {}
        self._inflight: dict[tuple[str, tuple], asyncio.Future] = {}
        # Evaluations pickled once, served many times: the hit path of
        # a repeat-heavy trace is dominated by (re)pickling reply
        # objects, so replies are cached as blobs per (salt, key).
        self._reply_blobs: dict[tuple[str, tuple], bytes] = {}
        self._reply_blob_cap = 16384
        self._persist_queue: asyncio.Queue | None = None
        self._compute: ThreadPoolExecutor | None = None
        self._write: ThreadPoolExecutor | None = None
        self._server: asyncio.base_events.Server | None = None
        self._writer_task: asyncio.Task | None = None
        self._maintenance_task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._force_event: asyncio.Event | None = None
        self._client_writers: set[asyncio.StreamWriter] = set()
        self._started_at = 0.0
        self._closed = False
        self._aborted = False
        #: Whether the daemon exited through :meth:`abort` (forced /
        #: crash-style) rather than the graceful drain.
        self.aborted = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open (and if needed recover) the store, bind the socket,
        launch the writer task."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._force_event = asyncio.Event()
        self._started_at = time.monotonic()
        if self.store_path is not None:
            # First thing: the writer lock.  A second daemon on the
            # same store dies here, before unlinking anyone's socket.
            # recover=True picks up a tail torn by a previous crash.
            self.store = EvalStore(self.store_path, recover=True,
                                   fault_injector=self._injector)
        try:
            self._compute = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-compute")
            self._write = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-write")
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            self._replace_stale_socket()
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=str(self.socket_path))
            self._persist_queue = asyncio.Queue()
            self._writer_task = self._loop.create_task(
                self._drain_persist_queue())
            if (self.store is not None
                    and self.maintenance_interval is not None):
                self._maintenance_task = self._loop.create_task(
                    self._maintenance_loop())
        except BaseException:
            # A boot failure must release everything it acquired —
            # above all the store writer lock.
            if self._compute is not None:
                self._compute.shutdown(wait=False)
            if self._write is not None:
                self._write.shutdown(wait=False)
            if self.store is not None:
                self.store.close()
            raise

    def _replace_stale_socket(self) -> None:
        """Unlink a leftover socket file only if nothing answers it.

        A daemon that died hard (or was force-killed) leaves its socket
        behind; a *live* daemon's socket accepts the probe and the
        newcomer refuses to steal it.
        """
        if not self.socket_path.exists():
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            try:
                probe.connect(str(self.socket_path))
            except OSError:
                # Nothing listening: genuinely stale, safe to replace.
                self.socket_path.unlink(missing_ok=True)
            else:
                raise ValueError(
                    f"another pricing daemon is already listening on "
                    f"{self.socket_path}; refusing to steal a live "
                    f"socket (use a different --socket, or stop the "
                    f"other daemon first)")
        finally:
            probe.close()

    def _on_signal(self) -> None:
        """First signal: graceful drain.  Second: force immediate exit
        (the store's durable prefix stays valid; next open recovers)."""
        if not self._shutdown_event.is_set():
            self._shutdown_event.set()
        else:
            self._force_event.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger the graceful shutdown; a repeat of
        either forces immediate exit (main thread only — threads cannot
        install signal handlers)."""
        assert self._loop is not None, "call start() first"
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(signum, self._on_signal)

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (used by ``serve_in_thread``).
        Like a signal: the first call drains, a second call forces."""
        loop = self._loop
        if loop is None or self._shutdown_event is None:
            return
        try:
            loop.call_soon_threadsafe(self._on_signal)
        except RuntimeError:  # loop already closed
            pass

    def force_stop(self) -> None:
        """Thread-safe immediate-exit trigger (crash semantics)."""
        loop, event = self._loop, self._force_event
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:  # loop already closed
            pass

    async def run_async(self, *, install_signals: bool = False) -> None:
        """Start, serve until stopped (gracefully or forced), wind
        down accordingly."""
        await self.start()
        if install_signals:
            self.install_signal_handlers()
        await self._serve_until_stopped()

    async def _serve_until_stopped(self) -> None:
        """Serve until the shutdown event; force event (second signal,
        injected kill) aborts — including mid-drain."""
        shutdown_wait = asyncio.ensure_future(
            self._shutdown_event.wait())
        force_wait = asyncio.ensure_future(self._force_event.wait())
        try:
            done, _ = await asyncio.wait(
                {shutdown_wait, force_wait},
                return_when=asyncio.FIRST_COMPLETED)
            if force_wait in done:
                await self.abort()
                return
            graceful = asyncio.ensure_future(self.shutdown())
            done, _ = await asyncio.wait(
                {graceful, force_wait},
                return_when=asyncio.FIRST_COMPLETED)
            if graceful in done:
                await graceful  # propagate drain errors
                return
            # Second signal landed mid-drain: stop draining, get out.
            graceful.cancel()
            try:
                await graceful
            except asyncio.CancelledError:
                pass
            await self.abort()
        finally:
            for waiter in (shutdown_wait, force_wait):
                if not waiter.done():
                    waiter.cancel()
            # No exit path may leak the store's writer lock: a drain
            # error propagating out of ``await graceful`` would
            # otherwise leave the handle open (and the store locked)
            # until GC.  Both calls are idempotent no-ops on the
            # normal paths, which already wound down.
            for service in self.services.values():
                service.shutdown_pool(wait=False)
            if self._write is not None:
                self._write.shutdown(wait=True, cancel_futures=True)
            if self.store is not None:
                self.store.close()

    async def shutdown(self) -> None:
        """Graceful wind-down: no accepted connection loses priced
        work and nothing pending skips persistence."""
        if self._closed or self._aborted:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._maintenance_task is not None:
            self._maintenance_task.cancel()
            try:
                await self._maintenance_task
            except asyncio.CancelledError:
                pass
        if self._inflight:
            await asyncio.gather(*list(self._inflight.values()),
                                 return_exceptions=True)
        if self._persist_queue is not None:
            await self._persist_queue.join()
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        if self.store is not None:
            try:
                for service in self.services.values():
                    await self._loop.run_in_executor(
                        self._write, service.flush_store)
            except TornWriteError:
                # Injected crash mid-flush: stop flushing, close out —
                # the next open recovers the torn tail.
                self.aborted = True
        if self._compute is not None:
            self._compute.shutdown(wait=True)
        for service in self.services.values():
            service.shutdown_pool()
        if self._write is not None:
            self._write.shutdown(wait=True)
        if self.store is not None:
            self.store.close()
        self.socket_path.unlink(missing_ok=True)

    async def abort(self) -> None:
        """Forced teardown (second signal / injected kill): drop
        everything *now*.

        Crash semantics by design: in-flight work and the persist queue
        are dropped (the store's durable prefix is still valid — every
        completed append was fsynced), client connections reset, and
        the socket file is deliberately left behind so the next
        daemon's probe-connect exercises the stale-socket path.
        """
        if self._aborted:
            return
        self._aborted = True
        self.aborted = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._client_writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._maintenance_task is not None \
                and not self._maintenance_task.done():
            self._maintenance_task.cancel()
            try:
                await self._maintenance_task
            except asyncio.CancelledError:
                pass
        if self._writer_task is not None and not self._writer_task.done():
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        for future in list(self._inflight.values()):
            if not future.done():
                future.cancel()
        self._inflight.clear()
        for service in self.services.values():
            service.shutdown_pool(wait=False)
        if self._compute is not None:
            self._compute.shutdown(wait=False, cancel_futures=True)
        if self._write is not None:
            # Wait for an already-running append/flush (queued writes
            # are still dropped): closing the store underneath it
            # would let the append re-acquire the writer lock after
            # close, leaking a locked handle until GC and blocking
            # the next open's recovery.
            self._write.shutdown(wait=True, cancel_futures=True)
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _reply(self, writer: asyncio.StreamWriter,
                     payload: dict) -> None:
        if self._injector is not None:
            stall = self._injector.reply_stall()
            if stall:
                await asyncio.sleep(stall)
        writer.write(encode_frame(payload,
                                  max_bytes=self.max_frame_bytes))
        try:
            if self.write_timeout is not None:
                await asyncio.wait_for(writer.drain(),
                                       self.write_timeout)
            else:
                await writer.drain()
        except asyncio.TimeoutError:
            # The client stopped reading; shed it rather than let its
            # unread buffer pin the connection handler forever.
            self.counters["shed"] += 1
            raise ConnectionResetError(
                "slow client shed: reply write deadline exceeded")

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.counters["connections"] += 1
        self._client_writers.add(writer)
        service: EvalService | None = None
        # Connection-local design handles: entry i is the (key, pair)
        # this client first submitted as handle i, so its repeats ride
        # as ints instead of re-pickled kilobyte design objects.
        handles: list[tuple[tuple, tuple]] = []
        try:
            while True:
                try:
                    frame = read_frame(reader,
                                       max_bytes=self.max_frame_bytes)
                    if self.read_timeout is not None:
                        request = await asyncio.wait_for(
                            frame, self.read_timeout)
                    else:
                        request = await frame
                except asyncio.TimeoutError:
                    # Idle past the read deadline: shed the connection
                    # (the client reconnects transparently if it is
                    # still alive — handles are re-registered).
                    self.counters["shed"] += 1
                    return
                except (FrameError,
                        asyncio.IncompleteReadError) as exc:
                    # The stream cannot be trusted past a malformed
                    # frame: answer best-effort, then hang up.
                    await self._reply(writer,
                                      {"ok": False, "error": str(exc)})
                    return
                if request is None:
                    return  # clean disconnect between frames
                response = await self._dispatch(request, service,
                                                handles)
                if isinstance(response, tuple):  # hello binds a service
                    service, response = response
                await self._reply(writer, response)
                if response.get("shutdown"):
                    self._shutdown_event.set()
                    return
        except (ConnectionResetError, BrokenPipeError):
            # Client vanished mid-reply.  In-flight computations keep
            # running to completion (and persist) — other clients
            # coalesced onto them are unaffected.
            pass
        except asyncio.CancelledError:
            # Daemon aborting (forced exit) while this handler was
            # mid-await: drop the connection quietly — the client's
            # retry machinery takes it from here.
            pass
        finally:
            self._client_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _dispatch(self, request, service: EvalService | None,
                        handles: list):
        if not isinstance(request, dict) or "op" not in request:
            return {"ok": False,
                    "error": "malformed request (expected a dict "
                             "with an 'op' field)"}
        op = request["op"]
        if op == "hello":
            return self._handle_hello(request)
        if op == "ping":
            return {"ok": True, "version": PROTOCOL_VERSION}
        if op == "status":
            return self._handle_status()
        if op == "shutdown":
            return {"ok": True, "shutdown": True}
        if service is None:
            return {"ok": False,
                    "error": f"op {op!r} before a successful hello"}
        if op == "submit":
            return await self._handle_submit(service, request, handles)
        if op == "stats":
            return self._handle_stats(service)
        if op == "bump_generation":
            service.bump_generation()
            return {"ok": True}
        if op == "flush":
            try:
                flushed = await self._loop.run_in_executor(
                    self._write, service.flush_store)
            except TornWriteError as exc:
                # Injected crash mid-append: daemon dies, connection
                # resets (the client retries against the next daemon
                # or falls back).
                self._force_event.set()
                raise ConnectionResetError(str(exc)) from exc
            return {"ok": True, "flushed": flushed}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _handle_hello(self, request):
        version = request.get("version")
        if version != PROTOCOL_VERSION:
            return None, {
                "ok": False,
                "error": f"protocol version {version!r} is not "
                         f"supported (server speaks "
                         f"{PROTOCOL_VERSION})"}
        try:
            workload = request["workload"]
            params = request["cost_params"]
            rho = request["rho"]
            salt = evaluation_context_salt(workload, params, rho)
        except Exception as exc:
            return None, {"ok": False,
                          "error": f"bad hello payload: {exc}"}
        service = self.services.get(salt)
        if service is None:
            evaluator = Evaluator(workload, CostModel(params),
                                  trainer=None, rho=rho)
            service = EvalService(
                evaluator, cache_size=self.cache_size, store=self.store,
                workers=self.workers if self._injector is None else 0)
            self.services[salt] = service
        else:
            # Same accounting as campaign sharing: entries priced
            # before this client joined count as *shared* reuse.
            service.bump_generation()
        return service, {"ok": True, "salt": salt,
                         "version": PROTOCOL_VERSION,
                         # Degraded clients layer a read-only local
                         # fallback over the daemon's store.
                         "store": (str(self.store_path)
                                   if self.store_path is not None
                                   else None)}

    def _handle_status(self) -> dict:
        """Pre-handshake liveness/occupancy probe
        (``repro serve --status``).

        ``contexts`` breaks the traffic down per hosted context salt —
        requests/hits/store hits from the hosted service's own stats,
        plus the cross-client coalesced submits only the server's
        in-flight map can see — so a shared daemon shows *which*
        evaluation context its cache is actually working for.
        """
        return {"ok": True, "version": PROTOCOL_VERSION,
                "uptime_seconds": time.monotonic() - self._started_at,
                "services": len(self.services),
                "workers": self.workers,
                "contexts": {
                    salt: {"requests": service.stats.requests,
                           "hits": service.stats.hits,
                           "store_hits": service.stats.store_hits,
                           "coalesced": self._coalesced_by_salt.get(
                               salt, 0),
                           "hit_rate": service.stats.hit_rate}
                    for salt, service in self.services.items()},
                "inflight": len(self._inflight),
                "persist_queue": (self._persist_queue.qsize()
                                  if self._persist_queue is not None
                                  else 0),
                "counters": dict(self.counters),
                "store_path": (str(self.store_path)
                               if self.store_path is not None else None),
                "store_entries": (len(self.store)
                                  if self.store is not None else 0),
                "store_recovered": (self.store.recovered
                                    if self.store is not None else None)}

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    async def _handle_submit(self, service: EvalService, request,
                             handles: list):
        if self._injector is not None \
                and self._injector.on_server_batch():
            # Injected daemon kill: crash semantics, mid-request.
            self._force_event.set()
            raise ConnectionResetError("fault injection: daemon killed")
        entries = request.get("pairs")
        if not isinstance(entries, list):
            return {"ok": False, "error": "submit without a pairs list"}
        resolved: list[tuple[tuple, tuple, int]] = []
        try:
            for entry in entries:
                if isinstance(entry, int):
                    if not 0 <= entry < len(handles):
                        return {"ok": False, "id": request.get("id"),
                                "error": "unknown design handle "
                                         f"{entry} (this connection "
                                         f"issued {len(handles)})"}
                    key, pair = handles[entry]
                    resolved.append((key, pair, entry))
                else:
                    networks, accelerator = entry
                    pair = (networks, accelerator)
                    key = design_content(networks, accelerator)
                    handles.append((key, pair))
                    resolved.append((key, pair, len(handles) - 1))
        except Exception as exc:
            return {"ok": False, "id": request.get("id"),
                    "error": f"malformed design entry: {exc}"}
        self.counters["batches"] += 1
        service.stats.batches += 1
        salt = service.context_salt
        results: dict[tuple, object] = {}
        first_tier: dict[tuple, str] = {}
        awaited: dict[tuple, asyncio.Future] = {}
        fresh: list[tuple[tuple, tuple]] = []
        for key, pair, _handle in resolved:
            if key in first_tier:
                # Intra-batch duplicate: the first occurrence answers
                # for all of them (counted as a hit, mirroring
                # EvalService.evaluate_many).
                service.stats.hits += 1
                continue
            evaluation, tier = service.lookup_tiers(key)
            if evaluation is not None:
                results[key] = evaluation
                first_tier[key] = tier
                continue
            inflight_key = (salt, key)
            pending = self._inflight.get(inflight_key)
            if pending is not None:
                # Another client is pricing this exact design right
                # now: one compute, many answers.
                awaited[key] = pending
                first_tier[key] = "coalesced"
                self.counters["coalesced"] += 1
                self._coalesced_by_salt[salt] = \
                    self._coalesced_by_salt.get(salt, 0) + 1
                continue
            if len(self._inflight) + len(fresh) >= self.max_inflight:
                # Refuse loudly instead of ballooning; the misses this
                # submit already claimed are still priced and land in
                # the cache, so the retried submit is cheaper.
                self._price_misses(service, fresh)
                self.counters["refused_busy"] += 1
                return {"ok": False, "id": request.get("id"),
                        "retryable": True,
                        "error": f"pricing daemon at capacity "
                                 f"({len(self._inflight)} computations "
                                 f"in flight); retry with backoff"}
            fresh.append((key, pair))
            first_tier[key] = "miss"
        awaited.update(self._price_misses(service, fresh))
        miss_seconds = 0.0
        if awaited:
            # return_exceptions: one poisoned design must not leave
            # sibling futures unretrieved (or kill the daemon).
            outcomes = await asyncio.gather(*awaited.values(),
                                            return_exceptions=True)
            failures: list[tuple[tuple, BaseException]] = []
            for key, outcome in zip(awaited.keys(), outcomes):
                if isinstance(outcome, BaseException):
                    failures.append((key, outcome))
                    continue
                evaluation, seconds = outcome
                results[key] = evaluation
                if first_tier[key] == "miss":
                    miss_seconds += seconds
            if failures:
                self.counters["compute_errors"] += len(failures)
                _key, exc = failures[0]
                return {"ok": False, "id": request.get("id"),
                        "error": f"pricing failed for {len(failures)} "
                                 f"of {len(awaited)} designs (first: "
                                 f"{type(exc).__name__}: {exc})"}
        seen: set[tuple] = set()
        tiers = []
        for key, _pair, _handle in resolved:
            tiers.append(first_tier[key] if key not in seen else "hit")
            seen.add(key)
        return {"ok": True, "id": request.get("id"),
                "evaluations": [
                    self._reply_blob(salt, key, results[key])
                    for key, _pair, _handle in resolved],
                "handles": [handle for _key, _pair, handle in resolved],
                "tiers": tiers, "miss_seconds": miss_seconds}

    def _reply_blob(self, salt: str, key: tuple, evaluation) -> bytes:
        """The evaluation pickled once per design (FIFO-capped cache)."""
        address = (salt, key)
        blob = self._reply_blobs.get(address)
        if blob is None:
            blob = pickle.dumps(evaluation,
                                protocol=pickle.HIGHEST_PROTOCOL)
            while len(self._reply_blobs) >= self._reply_blob_cap:
                self._reply_blobs.pop(next(iter(self._reply_blobs)))
            self._reply_blobs[address] = blob
        return blob

    def _price_misses(self, service: EvalService,
                      misses: list[tuple[tuple, tuple]]
                      ) -> dict[tuple, asyncio.Future]:
        """Price one submit's fresh misses as one compute-thread job.

        Each miss gets its own in-flight future, registered before this
        returns, so later submits (any client) coalesce onto it.  The
        job calls the fault injector's ``on_compute`` per design in
        request order, then prices the survivors through the hosted
        service's :meth:`~repro.core.evalservice.EvalService.\
compute_batch`; if that raises, it reprices them one by one, so only
        the raising design fails.  Admission, persistence and future
        resolution happen back on the loop thread.
        """
        if not misses:
            return {}
        salt = service.context_salt
        futures: dict[tuple, asyncio.Future] = {}
        for key, _pair in misses:
            future = self._loop.create_future()
            # A compute that fails after its only awaiter disconnected
            # (or was refused) must not surface "exception never
            # retrieved".
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None)
            self._inflight[(salt, key)] = future
            futures[key] = future
        injector = self._injector

        def compute():
            failed: dict[tuple, BaseException] = {}
            ready = []
            for key, pair in misses:
                try:
                    if injector is not None:
                        injector.on_compute(key)
                except Exception as exc:
                    failed[key] = exc
                else:
                    ready.append((key, pair))
            if not ready:
                return [], failed
            keys = [key for key, _pair in ready]
            try:
                return [(keys, service.compute_batch(
                    [pair for _key, pair in ready]))], failed
            except Exception:
                # Pricing is deterministic: the designs priced alone
                # answer exactly as in the batch.
                priced = []
                for key, pair in ready:
                    try:
                        priced.append(([key], service.compute_batch([pair])))
                    except Exception as exc:
                        failed[key] = exc
                return priced, failed

        def finish(task: asyncio.Future) -> None:
            # Runs on the loop thread: cache/stats mutation is safe.
            for key in futures:
                self._inflight.pop((salt, key), None)
            if task.cancelled() or self._aborted:
                if not task.cancelled():
                    task.exception()  # mark retrieved
                for future in futures.values():
                    future.cancel()
                return
            exc = task.exception()
            if exc is not None:
                for future in futures.values():
                    future.set_exception(exc)
                return
            priced, failed = task.result()
            for keys, batch in priced:
                service.admit_miss(keys, batch)
                self.counters["computed"] += len(keys)
                self.counters["computed_parallel"] += batch.parallel
                seconds = batch.seconds / len(keys)
                for key, evaluation in zip(keys, batch.evaluations):
                    if self.store is not None:
                        self._persist_queue.put_nowait(
                            (salt, service.store_digest(key), key,
                             evaluation))
                    futures[key].set_result((evaluation, seconds))
            for key, exc in failed.items():
                futures[key].set_exception(exc)

        self._loop.run_in_executor(self._compute,
                                   compute).add_done_callback(finish)
        return futures

    async def _drain_persist_queue(self) -> None:
        """The single writer task: all store appends flow through here
        (and through the one-thread write executor), so appends are
        serialized no matter how many clients are pricing."""
        while True:
            entries = [await self._persist_queue.get()]
            while True:
                try:
                    entries.append(self._persist_queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await self._loop.run_in_executor(
                    self._write, self.store.put_many, entries)
                self.counters["persisted"] += len(entries)
            except TornWriteError:
                # Injected crash mid-append: the process "dies" here.
                # Continuing to append after torn bytes would strand
                # every later record behind an unreadable tail, so a
                # real daemon could never survive this either.
                self.counters["persist_errors"] += len(entries)
                self._force_event.set()
                return
            except Exception:
                # The store indexes only after a successful append, so
                # a failed write (full disk) leaves it consistent; the
                # entries stay served from the LRU for this daemon's
                # lifetime.
                self.counters["persist_errors"] += len(entries)
            finally:
                for _ in entries:
                    self._persist_queue.task_done()

    async def _maintenance_loop(self) -> None:
        """Idle-path store maintenance: every ``maintenance_interval``
        seconds, if no request is in flight and the persist queue has
        drained, ask the store to compact away redundant records.

        The compaction runs on the one-thread write executor, so it is
        serialized with appends — a client arriving mid-compaction just
        queues its persist behind it.
        """
        while True:
            await asyncio.sleep(self.maintenance_interval)
            if self._inflight or (self._persist_queue is not None
                                  and self._persist_queue.qsize()):
                continue
            try:
                report = await self._loop.run_in_executor(
                    self._write, self.store.maybe_compact,
                    self.compact_min_redundant)
            except Exception:
                # Maintenance is best-effort; a failed compaction leaves
                # the store untouched (the swap is atomic) and must not
                # kill the daemon.
                continue
            if report is not None:
                self.counters["compactions"] += 1
                self.counters["compacted_records"] += (
                    report.get("records_dropped", 0))

    def _handle_stats(self, service: EvalService):
        return {"ok": True,
                "stats": service.stats.snapshot(),
                "cache_len": service.cache_len,
                "services": len(self.services),
                "server": dict(self.counters),
                "store_entries": (len(self.store)
                                  if self.store is not None else 0),
                "store_redundant": (self.store.redundant_records
                                    if self.store is not None else 0)}


def serve(socket_path: str | Path, *,
          store_path: str | Path | None = None,
          cache_size: int = 4096,
          read_timeout: float | None = None,
          write_timeout: float | None = 60.0,
          max_inflight: int = 256,
          workers: int = 0) -> PricingServer:
    """Run a pricing daemon until SIGTERM/SIGINT (blocking; a second
    signal forces immediate exit).

    The CLI entry point (``repro serve``).  Returns the wound-down
    server so callers can inspect its counters.
    """
    server = PricingServer(socket_path, store_path=store_path,
                           cache_size=cache_size,
                           read_timeout=read_timeout,
                           write_timeout=write_timeout,
                           max_inflight=max_inflight,
                           workers=workers)
    asyncio.run(server.run_async(install_signals=True))
    return server


@contextmanager
def serve_in_thread(socket_path: str | Path | None = None, *,
                    store_path: str | Path | None = None,
                    cache_size: int = 4096,
                    max_frame_bytes: int = MAX_FRAME_BYTES,
                    read_timeout: float | None = None,
                    write_timeout: float | None = 60.0,
                    max_inflight: int = 256,
                    workers: int = 0,
                    fault_injector=None,
                    maintenance_interval: float | None = 300.0,
                    compact_min_redundant: int = 256):
    """Run a daemon on a background thread (tests, fuzzing, benches).

    Yields the started :class:`PricingServer`; the daemon is shut down
    gracefully — in-flight pricing finished, persist queue drained,
    memos flushed — when the block exits (or torn down hard if a fault
    forced it first).  Without ``socket_path`` a short-lived temp
    directory hosts the socket (Unix socket paths have a ~100-byte
    limit deep pytest tmp dirs can exceed).
    """
    owned_dir: str | None = None
    if socket_path is None:
        owned_dir = tempfile.mkdtemp(prefix="repro-serve-")
        socket_path = Path(owned_dir) / "pricing.sock"
    server = PricingServer(socket_path, store_path=store_path,
                           cache_size=cache_size,
                           max_frame_bytes=max_frame_bytes,
                           read_timeout=read_timeout,
                           write_timeout=write_timeout,
                           max_inflight=max_inflight,
                           workers=workers,
                           fault_injector=fault_injector,
                           maintenance_interval=maintenance_interval,
                           compact_min_redundant=compact_min_redundant)
    started = threading.Event()
    boot_error: list[BaseException] = []

    def main() -> None:
        async def run() -> None:
            try:
                await server.start()
            except BaseException as exc:
                boot_error.append(exc)
                started.set()
                return
            started.set()
            await server._serve_until_stopped()

        asyncio.run(run())

    thread = threading.Thread(target=main, name="repro-serve",
                              daemon=True)
    thread.start()
    if not started.wait(timeout=60):
        raise RuntimeError("pricing daemon failed to start in time")
    if boot_error:
        thread.join(timeout=10)
        raise boot_error[0]
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=60)
        if owned_dir is not None:
            shutil.rmtree(owned_dir, ignore_errors=True)
