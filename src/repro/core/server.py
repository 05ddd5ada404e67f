"""Pricing-as-a-service: the async multi-client evaluation daemon.

The co-exploration loop is bottlenecked by hardware pricing, not the
optimiser — the observation behind deephyper's asynchronous search and
Apollo's shared transferable evaluation data.  This module turns the
pricing tier into a long-running service (``repro serve``) that many
concurrent search clients reach over a local Unix socket, sharing one
LRU, one persistent evaluation store and one in-memory cost-model memo
per evaluation context instead of each warming a private cache from
zero.

Architecture (one asyncio loop, one write thread):

- **Hosted services.**  Each client ``hello`` ships its evaluation
  context (workload, cost parameters, rho); the server builds — or
  reuses — one :class:`~repro.core.evalservice.EvalService` per
  context salt, exactly like campaign sharing, so equal-context
  clients share one cache and differing contexts can never poison
  each other (entries are salt-namespaced).
- **One miss path, on the loop thread.**  The daemon prices exactly
  as a local :class:`~repro.core.evalservice.EvalService` does: each
  design walks the hosted service's ``lookup_tiers``, and a submit's
  fresh misses are priced as *one* ``compute_batch`` call (one
  ``evaluate_hardware_many``) and admitted with ``admit_miss``, all
  on the event-loop thread before the submit's reply is written.
  Pricing is pure Python under the GIL, so a compute thread would run
  nothing in parallel and only make the loop contend for the GIL.
  Nothing is in flight across submits: a concurrent identical submit
  is read after the first one admitted its misses, so it is answered
  from the LRU (a ``shared`` hit once its client's ``hello`` opened a
  new generation), and each distinct design is computed once.
- **Keys in, numbers out.**  Submits carry
  :func:`repro.core.codec.encode_key` content keys, which walk the
  tiers as plain tuples; only a miss rebuilds its ``(networks,
  accelerator)`` pair, through the hosted service's workload
  (:func:`repro.core.evalservice.rebuild_design`), and an entry whose
  rebuilt pair does not reproduce its key is refused before anything
  is priced.  Replies carry :func:`repro.core.codec.encode_evaluation`
  bytes.
- **Single writer task.**  Computed misses are enqueued and drained by
  one task that appends to the store through a dedicated one-thread
  executor, so all store appends stay serialized — the same
  single-writer contract the store's ``flock`` enforces across
  processes, upheld inside the daemon by construction.
- **Graceful SIGTERM.**  Shutdown stops accepting, drains the persist
  queue and releases the store writer lock — a ``kill`` never drops
  priced work.  A *second*
  signal forces an immediate exit (crash semantics: the store's
  durable prefix is kept intact by construction, and the next daemon
  opens it with ``recover=True``).  Signals are handled on the loop,
  so one that lands while a submit is being priced takes effect when
  that submit's pricing returns.

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
- **Bounded pricing per submit.**  A submit with more than
  ``max_inflight`` fresh misses is refused loudly with a ``retryable``
  error frame the client backs off on.  The misses it had already
  claimed are priced first, so the retry makes progress; the bound is
  also the longest one submit holds the loop.
- **Hostile frames.**  Frames are read through the protocol's
  allow-listed unpickler, and any request that raises while being
  served answers an error frame instead of killing its handler.
- **Compute isolation.**  A design whose pricing raises (poisoned
  input) answers a per-request error frame; the daemon and its other
  connections are untouched.  A batch that raises is repriced design
  by design, so only the raising design fails and its batch siblings
  are still admitted.
- **Status probing.**  A pre-handshake ``status`` op
  (``repro serve --status``) reports uptime, hosted services, queued
  appends, counters and store occupancy.

Determinism: pricing is RNG-free, so a served evaluation is
bit-identical to an in-process one — the ``served`` and ``chaos-serve``
oracle pairs in :mod:`repro.core.differential` and
``benchmarks/bench_serve.py`` gate this continuously.
"""

from __future__ import annotations

import asyncio
import dataclasses
import shutil
import signal
import socket
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from repro.core.codec import decode_key, encode_evaluation
from repro.core.evaluator import Evaluator
from repro.core.evalservice import (
    EvalService,
    evaluation_context_salt,
    rebuild_design,
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
        max_inflight: Most fresh misses one submit may price (at least
            1); a submit with more is refused with a ``retryable``
            error frame after pricing the first ``max_inflight``.
        fault_injector: Test-only :class:`repro.core.faults.\
FaultInjector` hooked into the reply/batch/compute/append seams.
        maintenance_interval: Seconds between idle-path store
            maintenance checks (``None`` disables them).  When the
            daemon is idle — persist queue drained — and the store has
            accumulated enough droppable records
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
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be at least 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self.maintenance_interval = maintenance_interval
        self.compact_min_redundant = max(1, compact_min_redundant)
        self._injector = fault_injector
        self.store: EvalStore | None = None
        #: context salt -> hosted service (inspectable in tests).
        self.services: dict[str, EvalService] = {}
        #: ``coalesced`` stays 0: nothing is in flight across submits
        #: any more, but benchmark records still read the counter.
        self.counters = {"connections": 0, "batches": 0, "computed": 0,
                         "coalesced": 0,
                         "persisted": 0, "persist_errors": 0,
                         "compute_errors": 0, "refused_busy": 0,
                         "shed": 0, "compactions": 0,
                         "compacted_records": 0}
        self._persist_queue: asyncio.Queue | None = None
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
        if self._persist_queue is not None:
            await self._persist_queue.join()
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        if self._write is not None:
            self._write.shutdown(wait=True)
        if self.store is not None:
            self.store.close()
        self.socket_path.unlink(missing_ok=True)

    async def abort(self) -> None:
        """Forced teardown (second signal / injected kill): drop
        everything *now*.

        Crash semantics by design: the persist queue is dropped (the
        store's durable prefix is still valid — every completed append
        was fsynced), client connections reset, and the socket file is
        deliberately left behind so the next daemon's probe-connect
        exercises the stale-socket path.
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
        if self._write is not None:
            # Wait for an already-running append (queued writes
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
                    # still alive).
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
                try:
                    response = self._dispatch(request, service)
                except (ConnectionResetError, BrokenPipeError):
                    raise
                except Exception as exc:
                    # A request the handlers did not anticipate (odd
                    # field types from a hostile peer) answers an error
                    # frame; it never takes the connection handler down.
                    response = {"ok": False,
                                "error": f"request failed: "
                                         f"{type(exc).__name__}: {exc}"}
                if isinstance(response, tuple):  # hello binds a service
                    service, response = response
                await self._reply(writer, response)
                if response.get("shutdown"):
                    self._shutdown_event.set()
                    return
        except (ConnectionResetError, BrokenPipeError):
            # Client vanished mid-reply.  Its misses were admitted and
            # queued for persistence before the reply was written.
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

    def _dispatch(self, request, service: EvalService | None):
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
            if self._closed:
                # The graceful drain has begun: a design priced now
                # could miss the persist queue's last drain.  Hang up;
                # the client resubmits to the next daemon.
                raise ConnectionResetError("pricing daemon shutting down")
            return self._handle_submit(service, request)
        if op == "stats":
            return self._handle_stats(service)
        if op == "bump_generation":
            service.bump_generation()
            return {"ok": True}
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
            service = self.services.get(salt)
            evaluator = (Evaluator(workload, CostModel(params),
                                   trainer=None, rho=rho)
                         if service is None else None)
        except Exception as exc:
            return None, {"ok": False,
                          "error": f"bad hello payload: {exc}"}
        if service is None:
            service = EvalService(
                evaluator, cache_size=self.cache_size, store=self.store)
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

        ``contexts`` breaks the traffic down per hosted context salt,
        from the hosted service's own stats, so a shared daemon shows
        *which* evaluation context its cache is actually working for
        and how much of it other clients' pricing answered.
        """
        return {"ok": True, "version": PROTOCOL_VERSION,
                "uptime_seconds": time.monotonic() - self._started_at,
                "services": len(self.services),
                "contexts": {
                    salt: {"requests": service.stats.requests,
                           "hits": service.stats.hits,
                           "shared_hits": service.stats.shared_hits,
                           "store_hits": service.stats.store_hits,
                           "hit_rate": service.stats.hit_rate}
                    for salt, service in self.services.items()},
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
    def _handle_submit(self, service: EvalService, request):
        if self._injector is not None \
                and self._injector.on_server_batch():
            # Injected daemon kill: crash semantics, mid-request.
            self._force_event.set()
            raise ConnectionResetError("fault injection: daemon killed")
        entries = request.get("keys")
        if not isinstance(entries, list):
            return {"ok": False, "id": request.get("id"),
                    "error": "submit without a keys list"}
        try:
            keys = [decode_key(entry) for entry in entries]
        except ValueError as exc:
            return {"ok": False, "id": request.get("id"),
                    "error": f"malformed design key: {exc}"}
        self.counters["batches"] += 1
        service.stats.batches += 1
        workload = service.evaluator.workload
        results: dict[tuple, object] = {}
        first_tier: dict[tuple, str] = {}
        fresh: list[tuple[tuple, tuple, str | None]] = []
        for key in keys:
            if key in first_tier:
                # Intra-batch duplicate: the first occurrence answers
                # for all of them (counted as a hit, mirroring
                # EvalService.evaluate_many).
                service.stats.hits += 1
                continue
            evaluation, tier, digest = service.lookup_tiers(key)
            if evaluation is not None:
                results[key] = evaluation
                first_tier[key] = tier
                continue
            try:
                pair = rebuild_design(workload, key)
            except ValueError as exc:
                # Nothing of this submit has been priced yet: refuse it
                # whole rather than price a key that names no design.
                return {"ok": False, "id": request.get("id"),
                        "error": f"design key refused: {exc}"}
            if len(fresh) >= self.max_inflight:
                # Refuse loudly instead of holding the loop without
                # bound; the misses this submit already claimed are
                # still priced and land in the cache, so the retried
                # submit is cheaper.
                self._price_misses(service, fresh)
                self.counters["refused_busy"] += 1
                return {"ok": False, "id": request.get("id"),
                        "retryable": True,
                        "error": f"pricing daemon at capacity (a submit "
                                 f"may price at most {self.max_inflight} "
                                 f"misses); retry with backoff"}
            fresh.append((key, pair, digest))
            first_tier[key] = "miss"
        priced, miss_seconds, failed = self._price_misses(service, fresh)
        if failed:
            self.counters["compute_errors"] += len(failed)
            exc = next(failed[key] for key, _pair, _digest in fresh
                       if key in failed)
            return {"ok": False, "id": request.get("id"),
                    "error": f"pricing failed for {len(failed)} "
                             f"of {len(fresh)} designs (first: "
                             f"{type(exc).__name__}: {exc})"}
        results.update(priced)
        blobs = {key: self._reply_blob(evaluation)
                 for key, evaluation in results.items()}
        seen: set[tuple] = set()
        tiers = []
        for key in keys:
            tiers.append(first_tier[key] if key not in seen else "hit")
            seen.add(key)
        return {"ok": True, "id": request.get("id"),
                "evaluations": [blobs[key] for key in keys],
                "tiers": tiers, "miss_seconds": miss_seconds}

    def _reply_blob(self, evaluation) -> bytes:
        """One evaluation in the wire's codec layout (the accelerator
        stays with the client's request pair)."""
        return encode_evaluation(evaluation)

    def _price_misses(self, service: EvalService,
                      misses: list[tuple[tuple, tuple, str | None]]
                      ) -> tuple[dict, float, dict]:
        """Price one submit's fresh ``(key, pair, store digest)`` misses
        on the loop thread: ``(evaluations, seconds, failures)`` by key.

        Calls the fault injector's ``on_compute`` per design in request
        order, then prices the survivors as one
        :meth:`~repro.core.evalservice.EvalService.compute_batch`; if
        that raises, it reprices them one by one, so only the raising
        design fails.  Every priced batch is admitted to the hosted
        service and queued for persistence (under the digest the store
        lookup already hashed) before this returns.  Deliberately not
        sliced: yielding to the loop between designs gave back about
        half of what pricing on the loop thread saves.
        """
        failed: dict[tuple, BaseException] = {}
        ready = []
        for miss in misses:
            try:
                if self._injector is not None:
                    self._injector.on_compute(miss[0])
            except Exception as exc:
                failed[miss[0]] = exc
            else:
                ready.append(miss)
        batches = []
        if ready:
            try:
                batches.append((ready, service.compute_batch(
                    [pair for _key, pair, _digest in ready])))
            except Exception:
                # Pricing is deterministic: the designs priced alone
                # answer exactly as in the batch.
                for miss in ready:
                    try:
                        batches.append(
                            ([miss], service.compute_batch([miss[1]])))
                    except Exception as exc:
                        failed[miss[0]] = exc
        priced: dict[tuple, object] = {}
        seconds = 0.0
        for batch_misses, batch in batches:
            keys = [key for key, _pair, _digest in batch_misses]
            service.admit_miss(keys, batch)
            self.counters["computed"] += len(keys)
            seconds += batch.seconds
            for (key, _pair, digest), evaluation in zip(
                    batch_misses, batch.evaluations):
                if self.store is not None:
                    self._persist_queue.put_nowait(
                        (service.context_salt, digest, key, evaluation))
                priced[key] = evaluation
        return priced, seconds, failed

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
        seconds, if the persist queue has drained, ask the store to
        compact away redundant records.

        The compaction runs on the one-thread write executor, so it is
        serialized with appends — a client arriving mid-compaction just
        queues its persist behind it.
        """
        while True:
            await asyncio.sleep(self.maintenance_interval)
            if self._persist_queue.qsize():
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
                "stats": dataclasses.asdict(service.stats),
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
          max_inflight: int = 256) -> PricingServer:
    """Run a pricing daemon until SIGTERM/SIGINT (blocking; a second
    signal forces immediate exit).

    The CLI entry point (``repro serve``).  Returns the wound-down
    server so callers can inspect its counters.
    """
    server = PricingServer(socket_path, store_path=store_path,
                           cache_size=cache_size,
                           read_timeout=read_timeout,
                           write_timeout=write_timeout,
                           max_inflight=max_inflight)
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
                    fault_injector=None,
                    maintenance_interval: float | None = 300.0,
                    compact_min_redundant: int = 256):
    """Run a daemon on a background thread (tests, fuzzing, benches).

    Yields the started :class:`PricingServer`; the daemon is shut down
    gracefully — persist queue drained, store closed — when the block
    exits (or torn down hard if a fault forced it first).  Without
    ``socket_path`` a short-lived temp directory hosts the socket (Unix
    socket paths have a ~100-byte limit deep pytest tmp dirs can
    exceed).
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
