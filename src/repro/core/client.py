"""Synchronous client of the pricing daemon (``repro serve``).

:class:`RemoteEvalService` speaks the protocol of
:mod:`repro.core.protocol` over a local Unix socket and presents the
same surface search code already consumes — ``evaluate_many``,
``evaluate_hardware``, ``stats``, ``context_salt``,
``bump_generation``, ``flush_store`` — so :class:`repro.core.driver.\
SearchDriver`, the strategies and the campaign runner adopt the served
tier through plain injection, with zero strategy changes.

Designs travel as :func:`repro.core.codec.encode_key` content keys and
evaluations come back as :func:`repro.core.codec.encode_evaluation`
bytes, which the client decodes with the accelerator of its own
request pair — so a served evaluation equals direct pricing by
dataclass equality, and nothing the daemon sends is unpickled outside
the protocol's allow-list.

Differences from a local :class:`repro.core.evalservice.EvalService`:

- The cache and the store live in the daemon and are shared across
  clients; ``store`` is therefore ``None`` here and checkpointing
  (``state_snapshot`` / ``restore_state``) is refused with a pointer
  at the local-store workflow.
- ``stats`` are mirrored client-side from the per-request tiers the
  daemon reports, so per-run accounting (hit rates, miss seconds)
  stays truthful even though the cache itself is shared — coalesced
  and cross-client hits land in ``shared_hits``, exactly where a
  shared campaign cache would put them.
- The handshake recomputes the evaluation-context salt locally and
  refuses a daemon whose salt differs, the same guarantee
  :func:`repro.core.evalservice.verify_injected_service` gives for
  in-process sharing.

Fault tolerance
---------------

Every request runs under a per-reply deadline (``timeout``) and a
bounded retry budget (``retries``) with exponential backoff + jitter.
A connection-level failure — dropped socket, timed-out reply, daemon
restart, frame garbage — tears down the connection and transparently
reconnects: re-handshake, salt re-verified, same submit resent (a
submit is a list of content keys, which hold on any connection).
Resubmission is safe: pricing is deterministic and the daemon
coalesces duplicates, so a retried request returns bit-identical
evaluations.  A ``retryable`` refusal from the daemon
(bounded in-flight queue at capacity) backs off on the *same*
connection.

When the retry budget is exhausted (or the daemon refuses outright —
e.g. a poisoned design) and the client was built with
``fallback="local"``, it degrades: the remainder of the run is priced
by a local :class:`~repro.core.evalservice.EvalService` layered over a
read-only view of the daemon's store when reachable, and the run
records ``degraded`` + fault counters in its ``pricing`` block.
Without a fallback the error propagates — loudly, never silently.
"""

from __future__ import annotations

import random
import socket
import time
from pathlib import Path

from repro.core.codec import decode_evaluation, encode_key
from repro.core.evalservice import (
    EvalServiceStats,
    design_content,
    evaluation_context_salt,
)
from repro.core.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    recv_frame,
    send_frame,
)
from repro.utils.hashing import stable_hash

__all__ = ["DaemonBusyError", "RemoteEvalService", "parse_endpoint",
           "probe_status"]


def parse_endpoint(endpoint: str | Path) -> Path:
    """Socket path of a service endpoint (``unix:///run/x.sock`` or a
    bare filesystem path)."""
    text = str(endpoint)
    if text.startswith("unix://"):
        text = text[len("unix://"):]
    if not text:
        raise ValueError(
            f"service endpoint {str(endpoint)!r} has no socket path")
    return Path(text)


class DaemonBusyError(ConnectionError):
    """The daemon refused a request with ``retryable: True`` (bounded
    in-flight queue at capacity).  The connection itself is healthy —
    the client backs off and resubmits without reconnecting."""


class _WireFrameError(FrameError):
    """A framing failure while *receiving*: the stream is
    desynchronised, so reconnect + resubmit can fix it.  (An encode
    failure — an oversized outgoing frame — is deterministic and is
    never retried.)"""


def probe_status(endpoint: str | Path, *,
                 timeout: float = 5.0) -> dict:
    """One-shot ``status`` probe of a daemon (``repro serve --status``).

    Opens a fresh connection, sends the pre-handshake ``status`` op and
    returns the daemon's reply (uptime, hosted services, in-flight and
    queued work, counters, store occupancy).  Raises
    :class:`ConnectionError` when no daemon is reachable.
    """
    path = parse_endpoint(endpoint)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        try:
            sock.connect(str(path))
        except (FileNotFoundError, ConnectionRefusedError) as exc:
            raise ConnectionError(
                f"no pricing daemon listening at {path} "
                f"({exc.strerror or exc})") from exc
        send_frame(sock, {"op": "status"})
        reply = recv_frame(sock)
        if reply is None:
            raise ConnectionError(
                f"pricing daemon at {path} closed the connection "
                "before answering the status probe")
        if not isinstance(reply, dict) or not reply.get("ok"):
            error = (reply.get("error", "unknown error")
                     if isinstance(reply, dict) else repr(reply))
            raise ConnectionError(
                f"pricing daemon at {path} refused the status probe: "
                f"{error}")
        return reply
    finally:
        sock.close()


class RemoteEvalService:
    """Evaluation service backed by a pricing daemon.

    Args:
        endpoint: ``unix://<socket path>`` (or a bare path) of a
            running ``repro serve`` daemon.
        workload / cost_params / rho: The evaluation context this
            client prices under; shipped in the handshake so the
            daemon hosts (or reuses) the matching service.
        timeout: Per-reply deadline in seconds.  Generous by default —
            a cold miss behind many queued batches can take a while; a
            dead daemon still fails in bounded time.
        submit_chunk: Max designs per submit frame; larger batches are
            transparently split so they never trip the frame-size
            guard.
        retries: Reconnect/resubmit attempts per request after the
            first failure, before giving up (falling back or raising).
        backoff: Base backoff in seconds; attempt ``k`` sleeps
            ``min(backoff_max, backoff * 2**(k-1))`` scaled by a
            deterministic jitter in ``[0.5, 1.5)`` (seeded from the
            context salt, so runs stay reproducible).
        backoff_max: Backoff ceiling in seconds.
        fallback: ``None`` (fail loudly, the default) or ``"local"``:
            when the retry budget is exhausted, finish the run on a
            local :class:`~repro.core.evalservice.EvalService` over a
            read-only view of the daemon's store (when reachable).
        fault_injector: Test-only :class:`repro.core.faults.\
FaultInjector` hooked into the frame-send seam (chaos harness).
    """

    def __init__(self, endpoint: str | Path, workload, cost_params,
                 rho: float, *, timeout: float = 600.0,
                 submit_chunk: int = 256,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 retries: int = 4, backoff: float = 0.05,
                 backoff_max: float = 2.0,
                 fallback: str | None = None,
                 fault_injector=None) -> None:
        if fallback not in (None, "local"):
            raise ValueError(
                f"unknown fallback mode {fallback!r} (supported: "
                f"'local')")
        self.socket_path = parse_endpoint(endpoint)
        self.stats = EvalServiceStats()
        self.store = None  # the persistent tier lives in the daemon
        self._workload = workload
        self._cost_params = cost_params
        self._rho = rho
        self._salt = evaluation_context_salt(workload, cost_params, rho)
        self._timeout = timeout
        self._submit_chunk = max(1, submit_chunk)
        self._max_frame_bytes = max_frame_bytes
        self._retries = max(0, int(retries))
        self._backoff = backoff
        self._backoff_max = backoff_max
        self._fallback = fallback
        self._injector = fault_injector
        # Deterministic jitter: de-synchronises concurrent clients'
        # retry storms without introducing run-to-run nondeterminism.
        self._jitter = random.Random(
            stable_hash(self._salt, salt="client-jitter"))
        self._request_id = 0
        self._closed = False
        self._ever_connected = False
        #: The daemon's store path (from the handshake reply); the
        #: local fallback layers a read-only view over it.
        self._daemon_store_path: str | None = None
        #: Local fallback service once degraded, else ``None``.
        self._local = None
        self._stats_base: EvalServiceStats | None = None
        self._sock: socket.socket | None = None
        try:
            self._with_retry(None)
        except (ConnectionError, FrameError, OSError) as exc:
            if self._fallback != "local":
                raise
            self._degrade(exc)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        """(Re)connect: fresh socket, handshake, salt verification.

        Any failure closes the socket (no fd leak on the handshake or
        salt-mismatch paths).
        """
        self._drop_socket()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._timeout)
        ok = False
        try:
            try:
                sock.connect(str(self.socket_path))
            except (FileNotFoundError, ConnectionRefusedError) as exc:
                raise ConnectionError(
                    f"no pricing daemon listening at {self.socket_path} "
                    f"({exc.strerror or exc}); start one with "
                    f"'repro serve --socket {self.socket_path}'") from exc
            reply = self._call_on(sock, {"op": "hello",
                                         "version": PROTOCOL_VERSION,
                                         "workload": self._workload,
                                         "cost_params": self._cost_params,
                                         "rho": self._rho})
            if reply.get("salt") != self._salt:
                raise ValueError(
                    f"pricing daemon at {self.socket_path} computed "
                    f"context salt {reply.get('salt')!r} but this "
                    f"client computed {self._salt!r} — version skew "
                    "between daemon and client would misprice designs")
            self._daemon_store_path = reply.get("store")
            ok = True
        finally:
            if not ok:
                sock.close()
        self._sock = sock
        if self._ever_connected:
            self.stats.reconnects += 1
        self._ever_connected = True

    def _drop_socket(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _call_on(self, sock: socket.socket, request: dict) -> dict:
        """One raw round-trip on an explicit socket (no retry)."""
        if self._injector is not None:
            self._injector.on_client_frame(sock)
        # A FrameError raised here (oversized outgoing frame) happens
        # before any bytes hit the socket and is deterministic — it
        # propagates unretried.
        send_frame(sock, request, max_bytes=self._max_frame_bytes)
        try:
            reply = recv_frame(sock, max_bytes=self._max_frame_bytes)
        except FrameError as exc:
            raise _WireFrameError(str(exc)) from exc
        if reply is None:
            raise ConnectionError(
                f"pricing daemon at {self.socket_path} closed the "
                "connection")
        if not isinstance(reply, dict) or not reply.get("ok"):
            if isinstance(reply, dict) and reply.get("retryable"):
                raise DaemonBusyError(
                    f"pricing daemon at {self.socket_path} deferred "
                    f"{request.get('op')!r}: "
                    f"{reply.get('error', 'busy')}")
            error = (reply.get("error", "unknown error")
                     if isinstance(reply, dict) else repr(reply))
            raise RuntimeError(
                f"pricing daemon refused {request.get('op')!r}: "
                f"{error}")
        return reply

    def _sleep_backoff(self, attempt: int) -> None:
        base = min(self._backoff_max,
                   self._backoff * (2 ** max(0, attempt - 1)))
        time.sleep(base * (0.5 + self._jitter.random()))

    def _with_retry(self, request: dict | None) -> dict | None:
        """Run one request under the retry budget.

        ``request`` is resent on every attempt (``None`` means "just
        ensure connected").  Retryable:
        connection-level failures (``OSError`` including timeouts,
        :class:`FrameError`, a closed stream) which reconnect, and
        :class:`DaemonBusyError` which backs off on the live
        connection.  Not retryable: daemon refusals (``RuntimeError``)
        and salt mismatches (``ValueError``) — retrying cannot fix
        version skew or a poisoned design.
        """
        if self._closed:
            raise RuntimeError("remote evaluation service is closed")
        attempt = 0
        while True:
            try:
                if self._sock is None:
                    self._connect()
                if request is None:
                    return None
                return self._call_on(self._sock, request)
            except DaemonBusyError:
                # The connection is healthy; just back off and resend.
                attempt += 1
                self.stats.retries += 1
                if attempt > self._retries:
                    raise
            except (OSError, _WireFrameError) as exc:
                self._drop_socket()
                attempt += 1
                self.stats.retries += 1
                if attempt > self._retries:
                    if isinstance(exc, ConnectionError):
                        raise
                    raise ConnectionError(
                        f"pricing daemon at {self.socket_path} failed "
                        f"{attempt} attempts (last: {exc})") from exc
            self._sleep_backoff(attempt)

    # ------------------------------------------------------------------
    # Degradation (local fallback)
    # ------------------------------------------------------------------
    def _degrade(self, cause: BaseException) -> None:
        """Switch to a local fallback service for the rest of the run.

        Layered over a read-only view of the daemon's store when one is
        reachable (warm start, no writer-lock contention with a daemon
        that may still hold it); already-mirrored stats are kept as the
        base and the local service's stats are folded in on top.
        """
        from repro.core.evalservice import EvalService
        from repro.core.evaluator import Evaluator
        from repro.core.store import EvalStore
        from repro.cost.model import CostModel

        self._drop_socket()
        store = None
        if self._daemon_store_path:
            try:
                store = EvalStore(self._daemon_store_path,
                                  read_only=True)
            except (OSError, ValueError):
                store = None  # cold fallback beats no fallback
        evaluator = Evaluator(self._workload,
                              CostModel(self._cost_params),
                              trainer=None, rho=self._rho)
        self._local = EvalService(evaluator, store=store)
        base = self.stats.snapshot()
        self._stats_base = base
        self.stats.degraded = 1
        import warnings
        warnings.warn(
            f"pricing daemon at {self.socket_path} unreachable after "
            f"{self.stats.retries} retries ({cause}); degrading to "
            f"local pricing"
            + (" over a read-only view of the daemon's store"
               if store is not None else " (store unreachable — cold)"),
            RuntimeWarning, stacklevel=3)

    def _refresh_degraded_stats(self) -> None:
        """Fold base (pre-degradation) + local stats into ``self.stats``
        in place — external references to the stats object stay valid."""
        import dataclasses
        local = self._local.stats
        base = self._stats_base
        for field in dataclasses.fields(EvalServiceStats):
            setattr(self.stats, field.name,
                    getattr(base, field.name)
                    + getattr(local, field.name))
        self.stats.degraded = 1

    @property
    def degraded(self) -> bool:
        """Whether this client has fallen back to local pricing."""
        return self._local is not None

    # ------------------------------------------------------------------
    # EvalService surface
    # ------------------------------------------------------------------
    @property
    def context_salt(self) -> str:
        """Digest of the evaluation context (compared against the
        daemon's during the handshake)."""
        return self._salt

    @property
    def cache_len(self) -> int:
        """The LRU lives in the daemon; this client holds no entries
        (after degradation: the local fallback's cache)."""
        if self._local is not None:
            return self._local.cache_len
        return 0

    def evaluate_hardware(self, networks, accelerator):
        """Price one design through the daemon."""
        return self.evaluate_many([(networks, accelerator)])[0]

    def evaluate_many(self, pairs) -> list:
        """Price a batch through the daemon, preserving order.

        Chunked to respect the frame-size guard; stats are mirrored
        from the tiers the daemon reports for each request.  An
        exhausted retry budget degrades to local pricing when a
        fallback was configured, else raises.
        """
        pairs = list(pairs)
        if self._local is not None:
            result = self._local.evaluate_many(pairs)
            self._refresh_degraded_stats()
            return result
        self.stats.batches += 1
        evaluations: list = []
        for start in range(0, len(pairs), self._submit_chunk):
            chunk = pairs[start:start + self._submit_chunk]
            self._request_id += 1
            request = {"op": "submit", "id": self._request_id,
                       "keys": [encode_key(design_content(*pair))
                                for pair in chunk]}
            try:
                reply = self._with_retry(request)
            except (ConnectionError, FrameError, OSError, RuntimeError,
                    ValueError) as exc:
                if self._fallback != "local":
                    raise
                # The local reprice below counts this batch itself.
                self.stats.batches -= 1
                self._degrade(exc)
                # Reprice the whole batch locally: chunks already
                # priced through the daemon are deterministic cache /
                # store hits, so the result stays bit-identical.
                result = self._local.evaluate_many(pairs)
                self._refresh_degraded_stats()
                return result
            if reply.get("id") != request["id"]:
                raise ConnectionError(
                    f"pricing daemon answered request "
                    f"{reply.get('id')!r} out of order (expected "
                    f"{request['id']}) — stream desynchronised")
            evaluations.extend(self._decode_reply(reply, chunk))
            self._absorb(reply["tiers"], reply["miss_seconds"])
        return evaluations

    def _decode_reply(self, reply: dict, chunk: list) -> list:
        """Evaluations of one submit reply, each decoded with the
        accelerator of its own request pair."""
        blobs = reply.get("evaluations")
        if not isinstance(blobs, list) or len(blobs) != len(chunk):
            raise ConnectionError(
                f"pricing daemon at {self.socket_path} answered a "
                f"{len(chunk)}-design submit with a malformed evaluation "
                f"list")
        try:
            return [decode_evaluation(blob, accelerator)
                    for blob, (_networks, accelerator) in zip(blobs, chunk)]
        except ValueError as exc:
            raise ConnectionError(
                f"pricing daemon at {self.socket_path} sent an "
                f"undecodable evaluation: {exc}") from exc

    def bump_generation(self) -> None:
        """Open a new cache generation in the hosted service, so
        pre-existing entries count as shared reuse from here on."""
        if self._local is not None:
            self._local.bump_generation()
            return
        self._with_retry({"op": "bump_generation"})

    def flush_store(self) -> int:
        """Ask the daemon to flush the hosted service's cost memo."""
        if self._local is not None:
            flushed = self._local.flush_store()
            self._refresh_degraded_stats()
            return flushed
        reply = self._with_retry({"op": "flush"})
        return int(reply.get("flushed", 0))

    def state_snapshot(self) -> dict:
        raise RuntimeError(
            "a remote evaluation service cannot be checkpointed: its "
            "cache lives in the daemon and is shared across clients; "
            "run with a local --store instead of --service when you "
            "need --checkpoint/--resume")

    def restore_state(self, state: dict) -> None:
        raise RuntimeError(
            "a remote evaluation service cannot restore a checkpoint: "
            "resume the run against a local --store instead of "
            "--service")

    def close(self) -> None:
        """Close the connection (the daemon and its caches live on)."""
        self._closed = True
        self._drop_socket()
        if self._local is not None:
            if self._local.store is not None:
                self._local.store.close()
            self._local.close()

    # ------------------------------------------------------------------
    # Daemon management
    # ------------------------------------------------------------------
    def server_stats(self) -> dict:
        """The daemon's view: hosted-service stats snapshot (as an
        :class:`EvalServiceStats`), ``cache_len``, server counters,
        store occupancy."""
        if self._local is not None:
            raise ConnectionError(
                "client is degraded to local pricing; the daemon is "
                "unreachable")
        reply = self._with_retry({"op": "stats"})
        reply["stats"] = EvalServiceStats(**reply["stats"])
        return reply

    def ping(self) -> int:
        """Round-trip liveness check; returns the daemon's protocol
        version."""
        if self._local is not None:
            raise ConnectionError(
                "client is degraded to local pricing; the daemon is "
                "unreachable")
        return int(self._with_retry({"op": "ping"})["version"])

    def shutdown_server(self) -> None:
        """Ask the daemon to shut down gracefully (drain + flush).

        Deliberately unretried: re-sending a shutdown through the
        retry machinery could kill a *restarted* daemon."""
        if self._sock is None:
            self._connect()
        self._call_on(self._sock, {"op": "shutdown"})

    # ------------------------------------------------------------------
    # Stats plumbing
    # ------------------------------------------------------------------
    def _absorb(self, tiers, miss_seconds: float) -> None:
        """Mirror one reply's tier breakdown into local stats."""
        for tier in tiers:
            if tier == "miss":
                self.stats.misses += 1
                continue
            self.stats.hits += 1
            if tier == "store":
                self.stats.store_hits += 1
            elif tier in ("shared", "coalesced"):
                self.stats.shared_hits += 1
        self.stats.miss_seconds += miss_seconds

    def __enter__(self) -> "RemoteEvalService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        if self._local is not None:
            state = "degraded-local"
        elif self._closed:
            state = "closed"
        elif self._sock is None:
            state = "disconnected"
        else:
            state = "connected"
        return (f"RemoteEvalService({str(self.socket_path)!r}, "
                f"{state}, salt={self._salt[:8]}...)")
