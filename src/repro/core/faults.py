"""Deterministic fault injection for the serving/persistence stack.

The fault-tolerance contracts of the pricing tier — bounded client
retry with reconnect, local fallback, daemon compute isolation, store
crash recovery — are only worth trusting if they are *driven*, not just
code-reviewed.  This module provides the driver: a seeded
:class:`FaultPlan` describing a bounded schedule of faults, and a
:class:`FaultInjector` that executes the plan at well-defined seams:

- **client frames** (:meth:`FaultInjector.on_client_frame`): the
  connection is torn down after the N-th frame the client sends —
  the client must reconnect, re-handshake, re-verify the salt and
  resubmit (safe: pricing is deterministic and the daemon caches).
- **server replies** (:meth:`FaultInjector.reply_stall`): the N-th
  reply is stalled past the client's deadline — the client must time
  out, drop the desynchronised connection and retry.
- **computes** (:meth:`FaultInjector.on_compute`): the N-th miss
  computation raises :class:`PoisonedDesignError` — the daemon must
  answer a per-request error frame and survive; a fallback-configured
  client degrades to local pricing.
- **batches** (:meth:`FaultInjector.on_server_batch`): the daemon is
  hard-killed after the N-th submit batch (crash semantics: in-flight
  connections reset, the socket file left behind).
- **store appends** (:meth:`FaultInjector.on_store_append`): the N-th
  append writes only a torn prefix and raises
  :class:`TornWriteError` — the daemon treats it as fatal (a real torn
  write means the process died mid-``write``), and the next open with
  ``recover=True`` must keep the durable prefix and quarantine the
  tail.

Every fault in a plan has a *bounded* occurrence count, so any run
under any plan terminates: the client either completes through
retries or exhausts them and falls back.  The ``chaos-serve`` oracle
pair in :mod:`repro.core.differential` asserts the bit-identity side
of that bargain on generated scenarios.
"""

from __future__ import annotations

import os
import socket as socket_module
from dataclasses import dataclass, fields

__all__ = ["FaultInjector", "FaultPlan", "InjectedFault",
           "PoisonedDesignError", "TornWriteError"]


class InjectedFault(RuntimeError):
    """Base class of every injected failure (never raised by real
    faults — catching it in production code would be a bug)."""


class PoisonedDesignError(InjectedFault):
    """An injected compute failure: pricing this design 'crashes'."""


class TornWriteError(InjectedFault):
    """An injected torn store append: only a prefix reached the file.

    The daemon treats this as fatal — a real torn append means the
    writing process died, so continuing to append after the torn bytes
    would strand every later record behind an unreadable tail.
    """


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, bounded schedule of faults (empty plan = no faults).

    Attributes:
        drop_client_frames: 0-based indexes of client-sent frames
            (handshakes included) after which the connection is torn
            down.
        stall_replies: 0-based indexes of server replies (handshake
            replies included) delayed by ``stall_seconds`` — sized by
            the harness relative to the client deadline, so some
            stalls are mere latency and some force a timeout + retry.
        stall_seconds: Duration of each stalled reply.
        poison_computes: 0-based indexes of miss computations that
            raise :class:`PoisonedDesignError` (index-based, so a
            retried design may succeed — transient poison — while a
            fallback client degrades on the first refusal).
        kill_after_batches: Hard-kill the daemon after this many submit
            batches (``None`` = never).
        torn_append_at: The 0-based store append that writes only a
            torn prefix and kills the daemon (``None`` = never).
    """

    drop_client_frames: tuple[int, ...] = ()
    stall_replies: tuple[int, ...] = ()
    stall_seconds: float = 0.0
    poison_computes: tuple[int, ...] = ()
    kill_after_batches: int | None = None
    torn_append_at: int | None = None

    @classmethod
    def from_rng(cls, rng) -> "FaultPlan":
        """Draw a bounded plan from a ``numpy`` generator.

        Each fault class is present independently, so the corpus mixes
        single faults, fault combinations and (often enough to keep the
        happy path honest) entirely fault-free schedules.
        """
        def indexes(high: int, most: int) -> tuple[int, ...]:
            count = int(rng.integers(1, most + 1))
            return tuple(sorted({int(rng.integers(0, high))
                                 for _ in range(count)}))

        plan: dict = {}
        if rng.random() < 0.45:
            plan["drop_client_frames"] = indexes(12, 2)
        if rng.random() < 0.30:
            plan["stall_replies"] = indexes(8, 2)
            # Sized against the small client deadline the chaos
            # harness configures (~1s): below it = latency, above it
            # = timeout + retry.
            plan["stall_seconds"] = float(rng.uniform(0.2, 1.6))
        if rng.random() < 0.35:
            plan["poison_computes"] = indexes(6, 2)
        if rng.random() < 0.25:
            plan["kill_after_batches"] = int(rng.integers(1, 5))
        if rng.random() < 0.25:
            plan["torn_append_at"] = int(rng.integers(0, 3))
        return cls(**plan)

    def describe(self) -> str:
        """Compact human-readable schedule (for failure details)."""
        parts = [f"{f.name}={getattr(self, f.name)!r}"
                 for f in fields(self)
                 if getattr(self, f.name) not in ((), None, 0.0)]
        return "FaultPlan(" + (", ".join(parts) or "no faults") + ")"


class FaultInjector:
    """Mutable runtime of one :class:`FaultPlan`.

    One injector is threaded through every seam of one serving stack
    (client, server, store); its counters record how far each fault
    stream has advanced and :attr:`fired` records which faults actually
    triggered.  Counters are plain ints — the seams run on different
    threads, but each counter is only advanced from one seam, and the
    harness reads them only after the run.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.client_frames = 0
        self.replies = 0
        self.computes = 0
        self.batches = 0
        self.appends = 0
        #: Human-readable record of every fault that actually fired.
        self.fired: list[str] = []

    # ------------------------------------------------------------------
    # Client seam
    # ------------------------------------------------------------------
    def on_client_frame(self, sock) -> None:
        """Called by the client before sending each frame; may tear the
        connection down so the send (or the following receive) fails
        exactly as it would under a daemon crash or a dropped peer."""
        index = self.client_frames
        self.client_frames += 1
        if index in self.plan.drop_client_frames:
            self.fired.append(f"drop-connection@frame{index}")
            try:
                sock.shutdown(socket_module.SHUT_RDWR)
            except OSError:
                pass  # already dead — the drop still happened

    # ------------------------------------------------------------------
    # Server seams
    # ------------------------------------------------------------------
    def reply_stall(self) -> float:
        """Seconds the server should stall before its next reply."""
        index = self.replies
        self.replies += 1
        if index in self.plan.stall_replies:
            self.fired.append(f"stall-reply@{index}")
            return self.plan.stall_seconds
        return 0.0

    def on_server_batch(self) -> bool:
        """Called per submit batch; ``True`` means die *now*."""
        self.batches += 1
        if self.plan.kill_after_batches is not None \
                and self.batches == self.plan.kill_after_batches:
            self.fired.append(f"daemon-kill@batch{self.batches}")
            return True
        return False

    def on_compute(self, key: tuple) -> None:
        """Called before each miss computation; may poison it."""
        index = self.computes
        self.computes += 1
        if index in self.plan.poison_computes:
            self.fired.append(f"poisoned-design@compute{index}")
            raise PoisonedDesignError(
                f"injected compute failure (compute index {index})")

    # ------------------------------------------------------------------
    # Store seam
    # ------------------------------------------------------------------
    def on_store_append(self, handle, data: bytes) -> None:
        """Called with the append handle and the full batch payload
        before the durable append; a torn write flushes only a prefix
        to disk and raises (the daemon dies — crash semantics)."""
        index = self.appends
        self.appends += 1
        if self.plan.torn_append_at is not None \
                and index == self.plan.torn_append_at:
            self.fired.append(f"torn-append@{index}")
            handle.write(data[:max(1, len(data) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
            raise TornWriteError(
                f"injected torn append (append index {index}: "
                f"{max(1, len(data) // 2)} of {len(data)} bytes hit "
                f"the disk)")

    def __repr__(self) -> str:
        return (f"FaultInjector({self.plan.describe()}, "
                f"fired={self.fired!r})")
