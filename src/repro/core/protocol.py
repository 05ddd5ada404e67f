"""Wire protocol of the pricing daemon (``repro serve``).

One frame = one length-prefixed pickle.  The framing layer is shared by
the asyncio server (:mod:`repro.core.server`) and the synchronous
client (:mod:`repro.core.client`); both sides validate the length
prefix against :data:`MAX_FRAME_BYTES` before trusting it, so a
malformed or hostile frame fails loudly instead of allocating
gigabytes or desynchronising the stream.

Frame layout::

    <u64 little-endian payload length> <pickled payload>

The payload is a plain dictionary.  Requests carry an ``op`` plus
op-specific fields; responses carry ``ok`` (bool) plus either the
result fields or an ``error`` string.  The handshake (``hello``)
carries :data:`PROTOCOL_VERSION` — a version mismatch is refused
before anything else is interpreted, so the protocol can evolve
without silently mispricing across daemon/client skew.

Ops (client -> server):

- ``hello``: ``{"op", "version", "workload", "cost_params", "rho"}`` —
  binds the connection to one evaluation context.  The server builds
  (or reuses) the hosted service for that context and replies with its
  ``salt``; the client compares it against the locally computed
  :func:`repro.core.evalservice.evaluation_context_salt`, making
  pickling drift impossible to miss.
- ``submit``: ``{"op", "id", "pairs"}`` — price a batch.  Each entry
  is either a full ``(networks, accelerator)`` pair or an ``int``
  *handle* from an earlier reply on this connection: repeat-heavy
  traces ship a few bytes per repeat instead of re-pickling kilobyte
  design objects (the dominant cost of the served hit path).  The
  reply carries ``evaluations`` (request order, each one *pickled
  separately* so the server can serve repeats from a blob cache
  without re-pickling), ``handles`` (one per entry, for the client's
  next submit), per-request ``tiers`` (``"hit" | "shared" | "store" |
  "miss" | "coalesced"``) and the batch's ``miss_seconds`` so the
  client mirrors honest stats.
- ``status``: ``{"op"}`` — pre-handshake liveness/occupancy probe
  (``repro serve --status``): uptime, hosted services, in-flight and
  queued work, counters, store occupancy.  Needs no evaluation
  context, so monitoring never pays a handshake.
- ``stats`` / ``bump_generation`` / ``flush`` / ``ping`` /
  ``shutdown``: service management; see :class:`repro.core.server.\
PricingServer`.

Error frames carry ``ok: False`` and an ``error`` string; a frame with
``retryable: True`` (the daemon's bounded in-flight queue refusing at
capacity) tells the client the *connection* is healthy and the request
should be retried with backoff, while every other refusal is terminal
for that request.

Like the checkpoint format, frames use pickle: evaluations must
round-trip bit-identically, and the socket is a *local* Unix socket
owned by the same user — only connect to daemons you started yourself.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

__all__ = ["FrameError", "MAX_FRAME_BYTES", "PROTOCOL_VERSION",
           "encode_frame", "read_frame", "recv_frame", "send_frame"]

#: Bumped on any incompatible change to the frame or message schema.
#: Version 2: evaluations carry no HAP schedule.
PROTOCOL_VERSION = 2

#: Upper bound either side accepts for one frame.  Generous for real
#: batches (a few hundred designs pickle to well under a megabyte) yet
#: small enough that a corrupt length prefix cannot trigger a giant
#: allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: struct format of the frame length prefix (little-endian u64) —
#: deliberately the same shape as the evaluation store's record prefix.
_LEN = struct.Struct("<Q")


class FrameError(ValueError):
    """A frame violated the protocol (oversized, truncated, unpicklable)."""


def encode_frame(payload: Any, *,
                 max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialise one payload into a length-prefixed frame.

    Raises:
        FrameError: If the pickled payload exceeds ``max_bytes`` —
            callers see the oversize *before* any bytes hit the socket,
            so a too-large batch never desynchronises the stream.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > max_bytes:
        raise FrameError(
            f"frame of {len(blob)} bytes exceeds the protocol limit of "
            f"{max_bytes} bytes (split the batch into smaller chunks)")
    return _LEN.pack(len(blob)) + blob


def _decode_length(prefix: bytes, *, max_bytes: int) -> int:
    if len(prefix) != _LEN.size:
        raise FrameError(
            f"truncated frame length prefix ({len(prefix)} of "
            f"{_LEN.size} bytes)")
    (length,) = _LEN.unpack(prefix)
    if length > max_bytes:
        raise FrameError(
            f"frame announces {length} bytes, over the protocol limit "
            f"of {max_bytes} bytes")
    return length


def _decode_payload(blob: bytes, length: int) -> Any:
    if len(blob) != length:
        raise FrameError(
            f"truncated frame body ({len(blob)} of {length} bytes)")
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise FrameError(f"unpicklable frame body: {exc}") from exc


async def read_frame(reader, *,
                     max_bytes: int = MAX_FRAME_BYTES) -> Any:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean EOF *between* frames (the peer hung
    up); raises :class:`FrameError` on EOF inside a frame or on a
    prefix over ``max_bytes``.
    """
    prefix = await reader.read(_LEN.size)
    if not prefix:
        return None
    while len(prefix) < _LEN.size:
        more = await reader.read(_LEN.size - len(prefix))
        if not more:
            break
        prefix += more
    length = _decode_length(prefix, max_bytes=max_bytes)
    blob = await reader.readexactly(length) if length else b""
    return _decode_payload(blob, length)


def send_frame(sock, payload: Any, *,
               max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Blocking counterpart of ``write + drain`` for a plain socket."""
    sock.sendall(encode_frame(payload, max_bytes=max_bytes))


def recv_frame(sock, *, max_bytes: int = MAX_FRAME_BYTES) -> Any:
    """Blocking read of one frame from a plain socket.

    Returns ``None`` on clean EOF between frames; raises
    :class:`FrameError` on truncation mid-frame or oversize.
    """
    prefix = _recv_exactly(sock, _LEN.size, eof_ok=True)
    if prefix is None:
        return None
    length = _decode_length(prefix, max_bytes=max_bytes)
    blob = _recv_exactly(sock, length) if length else b""
    return _decode_payload(blob, length)


def _recv_exactly(sock, count: int, *,
                  eof_ok: bool = False) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise FrameError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes received)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
