"""Wire protocol of the pricing daemon (``repro serve``).

One frame = one length-prefixed payload.  The framing layer is shared
by the asyncio server (:mod:`repro.core.server`) and the synchronous
client (:mod:`repro.core.client`); both sides validate the length
prefix against :data:`MAX_FRAME_BYTES` before trusting it, so a
malformed or hostile frame fails loudly instead of allocating
gigabytes or desynchronising the stream.

Frame layout (protocol version 4)::

    <u64 little-endian payload length> <payload>

The payload is a plain dictionary serialised with pickle and read back
through an *allow-listed* unpickler (:func:`_decode_payload`): it
resolves only the classes in :data:`ALLOWED_CLASSES` — the workload
and cost-parameter types a ``hello`` carries — and refuses every other
global (``os.system``, ``builtins.eval``, any ``__reduce__`` gadget)
with :class:`FrameError` before anything runs.  Designs and
evaluations never travel as pickled objects: they ride as opaque
``bytes`` in the :mod:`repro.core.codec` encodings.

Requests carry an ``op`` plus op-specific fields; responses carry
``ok`` (bool) plus either the result fields or an ``error`` string.
The handshake (``hello``) carries :data:`PROTOCOL_VERSION` — a version
mismatch is refused before anything else is interpreted, so the
protocol can evolve without silently mispricing across daemon/client
skew.

Ops (client -> server):

- ``hello``: ``{"op", "version", "workload", "cost_params", "rho"}`` —
  binds the connection to one evaluation context.  The server builds
  (or reuses) the hosted service for that context and replies with its
  ``salt``; the client compares it against the locally computed
  :func:`repro.core.evalservice.evaluation_context_salt`, making
  pickling drift impossible to miss.  The workload and cost parameters
  are the only pickled objects left on the wire.
- ``submit``: ``{"op", "id", "keys"}`` — price a batch.  Each entry is
  one design's content key in the :func:`repro.core.codec.encode_key`
  layout.  The daemon looks keys up without building any object and
  rebuilds ``(networks, accelerator)`` only for misses, refusing an
  entry whose rebuilt pair does not reproduce its key.  The reply
  carries ``evaluations`` (request order, each one
  :func:`repro.core.codec.encode_evaluation` bytes, which the client
  decodes with the accelerator of its own request pair), per-request
  ``tiers`` (``"hit" | "shared" | "store" | "miss"``) and
  the batch's ``miss_seconds`` so the client mirrors honest stats.
- ``status``: ``{"op"}`` — pre-handshake liveness/occupancy probe
  (``repro serve --status``): uptime, hosted services, queued appends,
  counters, store occupancy.  Needs no evaluation context, so
  monitoring never pays a handshake.
- ``stats`` / ``bump_generation`` / ``ping`` / ``shutdown``: service
  management; see :class:`repro.core.server.\
PricingServer`.  ``stats`` answers with plain dictionaries (the
  hosted service's counters as a field -> value map).

Error frames carry ``ok: False`` and an ``error`` string; a frame with
``retryable: True`` (a submit with more fresh misses than the daemon
prices at once) tells the client the *connection* is healthy and the
request should be retried with backoff, while every other refusal is
terminal for that request.

The socket is a *local* Unix socket owned by the same user.  The
allow-list bounds what a peer's bytes can do to the daemon to
building those few plain data classes; it is not an authentication
scheme.
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import Any

__all__ = ["ALLOWED_CLASSES", "FrameError", "MAX_FRAME_BYTES",
           "PROTOCOL_VERSION", "encode_frame", "read_frame", "recv_frame",
           "send_frame"]

#: Bumped on any incompatible change to the frame or message schema.
#: Version 2: evaluations carry no HAP schedule.  Version 3: submits
#: carry codec-encoded content keys, replies codec-encoded evaluations,
#: and frames are read through the allow-listed unpickler.  Version 4:
#: the ``stats`` reply and the ``status`` report no longer carry the
#: worker-pool counters, so a version-3 client could not rebuild the
#: stats it receives.
PROTOCOL_VERSION = 4

#: The only globals a frame may reference: what a ``hello`` ships
#: (workload, its tasks and search spaces, cost parameters).  Every
#: other payload is built from pickle's primitive opcodes alone.
ALLOWED_CLASSES = frozenset({
    ("repro.arch.resnet", "ResNetSpace"),
    ("repro.arch.space", "Choice"),
    ("repro.arch.unet", "UNetSpace"),
    ("repro.cost.params", "CostModelParams"),
    ("repro.workloads.workload", "DesignSpecs"),
    ("repro.workloads.workload", "PenaltyBounds"),
    ("repro.workloads.workload", "Task"),
    ("repro.workloads.workload", "Workload"),
})

#: Upper bound either side accepts for one frame.  Generous for real
#: batches (a few hundred designs pickle to well under a megabyte) yet
#: small enough that a corrupt length prefix cannot trigger a giant
#: allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: struct format of the frame length prefix (little-endian u64) —
#: deliberately the same shape as the evaluation store's record prefix.
_LEN = struct.Struct("<Q")


class FrameError(ValueError):
    """A frame violated the protocol (oversized, truncated, unpicklable,
    or referencing a class outside :data:`ALLOWED_CLASSES`)."""


class _AllowListUnpickler(pickle.Unpickler):
    """Unpickler that resolves only :data:`ALLOWED_CLASSES`."""

    def find_class(self, module: str, name: str):
        if (module, name) not in ALLOWED_CLASSES:
            raise FrameError(
                f"frame references {module}.{name}, which the protocol "
                f"does not allow")
        return super().find_class(module, name)


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
        return _AllowListUnpickler(io.BytesIO(blob)).load()
    except FrameError:
        raise
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
