"""Wire codec: length-prefixed pickle messages for the socket drivers.

:mod:`repro.net.message` only *estimates* byte counts for the simulator;
this module is the real encode/decode path. Every RPC batch, result list,
handshake and control message crossing a socket travels as one message::

    [len u32][req_id u64][body]            len counts req_id + body

    body, no out-of-band buffers:   pickle (protocol 5)
    body, out-of-band buffers:      [n u32][plen u32][size u32 x n]
                                    [pickle, plen bytes][buffer 1]...[buffer n]

Messages are self-delimiting on any byte stream, and the request id sits
*outside* the pickle so a receiver routes a reply to its waiting caller
without unpickling. The first form is byte-for-byte the historical
format and is what every control, handshake, metadata, version and
small-page message still is. The second carries page contents of
:data:`BULK_BYTES` or more as raw trailing buffers. The two are told
apart by the body's first byte — a protocol >= 2 pickle opens with the
``PROTO`` opcode ``0x80``, a table with the high byte of a count that
:data:`MAX_FRAME_BYTES` keeps below 2**26 — not by a spare bit of the
length word, because a stripped body (``encode_message(...)[12:]``) must
still decode by itself. The table doubles as a checksum of the layout:
table + ``plen`` + sizes must add up to the body exactly, else
:class:`WireCodecError`.

**Send.** :func:`encode_parts` pickles with a ``buffer_callback``;
:class:`~repro.providers.page.PagePayload` hands bulk contents to pickle
as ``PickleBuffer``s, so those bytes never enter the pickle stream and the
message is the list ``[header + table, pickle, *page views]`` —
:func:`send_parts` puts it on a blocking socket with one ``sendmsg``, the
aio driver with ``transport.writelines``. A message under
:data:`BULK_BYTES` is a single ``bytes`` (one ``sendall``).
:func:`encode_message` is the contiguous form (the join of the parts).

**Receive.** :class:`MessageDecoder` owns the buffers bytes land in (the
``asyncio.BufferedProtocol`` shape: ``get_buffer()`` /
``buffer_updated(n)``; blocking shells call
``sock.recv_into(decoder.get_buffer())``). Small messages are parsed in
place from one reusable connection buffer and copied out as ``bytes``;
once a header announces a body of :data:`BULK_BYTES` or more the decoder
allocates one buffer of exactly that size and receives straight into it.

**Ownership rule.** Every body the decoder yields is *message-owned*: a
``bytes`` copy or the exact-size buffer, never the reusable connection
buffer. :func:`decode_body` rebuilds out-of-band payloads as **read-only**
views into the body it was given, so a page built from the wire aliases
its own message and nothing else, and can never be written through. Such
a page keeps its whole message alive; a holder that outlives the message
(a data provider) copies the page out once instead.

Other types: :class:`~repro.errors.RemoteError` ships its type name and
message always and the wrapped original only when that is itself
picklable (semantic errors define ``__reduce__`` so they survive typed);
everything else on the RPC surface pickles natively. Encoding refuses
silently-wrong output: if the object graph cannot pickle,
:class:`WireCodecError` names the offending object's type, so the bug
points at the handler that returned it, not at an EOF in another process.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Iterator

from repro.errors import ReproError

#: pickle protocol 5: out-of-band-buffer capable, Python >= 3.8
WIRE_PICKLE_PROTOCOL = 5

#: hard ceiling on one message body (256 MB); a corrupt or misaligned
#: length prefix otherwise reads as a multi-GB allocation request
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: the one size that splits the small path from the bulk path: page
#: contents this large travel out of band (below it a copy into the pickle
#: is cheaper than a table entry), messages this large leave as a
#: ``sendmsg`` vector, and bodies this large are received into a buffer of
#: their own instead of the connection buffer
BULK_BYTES = 16 * 1024

#: most buffers handed to one ``sendmsg`` (POSIX guarantees IOV_MAX >= 16;
#: Linux has 1024)
_IOV_BATCH = 512

#: message header: body length (u32, counts the req-id field + body) and
#: the request id (u64)
_MSG = struct.Struct(">IQ")
MESSAGE_HEADER_BYTES = _MSG.size
_REQ_ID_BYTES = 8
_TABLE_HEAD = struct.Struct(">II")
_PICKLE_PROTO = pickle.PROTO[0]


class WireCodecError(ReproError):
    """A message could not be encoded or decoded."""


def encode_parts(req_id: int, obj: Any) -> list:
    """One RPC message as the buffers to put on the wire, in order."""
    buffers: list[pickle.PickleBuffer] = []
    try:
        body = pickle.dumps(
            obj, WIRE_PICKLE_PROTOCOL, buffer_callback=buffers.append
        )
        length = len(body)
        if not buffers and length < BULK_BYTES:
            # the small path: every control, metadata and version message
            return [_MSG.pack(_REQ_ID_BYTES + length, req_id) + body]
        views = [buffer.raw() for buffer in buffers]
    except Exception as exc:
        raise WireCodecError(
            f"cannot encode {type(obj).__name__} for the wire: {exc!r}"
        ) from exc
    table = b""
    if views:
        sizes = [view.nbytes for view in views]
        table = struct.pack(f">{2 + len(sizes)}I", len(sizes), length, *sizes)
        length += len(table) + sum(sizes)
    if length > MAX_FRAME_BYTES:
        raise WireCodecError(
            f"message body of {length} B exceeds MAX_FRAME_BYTES"
        )
    return [_MSG.pack(_REQ_ID_BYTES + length, req_id) + table, body, *views]


def encode_message(req_id: int, obj: Any) -> bytes:
    """One RPC message as contiguous bytes (the join of its parts)."""
    parts = encode_parts(req_id, obj)
    return parts[0] if len(parts) == 1 else b"".join(parts)


def send_parts(sock: socket.socket, parts: list) -> None:
    """Put one encoded message on a blocking socket: ``sendall`` for a
    single part, else scatter-gather ``sendmsg`` (resumed after a partial
    send) — the page views are never joined into a frame."""
    if len(parts) == 1:
        sock.sendall(parts[0])
        return
    pending = [memoryview(part) for part in parts]
    while pending:
        sent = sock.sendmsg(pending[:_IOV_BATCH])
        done = 0
        while done < len(pending) and sent >= pending[done].nbytes:
            sent -= pending[done].nbytes
            done += 1
        del pending[:done]
        if sent:
            pending[0] = pending[0][sent:]


def decode_body(body: bytes | bytearray | memoryview) -> Any:
    """Decode a message body previously yielded by :class:`MessageDecoder`.

    Out-of-band buffers come back as read-only views into ``body``."""
    try:
        if body[0] == _PICKLE_PROTO:
            return pickle.loads(body)
        view = memoryview(body).toreadonly()
        count, pickle_len = _TABLE_HEAD.unpack_from(view)
        start = _TABLE_HEAD.size + 4 * count
        if start > view.nbytes:
            raise ValueError(f"buffer table declares {count} buffers")
        sizes = struct.unpack_from(f">{count}I", view, _TABLE_HEAD.size)
        end = start + pickle_len
        if end + sum(sizes) != view.nbytes:
            raise ValueError(
                f"buffer table describes {end + sum(sizes)} B, "
                f"body has {view.nbytes} B"
            )
        pickled = view[start:end]
        buffers = []
        for size in sizes:
            buffers.append(view[end : end + size])
            end += size
        return pickle.loads(pickled, buffers=buffers)
    except Exception as exc:
        raise WireCodecError(f"cannot decode message body: {exc!r}") from exc


class MessageDecoder:
    """Incremental decoder for a stream of RPC messages, owning the
    buffers the stream is received into.

    ``get_buffer()`` returns where the next bytes must land;
    ``buffer_updated(n)`` says ``n`` of them did and yields the
    ``(req_id, body)`` pairs they completed, bodies still *encoded*:
    routing happens on the 12-byte header alone, and the consumer decides
    where (on which thread) to pay the unpickling. Bodies are
    message-owned (see the module docstring).
    """

    def __init__(self) -> None:
        # holds the largest small message whole, so a partial one always
        # fits after compaction
        self._conn = memoryview(bytearray(MESSAGE_HEADER_BYTES + BULK_BYTES))
        self._start = 0  # unparsed bytes of the connection buffer:
        self._end = 0  # _conn[_start:_end]
        self._bulk: memoryview | None = None  # a bulk body being received
        self._bulk_filled = 0
        self._bulk_req_id = 0

    def get_buffer(self, sizehint: int = -1) -> memoryview:
        if self._bulk is not None:
            return self._bulk[self._bulk_filled :]
        if self._start:
            pending = self._end - self._start
            self._conn[:pending] = self._conn[self._start : self._end]
            self._start, self._end = 0, pending
        return self._conn[self._end :]

    def buffer_updated(self, nbytes: int) -> Iterator[tuple[int, Any]]:
        if self._bulk is not None:
            self._bulk_filled += nbytes
            if self._bulk_filled == self._bulk.nbytes:
                body, self._bulk = self._bulk, None
                yield self._bulk_req_id, body
            return
        conn = self._conn
        self._end += nbytes
        while self._end - self._start >= MESSAGE_HEADER_BYTES:
            length, req_id = _MSG.unpack_from(conn, self._start)
            size = length - _REQ_ID_BYTES
            if not 0 <= size <= MAX_FRAME_BYTES:
                raise WireCodecError(
                    f"message of {length} B outside sane bounds "
                    "(corrupt length prefix?)"
                )
            body_start = self._start + MESSAGE_HEADER_BYTES
            if size >= BULK_BYTES:
                # the rest of the connection buffer is the head of this
                # body; everything after it lands in the body's own buffer
                head = min(self._end - body_start, size)
                body = memoryview(bytearray(size))
                body[:head] = conn[body_start : body_start + head]
                self._start = body_start + head
                if head < size:
                    self._bulk = body
                    self._bulk_filled = head
                    self._bulk_req_id = req_id
                    return
            else:
                if self._end - body_start < size:
                    return
                body = bytes(conn[body_start : body_start + size])
                self._start = body_start + size
            yield req_id, body

    @property
    def pending_bytes(self) -> int:
        """Bytes received toward a message that is not complete yet."""
        if self._bulk is not None:
            return MESSAGE_HEADER_BYTES + self._bulk_filled
        return self._end - self._start
