"""Shared wire machinery of the socket-backed drivers and the node agent.

The blocking TCP driver (:mod:`repro.net.tcp`), the asyncio driver
(:mod:`repro.net.aio`) and the node agent (:mod:`repro.net.node`) speak one
protocol — :mod:`repro.net.codec` messages carrying ``("rpc", sub_calls)``
requests and control messages. Everything that is *about the protocol*
rather than about one side's connection handling lives here:

- :class:`RpcChannel` — the blocking caller side of one live connection:
  pending request registry, a dedicated sender thread (submits never block
  on a busy peer's socket), a receiver thread that routes replies by the
  12-byte message header alone (bodies are decoded later, on the caller
  thread that wants the data), and drain-on-death: when the connection
  dies, every in-flight request completes with a
  :class:`~repro.errors.RemoteError` and future submissions fail fast.
  (:class:`~repro.net.tcp.TcpPeer` owns what outlives a connection: the
  dial, the reconnect backoff and failing fast while down.)
- the envelope grammar (:func:`parse_request`) and the reply check
  (:func:`decode_reply`) both callers share;
- the control vocabulary (``stats``, ``telemetry``, ``shutdown``) and the
  serving helpers (:func:`decode_request`, :func:`serve_rpc`,
  :func:`encode_reply`) the one serving loop,
  :meth:`repro.net.node._ActorService._loop`, is made of.

Invariants this module guarantees (pinned by ``tests/test_tcp_transport.py``
and ``tests/test_wire_buffers.py``):

- **submits never block**: frames leave through an outbound queue drained
  by a dedicated sender thread per channel, so a caller is never stuck on
  a busy peer's socket backpressure;
- **replies route by header, decode on the caller**: the receiver thread
  touches only the 12-byte message header — payload unpickling happens on
  the caller thread that asked for the data, concurrently across callers;
- **drain-as-RemoteError, exactly once**: channel death (EOF, kill, send
  failure, codec corruption) completes every pending request with a
  :class:`~repro.errors.RemoteError`, fails all future submissions fast,
  and fires ``on_down`` exactly once, after the drain — no caller ever
  blocks on a corpse, and no batch latch is ever released twice;
- **a socket another thread may be blocked in ``recv`` on is severed with
  ``shutdown(SHUT_RDWR)`` before ``close()``** (:func:`force_close`) — a
  bare close neither wakes the reader nor sends FIN on Linux.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from typing import Any, Callable

from repro.errors import RemoteError
from repro.net.codec import (
    MessageDecoder,
    WireCodecError,
    decode_body,
    encode_parts,
    send_parts,
)
from repro.net.sansio import Actor, Address, Call, WireGroup, dispatch_call
from repro.net.threaded import _BatchLatch
from repro.obs.trace import clear_server_context, set_server_context

#: requested SO_SNDBUF/SO_RCVBUF: lets a full page batch leave the caller
#: in one non-blocking sendall even while the peer is mid-computation
SOCK_BUF = 1 << 20

#: most sub-calls and most *declared* request bytes (``Call.request_bytes``)
#: the aio driver gathers into one frame; one group is never split. As fast
#: as no bound (3 alternations): ``many_clients_aio`` 3833-3986 norm ops/s
#: (unbounded 3736-3984), 2048-client Read p50 570-705 ms (unbounded 604-738).
COALESCE_MAX_CALLS = 64
COALESCE_MAX_BYTES = SOCK_BUF

#: control message kinds understood by the agent's service loop.
#: Controls are *not* counted as wire RPCs by either side, so a stats or
#: telemetry scrape never perturbs workload counter assertions.
CTL_STATS = "stats"
CTL_SHUTDOWN = "shutdown"
CTL_TELEMETRY = "telemetry"


def force_close(sock: socket.socket) -> None:
    """Sever a socket that another thread may be blocked in ``recv`` on.

    A bare ``close()`` neither wakes a concurrently blocked ``recv()``
    nor sends FIN while that syscall still references the file — the
    reader (ours *and* the peer's) would sit in recv until kingdom come.
    ``shutdown(SHUT_RDWR)`` does both, immediately.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or already shut down
    try:
        sock.close()
    except OSError:
        pass


def tune_socket(sock: socket.socket) -> None:
    """Enlarge kernel buffers; disable Nagle on TCP sockets (RPC replies
    are latency-bound and the codec already writes whole frames)."""
    for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, opt, SOCK_BUF)
        except OSError:  # pragma: no cover - platform-capped buffers are fine
            pass
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # not a TCP socket (e.g. an AF_UNIX socketpair)
        pass


def parse_request(decoded: Any) -> tuple[str, Any, Any]:
    """``(kind, payload, trace)`` of a decoded request envelope::

        (kind, payload)              a control, or an untraced rpc
        ("rpc", payload, context)    one caller's traced wire group
        ("rpc", payload, runs)       several callers' groups in one frame

        payload = [(method, args), ...]
        context = trace_id | (trace_id, span_id)
        runs    = [(n_calls, context | None), ...]   covering the payload
                  in order: positive counts summing to len(payload)

    Anything else a peer managed to frame and pickle raises
    :class:`WireCodecError`, so a serving loop answers it typed instead of
    dying on an unpack.
    """
    if (
        type(decoded) is tuple
        and len(decoded) in (2, 3)
        and type(decoded[0]) is str
    ):
        kind, payload = decoded[0], decoded[1]
        trace = decoded[2] if len(decoded) == 3 else None
        if kind != "rpc" or (
            type(payload) is list
            and all(
                type(call) is tuple and len(call) == 2 and type(call[0]) is str
                for call in payload
            )
            and (type(trace) is not list or _runs_cover(trace, len(payload)))
        ):
            return kind, payload, trace
    raise WireCodecError(f"malformed request envelope: {decoded!r:.120}")


def _runs_cover(runs: list, n_calls: int) -> bool:
    """True iff ``runs`` is a well-formed run list over ``n_calls`` calls."""
    covered = 0
    for run in runs:
        if type(run) is not tuple or len(run) != 2:
            return False
        count, context = run
        if type(count) is not int or count < 1:
            return False
        if context is not None and type(context) is not int and not (
            type(context) is tuple and [type(x) for x in context] == [int, int]
        ):
            return False
        covered += count
    return covered == n_calls


def decode_request(body: Any) -> tuple[str | None, Any, Any]:
    """``(kind, payload, trace)`` of a request body a
    :class:`~repro.net.codec.MessageDecoder` yielded.

    The frame boundary is intact whatever the body holds, so a request
    that cannot be served is that *request's* failure, not the
    connection's: a body that does not unpickle (an unknown class, a tree
    node its constructor refuses) or is not an envelope comes back as kind
    ``None`` with the typed :class:`RemoteError` to answer its ``req_id``
    with as payload, and the serving loop carries on.
    """
    try:
        decoded = decode_body(body)
    except WireCodecError as exc:
        return None, RemoteError("WireCodecError", str(exc)), None
    try:
        return parse_request(decoded)
    except WireCodecError as exc:
        return None, RemoteError("WireProtocolError", str(exc)), None


def serve_rpc(
    actor: Actor, address: Address, payload: list, trace: Any,
    queue_ns: int, nbytes: int,
) -> list:
    """Serve one ``("rpc", payload, trace)`` request: its sub-calls'
    results, in order.

    The server context (what serving spans and the slow-RPC log read) is
    opened per run, so in a coalesced frame every caller's sub-calls parent
    to that caller's own rpc span, and a later run's queue wait includes
    the runs served ahead of it.
    """
    runs = trace if type(trace) is list else ((len(payload), trace),)
    results: list[Any] = []
    t0 = time.perf_counter_ns()
    try:
        for n_calls, context in runs:
            set_server_context(
                context, queue_ns + time.perf_counter_ns() - t0, nbytes
            )
            done = len(results)
            results += [
                dispatch_call(actor, Call(address, method, call_args))
                for method, call_args in payload[done : done + n_calls]
            ]
    finally:
        clear_server_context()
    return results


def encode_reply(req_id: int, results: list) -> list:
    """Encode a result list, downgrading what cannot cross the wire.

    ``dispatch_call`` already wraps handler exceptions in
    :class:`RemoteError` (whose ``__reduce__`` drops unpicklable
    originals), so the per-value fallback only fires when a *successful*
    handler returns something that cannot be pickled — a bug worth naming
    precisely instead of killing the connection. If every value encodes by
    itself and the reply still does not, its *total* exceeds
    ``MAX_FRAME_BYTES``: the request is answered with one typed
    ``ReplyTooLarge`` and the serving loop carries on.
    """
    try:
        return encode_parts(req_id, results)
    except WireCodecError:
        safe: list[Any] = []
        for value in results:
            try:
                encode_parts(0, value)
                safe.append(value)
            except WireCodecError as exc:
                safe.append(
                    RemoteError(
                        "UnpicklableResult", f"{type(value).__name__}: {exc}"
                    )
                )
        try:
            return encode_parts(req_id, safe)
        except WireCodecError as exc:
            return encode_parts(req_id, RemoteError("ReplyTooLarge", str(exc)))


def decode_reply(body: Any, n_calls: int, peer: str) -> list | RemoteError:
    """What a caller's ``n_calls`` sub-calls got back: their result list,
    or the one :class:`RemoteError` that is every sub-call's outcome.

    ``body`` is what the connection handed over: the raw reply, or the
    ``RemoteError`` it drained the request with. A reply that decodes to a
    ``RemoteError`` is the peer refusing the whole request, typed; one that
    does not decode *here*, or is not a list of ``n_calls`` results, is an
    error too — but the calls ran.
    """
    if isinstance(body, RemoteError):
        return body
    try:
        values = decode_body(body)
    except WireCodecError as exc:
        return RemoteError.wrap(exc)
    if isinstance(values, RemoteError) or (
        isinstance(values, list) and len(values) == n_calls
    ):
        return values
    return RemoteError(
        "WireProtocolError",
        f"peer {peer} answered {n_calls} calls with {type(values).__name__}",
    )


class RpcChannel:
    """Caller-side endpoint of one live RPC connection.

    Many caller threads submit concurrently: frames go out through an
    outbound queue drained by a dedicated sender thread (a submit never
    blocks on socket backpressure from a busy peer), and a receiver
    thread routes raw reply bodies (by message header alone — no
    unpickling) to whichever batch latch is waiting. Death (EOF, kill,
    send failure, codec corruption) drains every pending request with a
    ``RemoteError`` and fails all future submissions fast — no caller
    ever blocks on a corpse. ``on_down`` fires exactly once, after the
    drain; it must not block (the TCP peer uses it to kick its
    reconnector).
    """

    def __init__(
        self, sock: socket.socket, peer: str, on_down: Callable[[str], None]
    ) -> None:
        self.peer = peer
        self.sock = sock
        self._on_down = on_down
        self._pending_lock = threading.Lock()
        #: req_id -> ("rpc", slot, latch, gen) | ("ctl", box, event);
        #: slot/box receive the *encoded* reply body (or a RemoteError)
        self._pending: dict[int, tuple] = {}
        self._req_ids = itertools.count(1)
        self._down_reason: str | None = None
        self._outbox: queue.SimpleQueue = queue.SimpleQueue()
        self._recv_thread = threading.Thread(
            target=self._recv_loop, name=f"recv-{peer}", daemon=True
        )
        self._recv_thread.start()
        self._send_thread = threading.Thread(
            target=self._send_loop, name=f"send-{peer}", daemon=True
        )
        self._send_thread.start()

    # -- health ----------------------------------------------------------

    @property
    def down_reason(self) -> str | None:
        return self._down_reason

    def mark_down(self, reason: str) -> None:
        with self._pending_lock:
            if self._down_reason is not None:
                return
            self._down_reason = reason
            drained = list(self._pending.values())
            self._pending.clear()
        error = RemoteError("PeerUnavailable", reason)
        for entry in drained:
            self._complete(entry, error)
        self._on_down(reason)

    @staticmethod
    def _complete(entry: tuple, body: Any) -> None:
        """Hand a raw reply body (or a RemoteError) to its waiter."""
        if entry[0] == "rpc":
            _, slot, latch, gen = entry
            slot[0] = body
            latch.group_done(gen)
        else:
            _, box, event = entry
            box[0] = body
            event.set()

    # -- receive ---------------------------------------------------------

    def _recv_loop(self) -> None:
        decoder = MessageDecoder()
        while True:
            try:
                nbytes = self.sock.recv_into(decoder.get_buffer())
            except OSError:
                nbytes = 0
            if not nbytes:
                self.mark_down(f"peer {self.peer} connection lost")
                return
            try:
                for req_id, body in decoder.buffer_updated(nbytes):
                    with self._pending_lock:
                        entry = self._pending.pop(req_id, None)
                    if entry is not None:
                        self._complete(entry, body)
            except WireCodecError as exc:
                self.mark_down(f"peer {self.peer} sent a corrupt message: {exc}")
                return

    # -- submit ----------------------------------------------------------

    def submit(
        self,
        group: WireGroup,
        slot: list,
        latch: _BatchLatch,
        gen: int,
        trace: Any = None,
    ) -> None:
        """Send one wire group; the receiver thread completes the latch.

        ``slot`` is the batch's one-element mailbox for this group: it
        receives the raw reply body, which the *caller* decodes after the
        latch releases (see ``TcpDriver._execute_batch``).

        ``trace`` is the driver-minted trace context for this group — a
        ``(trace_id, span_id)`` pair while the caller has a trace open,
        else ``None``.
        """
        payload = [(call.method, call.args) for call in group.calls]
        with self._pending_lock:
            reason = self._down_reason
            if reason is None:
                req_id = next(self._req_ids)
                self._pending[req_id] = ("rpc", slot, latch, gen)
        if reason is not None:
            slot[0] = RemoteError("PeerUnavailable", reason)
            latch.group_done(gen)
            return
        # Trace propagation: the envelope grows an optional third field
        # only while the calling thread has a trace open — with none, the
        # frame is bit-identical to the historical 2-tuple form.
        envelope = ("rpc", payload) if trace is None else ("rpc", payload, trace)
        try:
            frame = encode_parts(req_id, envelope)
        except WireCodecError as exc:
            # the *request* is unpicklable: that call is broken, not the
            # peer. Complete the group only if the entry is still ours —
            # a concurrent mark_down may have drained (and completed) it,
            # and a second group_done would release the batch latch early.
            with self._pending_lock:
                entry = self._pending.pop(req_id, None)
            if entry is not None:
                slot[0] = RemoteError.wrap(exc)
                latch.group_done(gen)
            return
        self._outbox.put(frame)

    def control(self, kind: str, timeout: float = 10.0) -> Any:
        """Round-trip one control message; raises on a down connection."""
        box: list[Any] = [None]
        event = threading.Event()
        with self._pending_lock:
            reason = self._down_reason
            if reason is None:
                req_id = next(self._req_ids)
                self._pending[req_id] = ("ctl", box, event)
        if reason is not None:
            raise RemoteError("PeerUnavailable", reason)
        self._outbox.put(encode_parts(req_id, (kind, ())))
        if not event.wait(timeout):
            with self._pending_lock:
                self._pending.pop(req_id, None)
            raise TimeoutError(
                f"peer {self.peer} did not answer {kind!r} in {timeout}s"
            )
        if isinstance(box[0], RemoteError):
            raise box[0]
        value = decode_body(box[0])
        if isinstance(value, RemoteError):
            raise value
        return value

    def _send_loop(self) -> None:
        while True:
            frame = self._outbox.get()
            if frame is None:
                return
            try:
                send_parts(self.sock, frame)
            except (OSError, ValueError) as exc:
                self.mark_down(f"send to peer {self.peer} failed: {exc!r}")
                return

    # -- lifecycle -------------------------------------------------------

    def close(self, reason: str = "channel closed") -> None:
        """Drain, stop both service threads, and close the socket."""
        self.mark_down(reason)
        self._outbox.put(None)
        force_close(self.sock)
        self._recv_thread.join(timeout=5)
        self._send_thread.join(timeout=5)
