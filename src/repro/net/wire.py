"""Shared wire machinery of the socket-backed drivers and the node agent.

The blocking shell (:class:`repro.net.tcp.TcpPeer`), the asyncio driver
(:mod:`repro.net.aio`) and the node agent (:mod:`repro.net.node`) speak one
protocol — :mod:`repro.net.codec` messages carrying ``("rpc", sub_calls)``
requests and control messages. Everything that is *about the protocol*
rather than about one side's I/O lives here:

- :class:`Connection` — the sans-io core of one client peer that both
  client shells drive (:class:`~repro.net.tcp.TcpPeer` on threads,
  :class:`~repro.net.aio.AioPeer` on an event loop): req-ids, the pending
  registry, up/down with every down reason, the drain, fail-fast and the
  redial schedule (:func:`backoff`). No I/O, no locks, no threads;
- the envelope grammar: :func:`rpc_envelope` / :func:`control_frame`
  build what :func:`parse_request` validates, and :func:`decode_reply` /
  :func:`control_result` check what comes back;
- the control vocabulary (``telemetry``, ``shutdown``) and the
  serving helpers (:func:`decode_request`, :func:`serve_rpc`,
  :func:`encode_reply`) the one serving path,
  :meth:`repro.net.node._ActorService.serve`, is made of.

Invariants this module guarantees (pinned without sockets by
``tests/test_wire_connection.py``, and through both shells by
``tests/test_tcp_transport.py``):

- **drain-as-RemoteError, exactly once per connection**: whatever takes a
  connection down (EOF, kill, send failure, codec corruption, drop,
  close), the first signal drains every pending request to be completed
  with one ``PeerUnavailable`` :class:`~repro.errors.RemoteError`, and
  later signals drain nothing — no caller ever blocks on a corpse, and no
  batch latch is ever released twice;
- **fail fast while down**: a request opened on a down connection raises
  at once, so replica fail-over never waits out a redial;
- **reconnect with backoff**: failed dials are retried after
  ``BACKOFF_INITIAL`` seconds, doubling up to ``BACKOFF_MAX``, and a
  successful one starts the schedule over;
- **a socket another thread may be blocked in ``recv`` on is severed with
  ``shutdown(SHUT_RDWR)`` before ``close()``** (:func:`force_close`) — a
  bare close neither wakes the reader nor sends FIN on Linux.
"""

from __future__ import annotations

import itertools
import socket
import time
from typing import Any, Iterator, Sequence

from repro.errors import RemoteError
from repro.net.codec import (
    WireCodecError,
    decode_body,
    encode_parts,
)
from repro.net.sansio import Actor, Address, Call, dispatch_call
from repro.obs.spans import clear_server_context, set_server_context

#: requested SO_SNDBUF/SO_RCVBUF: lets a full page batch leave the caller
#: in one non-blocking sendall even while the peer is mid-computation
SOCK_BUF = 1 << 20

#: most sub-calls and most *declared* request bytes (``Call.request_bytes``)
#: the aio driver gathers into one frame; one group is never split. As fast
#: as no bound (3 alternations): ``many_clients_aio`` 3833-3986 norm ops/s
#: (unbounded 3736-3984), 2048-client Read p50 570-705 ms (unbounded 604-738).
COALESCE_MAX_CALLS = 64
COALESCE_MAX_BYTES = SOCK_BUF

#: control message kinds a node agent answers.
#: Controls are *not* counted as wire RPCs by either side, so a telemetry
#: scrape never perturbs workload counter assertions.
CTL_SHUTDOWN = "shutdown"
CTL_TELEMETRY = "telemetry"

#: the reserved request id both handshake messages travel under
HANDSHAKE_REQ_ID = 0

#: first redial delay after a failed dial; doubles per failure up to BACKOFF_MAX
BACKOFF_INITIAL = 0.05
BACKOFF_MAX = 2.0


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
        context = (trace_id, span_id)
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
            and (
                _runs_cover(trace, len(payload))
                if type(trace) is list
                else _is_context(trace)
            )
        ):
            return kind, payload, trace
    raise WireCodecError(f"malformed request envelope: {decoded!r:.120}")


def _is_context(context: Any) -> bool:
    """True iff ``context`` is a trace context or None."""
    return context is None or (
        type(context) is tuple and [type(x) for x in context] == [int, int]
    )


def _runs_cover(runs: list, n_calls: int) -> bool:
    """True iff ``runs`` is a well-formed run list over ``n_calls`` calls."""
    covered = 0
    for run in runs:
        if type(run) is not tuple or len(run) != 2:
            return False
        count, context = run
        if type(count) is not int or count < 1 or not _is_context(context):
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


# ---------------------------------------------------------------------------
# the client connection core
# ---------------------------------------------------------------------------


def rpc_envelope(items: Sequence[tuple]) -> tuple:
    """The ``("rpc", …)`` envelope of one frame (grammar:
    :func:`parse_request`). ``items`` are the frame's ``(wire group, trace
    context, …)`` tuples in submission order: one group's context is the
    third field; several groups' are ``(n_calls, context)`` runs; with no
    context at all the envelope is the 2-tuple."""
    payload = [(call.method, call.args) for item in items for call in item[0].calls]
    if len(items) == 1:
        trace = items[0][1]
    elif any(item[1] is not None for item in items):
        trace = [(len(item[0].calls), item[1]) for item in items]
    else:
        trace = None
    return ("rpc", payload) if trace is None else ("rpc", payload, trace)


def control_frame(req_id: int, kind: str) -> list:
    """The encoded ``(kind, ())`` request of one control."""
    return encode_parts(req_id, (kind, ()))


def control_result(body: Any) -> Any:
    """The value a control's reply carries. Raises the ``RemoteError`` it
    is instead: the request drained, or the peer refused it."""
    if isinstance(body, RemoteError):
        raise body
    value = decode_body(body)
    if isinstance(value, RemoteError):
        raise value
    return value


def backoff() -> Iterator[float]:
    """The redial schedule, in seconds: ``BACKOFF_INITIAL``, doubling per
    failure, capped at ``BACKOFF_MAX``."""
    delay = BACKOFF_INITIAL
    while True:
        yield delay
        delay = min(delay * 2, BACKOFF_MAX)


def why_lost(exc: WireCodecError | None = None) -> str:
    """How a live connection ended, as its down reason says it: the stream
    closed (``exc`` None), or it carried a corrupt message."""
    return "connection lost" if exc is None else f"sent a corrupt message: {exc}"


class Connection:
    """Sans-io state of one client peer, across its connections.

    A shell feeds it events — a dial failed, a connection came up, the
    connection went down and why — and asks it to open requests. It
    answers with req-ids, the pending entry a reply or a timeout
    completes, the entries a death drains, and the delay before the next
    dial. Entries are the shell's ``("rpc", …)`` / ``("ctl", …)`` waiters,
    opaque here. The blocking shell calls it under its peer lock, the
    asyncio shell from its loop thread.
    """

    def __init__(self, peer: str) -> None:
        self.peer = peer
        #: why the peer is unreachable right now; None exactly while up
        self.down_reason: str | None = f"peer {peer} never connected"
        self._pending: dict[int, tuple] = {}
        self._req_ids = itertools.count(HANDSHAKE_REQ_ID + 1)
        self._delays = backoff()

    # -- up / down -------------------------------------------------------

    def connected(self) -> None:
        """A dial and handshake succeeded: up, the schedule starts over."""
        self.down_reason = None
        self._delays = backoff()

    def dial_failed(self, exc: BaseException) -> float:
        """A dial or handshake failed: seconds to wait before the next."""
        self.down_reason = f"peer {self.peer} unreachable: {exc}"
        return next(self._delays)

    def lost(self, why: str) -> list[tuple] | None:
        """The connection ended by itself (:func:`why_lost`)."""
        return self._down(f"peer {self.peer} {why}")

    def send_failed(self, exc: BaseException) -> list[tuple] | None:
        return self._down(f"send to peer {self.peer} failed: {exc!r}")

    def dropped(self) -> list[tuple] | None:
        """Failure injection severed the connection."""
        return self._down("connection dropped (failure injection)")

    def stopped(self, send_shutdown: bool) -> list[tuple] | None:
        """The driver hung up, after stopping the actor or not."""
        return self._down(
            "peer stopped by driver close"
            if send_shutdown
            else "peer aborted (driver hang-up)"
        )

    def _down(self, reason: str) -> list[tuple] | None:
        """Take the connection down: every pending entry, each to be
        completed with :meth:`unavailable` — or None if it was down
        already, so of racing death signals only the first drains."""
        if self.down_reason is not None:
            return None
        self.down_reason = reason
        drained = list(self._pending.values())
        self._pending.clear()
        return drained

    def unavailable(self) -> RemoteError:
        """The error a request meets while the peer is down."""
        return RemoteError("PeerUnavailable", self.down_reason)

    # -- requests --------------------------------------------------------

    def open(self, entry: tuple) -> int:
        """Register a request's waiter under a fresh req-id; raises
        :meth:`unavailable` while down (fail fast: fail-over must not wait
        out a redial)."""
        if self.down_reason is not None:
            raise self.unavailable()
        req_id = next(self._req_ids)
        self._pending[req_id] = entry
        return req_id

    def pop(self, req_id: int) -> tuple | None:
        """The entry a reply to ``req_id`` completes — None when a drain
        or a timeout took it first."""
        return self._pending.pop(req_id, None)

    def timed_out(self, req_id: int, kind: str, timeout: float) -> TimeoutError:
        """Forget a control that went unanswered; the error to raise."""
        self._pending.pop(req_id, None)
        return TimeoutError(
            f"peer {self.peer} did not answer {kind!r} in {timeout}s"
        )
