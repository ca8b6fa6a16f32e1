"""TCP peer: one actor in another OS process or on another host, reached
through its node agent, on threads.

:class:`~repro.net.threaded.ThreadedDriver` binds one :class:`TcpPeer`
to every address registered with ``register_remote``. The peer is the
blocking I/O shell around one :class:`~repro.net.wire.Connection`, the
sans-io core both client shells share (its invariants —
drain-as-RemoteError, fail-fast while down, reconnect with backoff — are
stated there). What the shell adds is threads:

- a connector thread dials the endpoint, performs the
  ``("hello", actor_name)`` handshake and, while the connection lives,
  waits for its death — then redials on the core's schedule, so a
  restarted agent on the same endpoint resumes service with no driver
  restart and no re-registration;
- per connection, one receiver thread routes replies by the 12-byte
  header alone (**bodies decode on the caller** thread that asked for the
  data, concurrently across callers). There is no sender thread: **the
  caller sends its own frame**, under the peer's send lock so frames never
  interleave; ``SOCK_BUF`` (1 MiB) lets a page batch leave without
  blocking on a busy peer, and a control waits for the lock and for room
  in the socket no longer than its timeout, so ``stop`` always gets to
  hang up on a peer that stopped reading;
- one lock guards the core and the live socket; requests are encoded
  outside every lock, so callers pickling page payloads never queue on
  each other.

**Any actor kind is dialable** — ``vm`` and ``pm`` are remote actors
exactly like ``data/N`` and ``meta/N``, so a deployment can run with
*zero* actors in the client parent. Pinned, for both shells, by
``tests/test_tcp_transport.py``; bit-level conformance with every other
driver by ``tests/test_driver_conformance.py``.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from typing import Any

from repro.errors import RemoteError, ReproError
from repro.net.address import Endpoint, format_actor, parse_endpoint
from repro.net.codec import MessageDecoder, WireCodecError, encode_parts, send_parts
from repro.net.node import (  # re-exported: the public dial-an-agent surface
    HANDSHAKE_REQ_ID,
    HandshakeError,
    connect_and_handshake,
)
from repro.net.sansio import Address, WireGroup
from repro.net.wire import (
    CTL_SHUTDOWN,
    Connection,
    control_frame,
    control_result,
    decode_reply,
    force_close,
    rpc_envelope,
    why_lost,
)

__all__ = [
    "HANDSHAKE_REQ_ID",
    "HandshakeError",
    "TcpPeer",
    "connect_and_handshake",
]


class TcpPeer:
    """One remote actor on threads: a live socket with its receiver thread
    when connected, a fast-failing stub plus a redialing connector thread
    when not. Callers send their own frames, one at a time
    (``_send_lock``)."""

    def __init__(
        self,
        address: Address,
        endpoint: Endpoint,
        *,
        connect_timeout: float = 5.0,
    ) -> None:
        self.address = address
        self.actor_name = format_actor(address)
        self.endpoint = parse_endpoint(endpoint)
        self._connect_timeout = connect_timeout
        #: guards the core and, while it is up, the live connection's
        #: socket and receiver thread (None while down)
        self._lock = threading.Lock()
        #: held by a caller for the whole of one frame's send
        self._send_lock = threading.Lock()
        self._conn = Connection(f"{self.actor_name}@{self.endpoint}")
        self._sock: socket.socket | None = None
        self._receiver: threading.Thread | None = None
        self._closed = False
        self._wake = threading.Event()  # the connection went down, or stop()
        self._connected = threading.Event()
        self._thread = threading.Thread(
            target=self._connector, name=f"dial-{self.actor_name}", daemon=True
        )
        self._thread.start()

    # -- health ----------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._connected.is_set()

    @property
    def down_reason(self) -> str | None:
        """Why the peer is unreachable right now (None when connected)."""
        return self._conn.down_reason

    def wait_connected(self, timeout: float | None = None) -> bool:
        return self._connected.wait(timeout)

    # -- connector -------------------------------------------------------

    def _connector(self) -> None:
        """Dial → handshake → wait for the connection to go down → redial.

        The only thread that installs connections, and it dials again only
        once the last one was taken down — so at most one is up at a time.
        """
        while not self._closed:
            try:
                sock = connect_and_handshake(
                    self.endpoint, self.actor_name, self._connect_timeout
                )
            except (OSError, ReproError) as exc:
                with self._lock:
                    delay = self._conn.dial_failed(exc)
                self._wake.wait(delay)
                self._wake.clear()
                continue
            receiver = threading.Thread(
                target=self._recv_loop, args=(sock,),
                name=f"recv-{self._conn.peer}", daemon=True,
            )
            with self._lock:  # a stop() now finds the thread it joins started
                closed = self._closed
                if not closed:
                    self._conn.connected()
                    self._sock, self._receiver = sock, receiver
                    receiver.start()
                    self._connected.set()
            if closed:
                force_close(sock)
                return
            self._wake.wait()
            self._wake.clear()

    def _lose(self, sock: socket.socket, event, *args: Any) -> None:
        """Take the connection on ``sock`` down with the core's ``event``
        and complete what it drained — if it is still the live one: a late
        signal from a connection already taken down is ignored."""
        with self._lock:
            if self._sock is not sock:
                return
            drained = event(*args)
            error = self._conn.unavailable()
            self._sock = None
            self._connected.clear()
        force_close(sock)
        for entry in drained:
            self._complete(entry, error)
        self._wake.set()

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

    def _recv_loop(self, sock: socket.socket) -> None:
        decoder = MessageDecoder()
        while True:
            try:
                nbytes = sock.recv_into(decoder.get_buffer())
            except OSError:
                nbytes = 0
            if not nbytes:
                return self._lose(sock, self._conn.lost, why_lost())
            try:
                for req_id, body in decoder.buffer_updated(nbytes):
                    with self._lock:
                        entry = self._conn.pop(req_id)
                    if entry is not None:
                        self._complete(entry, body)
            except WireCodecError as exc:
                return self._lose(sock, self._conn.lost, why_lost(exc))

    def _send(
        self, sock: socket.socket, frame: list, deadline: float | None = None
    ) -> bool:
        """Put one encoded frame on ``sock`` from the calling thread; a
        failed send takes that connection down. With a ``deadline``
        (controls), returns False having written nothing if the send lock
        or room in the socket does not come by then: behind a peer that
        stopped reading, another caller may sit in ``sendall`` under the
        lock until the connection is hung up."""
        timeout = -1 if deadline is None else max(0.0, deadline - time.monotonic())
        if not self._send_lock.acquire(timeout=timeout):
            return False
        try:
            if deadline is not None:
                # writable means room for far more than one control frame
                poller = select.poll()
                poller.register(sock, select.POLLOUT)
                remaining = max(0.0, deadline - time.monotonic())
                if not poller.poll(remaining * 1000):
                    return False
            send_parts(sock, frame)
        except (OSError, ValueError) as exc:
            self._lose(sock, self._conn.send_failed, exc)
        finally:
            self._send_lock.release()
        return True

    # -- RPC surface -----------------------------------------------------

    def submit(
        self,
        group: WireGroup,
        slot: list,
        latch: Any,
        gen: int,
        trace: Any = None,
    ) -> None:
        """Send one wire group from the calling thread; the receiver
        thread completes the latch.

        ``slot`` is the batch's one-element mailbox for this group: it
        receives the raw reply body, which the *caller* decodes after the
        latch releases (:meth:`reply_values`). ``trace`` is the
        driver-minted trace context for this group, or None.
        """
        try:
            with self._lock:
                req_id = self._conn.open(("rpc", slot, latch, gen))
                sock = self._sock
        except RemoteError as error:
            slot[0] = error
            latch.group_done(gen)
            return
        try:
            frame = encode_parts(req_id, rpc_envelope(((group, trace),)))
        except WireCodecError as exc:
            # the *request* is unpicklable: that call is broken, not the
            # peer. Complete the group only if the entry is still ours —
            # a drain may have completed it, and a second group_done would
            # release the batch latch early.
            with self._lock:
                entry = self._conn.pop(req_id)
            if entry is not None:
                slot[0] = RemoteError.wrap(exc)
                latch.group_done(gen)
            return
        self._send(sock, frame)

    def reply_values(self, slot: list, n_calls: int) -> list:
        """A completed group's values, decoded on *this* thread: the
        receiver thread only routed the raw body, so payload unpickling
        happens in the caller that asked for the data, concurrent across
        caller threads. A failed frame fails each of its calls."""
        values = decode_reply(slot[0], n_calls, self.actor_name)
        if isinstance(values, RemoteError):
            return [values] * n_calls
        return values

    def control(self, kind: str, timeout: float = 10.0) -> Any:
        """Round-trip one control message; raises on a down connection,
        and ``TimeoutError`` when it is neither sent nor answered within
        ``timeout``."""
        deadline = time.monotonic() + timeout
        box: list[Any] = [None]
        event = threading.Event()
        with self._lock:
            req_id = self._conn.open(("ctl", box, event))
            sock = self._sock
        if not (
            self._send(sock, control_frame(req_id, kind), deadline)
            and event.wait(max(0.0, deadline - time.monotonic()))
        ):
            with self._lock:
                raise self._conn.timed_out(req_id, kind, timeout)
        return control_result(box[0])

    # -- lifecycle -------------------------------------------------------

    def stop(self, send_shutdown: bool = True, timeout: float = 10.0) -> None:
        """Orderly shutdown: tell the remote actor to stop, then hang up
        (``send_shutdown=False`` only hangs up — the teardown against
        operator-run agents that must keep serving)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sock, receiver = self._sock, self._receiver
        self._wake.set()
        if sock is not None:
            if send_shutdown:
                try:
                    self.control(CTL_SHUTDOWN, timeout=timeout)
                except (RemoteError, TimeoutError):
                    pass  # peer already dead or wedged; just hang up
            self._lose(sock, self._conn.stopped, send_shutdown)
        self._thread.join(timeout=5)
        if receiver is not None:
            receiver.join(timeout=5)

    def drop(self) -> None:
        """Sever the current connection without closing the peer (failure
        injection: the connector will redial)."""
        with self._lock:
            sock = self._sock
        if sock is not None:
            self._lose(sock, self._conn.dropped)
