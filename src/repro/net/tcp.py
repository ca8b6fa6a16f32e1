"""TCP driver: actors in other OS processes and on other hosts, reached
through node agents.

The driver that turns the reproduction into a cluster architecture. It
extends :class:`~repro.net.threaded.ThreadedDriver` (same protocol loop,
batch latch, ``plan_wire_groups`` framing, transport counters): an actor
registered with ``register`` runs on an in-parent service thread exactly
as there, one registered with ``register_remote`` lives behind a
``host:port`` endpoint served by a node agent (:mod:`repro.net.node`).
The same driver therefore runs loopback clusters — one agent OS process
per node, no shared GIL, the deployment to *time* — and real multi-host
deployments: only the endpoints in the
:class:`~repro.net.address.ClusterMap` change.

Each registered remote actor gets a :class:`TcpPeer`, the blocking I/O
shell around one :class:`~repro.net.wire.Connection`, the sans-io core
both client shells share (its invariants — drain-as-RemoteError,
fail-fast while down, reconnect with backoff — are stated there). What
the shell adds is threads:

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

:class:`PeerRegistry` is what this driver and the asyncio one share:
registration, health, introspection and destination resolution. **Any
actor kind is dialable** — ``vm`` and ``pm`` are remote actors exactly
like ``data/N`` and ``meta/N``, so a deployment can run with *zero*
actors in the client parent. Pinned, for both shells, by
``tests/test_tcp_transport.py``; bit-level conformance with every other
driver by ``tests/test_driver_conformance.py``.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from typing import Any, Mapping

from repro.errors import RemoteError, ReproError
from repro.net.address import (
    ClusterMap,
    Endpoint,
    format_actor,
    parse_endpoint,
)
from repro.net.codec import MessageDecoder, WireCodecError, encode_parts, send_parts
from repro.net.node import (  # re-exported: the public dial-an-agent surface
    HANDSHAKE_REQ_ID,
    HandshakeError,
    connect_and_handshake,
)
from repro.net.sansio import (
    Actor,
    Address,
    Batch,
    Call,
    WireGroup,
    deliver,
    plan_wire_groups,
)
from repro.net.threaded import (
    ThreadedDriver, _BatchLatch, _ScrapeView, _ServerThread, dest_kind,
)
from repro.net.wire import (
    CTL_SHUTDOWN,
    CTL_TELEMETRY,
    Connection,
    control_frame,
    control_result,
    decode_reply,
    force_close,
    rpc_envelope,
    why_lost,
)
from repro.obs.spans import current_op, new_span_id, record_group_spans

__all__ = [
    "HANDSHAKE_REQ_ID",
    "HandshakeError",
    "PeerRegistry",
    "TcpDriver",
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
        latch: _BatchLatch,
        gen: int,
        trace: Any = None,
    ) -> None:
        """Send one wire group from the calling thread; the receiver
        thread completes the latch.

        ``slot`` is the batch's one-element mailbox for this group: it
        receives the raw reply body, which the *caller* decodes after the
        latch releases (see ``TcpDriver._execute_batch``). ``trace`` is the
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


class PeerRegistry(_ScrapeView):
    """The address book both remote drivers keep: in-parent actors on
    service threads (``_servers``), remote ones behind peers
    (``_remotes``), both under ``_lock``. A driver supplies the two things
    its shell does its own way: ``_new_peer`` and ``_control``."""

    _closed: bool

    def _init_registry(self, connect_timeout: float) -> None:
        self._connect_timeout = connect_timeout
        self._remotes: dict[Address, Any] = {}
        #: addresses whose peer is being built (see register_remote)
        self._reserved: set[Address] = set()
        #: stopped peers of unregistered actors (see unregister; a
        #: re-registration of the address shadows its entry)
        self._retired: dict[Address, Any] = {}

    def _claim(self, address: Address) -> None:
        """Refuse an address already taken (caller holds ``_lock``)."""
        if self._closed:
            raise RuntimeError("driver is closed")
        if (
            address in self._servers
            or address in self._remotes
            or address in self._reserved
        ):
            raise ValueError(f"address {address!r} already registered")

    # -- registration ----------------------------------------------------

    def register(self, address: Address, actor: Actor) -> None:
        """Place an actor on an in-parent service thread."""
        with self._lock:
            self._claim(address)
            self._servers[address] = _ServerThread(address, actor)

    def register_remote(self, address: Address, endpoint: Endpoint | str) -> Any:
        """Bind ``address`` to a node-agent endpoint; dialing starts
        immediately, in the background (use :meth:`wait_connected` to
        block until the cluster is reachable).

        The address is claimed before the peer exists, so a refused
        registration never dials — a duplicate must not reach, let alone
        stop, the actor the first registration serves.
        """
        endpoint = parse_endpoint(endpoint)
        with self._lock:
            self._claim(address)
            self._reserved.add(address)
        peer = None
        try:
            peer = self._new_peer(address, endpoint)
        finally:
            with self._lock:
                self._reserved.discard(address)
                closed = self._closed
                if peer is not None and not closed:
                    self._remotes[address] = peer
        if closed:  # close() ran meanwhile: hang up, leave the actor be
            peer.stop(send_shutdown=False)
            raise RuntimeError("driver is closed")
        return peer

    def unregister(self, address: Address) -> None:
        """Retire a remote actor: it gets the ``shutdown`` control and
        leaves the book (no longer scraped), but a call to it still fails
        typed, so a read falls over to replicas or ``pm.locate``."""
        with self._lock:
            peer = self._remotes.pop(address)
            self._retired[address] = peer
        peer.stop()

    def register_map(self, cluster_map: ClusterMap) -> None:
        """Register every actor of a cluster map."""
        for address, endpoint in cluster_map.items():
            self.register_remote(address, endpoint)

    def peer(self, address: Address) -> Any:
        """The peer registered at ``address``."""
        with self._lock:
            return self._remotes[address]

    def addresses(self) -> list[Address]:
        """Every registered address (in-parent first, then remote)."""
        with self._lock:
            return list(self._servers) + list(self._remotes)

    def remote_addresses(self) -> list[Address]:
        """The addresses served over the wire."""
        with self._lock:
            return list(self._remotes)

    # -- health ----------------------------------------------------------

    def wait_connected(self, timeout: float = 10.0) -> None:
        """Block until every registered peer holds a live connection;
        raises ``TimeoutError`` naming the unreachable peers."""
        deadline = time.monotonic() + timeout
        with self._lock:
            peers = list(self._remotes.values())
        laggards = []
        for peer in peers:
            remaining = deadline - time.monotonic()
            if not peer.wait_connected(max(0.0, remaining)):
                laggards.append(
                    f"{peer.actor_name}@{peer.endpoint} ({peer.down_reason})"
                )
        if laggards:
            raise TimeoutError(
                f"peers not connected within {timeout}s: " + "; ".join(laggards)
            )

    def peer_status(self) -> dict[Address, str]:
        """``address -> "connected" | down reason`` for every peer."""
        with self._lock:
            peers = dict(self._remotes)
        return {a: p.down_reason or "connected" for a, p in peers.items()}

    # -- introspection ---------------------------------------------------

    def telemetry(self, address: Address) -> dict[str, Any]:
        """One actor's telemetry report (wire counters + service-time
        snapshot), queried over the wire as a *control* for remote actors
        — controls are not counted as wire RPCs, so scraping is invisible
        to the workload counters."""
        with self._lock:
            remote = self._remotes.get(address)
        if remote is not None:
            return self._control(remote, CTL_TELEMETRY)
        return super().telemetry(address)

    def call(self, address: Address, method: str, args: tuple = ()) -> Any:
        """One-off RPC outside any protocol (inspection surfaces)."""

        def proto():
            (result,) = yield Batch([Call(address, method, args)])
            return result

        return self.run(proto())

    # -- execution -------------------------------------------------------

    def _resolve(self, groups: list[WireGroup]) -> list[tuple[WireGroup, Any, Any]]:
        """``(group, peer, None)`` or ``(group, None, service thread)`` per
        wire group, all resolved before anything is submitted: an unknown
        address leaves no latch armed and no group in flight."""
        servers = self._servers
        remotes = self._remotes
        resolved: list[tuple[WireGroup, Any, Any]] = []
        for group in groups:
            server = servers.get(group.dest)
            if server is not None:
                resolved.append((group, None, server))
                continue
            # a retired peer answers PeerUnavailable, typed
            remote = remotes.get(group.dest) or self._retired.get(group.dest)
            if remote is None:
                raise KeyError(f"no actor registered at address {group.dest!r}")
            resolved.append((group, remote, None))
        return resolved

    @staticmethod
    def _submit(resolved, results, latch, gen, op, span_ids):
        """Hand every resolved wire group to its peer or in-parent service
        thread (under an open operation ``op``, a group's trace context
        rides its envelope). Returns each group's reply slot — None where
        the service thread writes ``results`` itself — and the submission
        time."""
        t_enq = time.perf_counter_ns()
        slots: list[list | None] = [None] * len(resolved)
        for k, (group, remote, server) in enumerate(resolved):
            wire_trace = None if op is None else (op.trace, span_ids[k])
            if remote is not None:
                slots[k] = slot = [None]
                remote.submit(group, slot, latch, gen, wire_trace)
            else:
                server.inbox.put(
                    (group.calls, group.indices, results, latch, gen,
                     wire_trace, t_enq)
                )
        return slots, t_enq

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Orderly teardown: every remote actor gets the ``shutdown``
        control (its agent exits once all it hosts have), in-parent
        service threads join."""
        self._shutdown(send_shutdown=True)

    def abort(self) -> None:
        """Hang up without stopping the remote actors: the teardown for a
        *failed build* against operator-run agents, which must leave the
        operator's cluster serving."""
        self._shutdown(send_shutdown=False)


class TcpDriver(PeerRegistry, ThreadedDriver):
    """Drives protocols against a mix of TCP-remote and in-parent actors.

    ``register`` places an actor on an in-parent service thread (the
    threaded driver's semantics — deployments keep the version manager
    and provider manager there); ``register_remote`` binds an address to
    a ``host:port`` endpoint served by a node agent. Everything else —
    protocol loop, batch latch, ``spawn``/futures, wire-group framing,
    transport counters — is the threaded driver's, so
    ``transport_stats`` reads identically and the conformance suite's
    wire-RPC-count equality holds across every real driver.
    """

    def __init__(
        self,
        registry: Mapping[Address, Actor] | None = None,
        *,
        connect_timeout: float = 5.0,
    ) -> None:
        self._init_registry(connect_timeout)
        super().__init__(registry)

    def _new_peer(self, address: Address, endpoint: Endpoint) -> TcpPeer:
        return TcpPeer(address, endpoint, connect_timeout=self._connect_timeout)

    @staticmethod
    def _control(peer: TcpPeer, kind: str) -> Any:
        return peer.control(kind)

    def _shutdown(self, send_shutdown: bool) -> None:
        with self._lock:
            peers = list(self._remotes.values())
        for peer in peers:
            peer.stop(send_shutdown=send_shutdown)
        ThreadedDriver.close(self)  # in-parent service threads; marks closed

    # -- execution -------------------------------------------------------

    def _execute_batch(self, batch: Batch) -> list[Any]:
        calls = batch.calls
        if not calls:
            return []
        groups = plan_wire_groups(calls)
        resolved = self._resolve(groups)
        results: list[Any] = [None] * len(calls)
        latch = self._latch()
        gen = latch.begin(len(groups), len(calls))
        op = current_op()
        span_ids = None if op is None else [new_span_id() for _ in groups]
        slots, t_enq = self._submit(resolved, results, latch, gen, op, span_ids)
        latch.wait()
        t_done = time.perf_counter_ns()
        rtt_ns = t_done - t_enq
        for group in groups:
            latch.record_rtt(dest_kind(group.dest), rtt_ns)
        if op is not None:
            record_group_spans(op, span_ids, groups, t_enq, t_done)
        # Decode remote replies on *this* thread: the receiver threads only
        # routed raw bodies, so payload unpickling happens in the caller
        # that asked for the data, concurrent across caller threads.
        for k, slot in enumerate(slots):
            if slot is None:
                continue
            group = groups[k]
            n_calls = len(group.calls)
            values = decode_reply(slot[0], n_calls, resolved[k][1].actor_name)
            if isinstance(values, RemoteError):
                values = [values] * n_calls
            for index, value in zip(group.indices, values):
                results[index] = value
        return [deliver(c, r) for c, r in zip(calls, results)]
