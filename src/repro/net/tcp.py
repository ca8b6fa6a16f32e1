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

Each registered remote actor gets a :class:`TcpPeer`:

- a dedicated connector thread dials the endpoint, performs the
  ``("hello", actor_name)`` handshake, and installs a live
  :class:`~repro.net.wire.RpcChannel` (sender thread per peer, replies
  routed by the 12-byte header, bodies decoded on the caller thread);
- when the connection dies — agent killed, network partition, corrupt
  stream — every in-flight call drains as
  :class:`~repro.errors.RemoteError` and future calls **fail fast**
  while the peer is down, so replica fail-over proceeds immediately
  instead of blocking behind a dial timeout;
- meanwhile the connector retries with exponential backoff (capped), so
  a *restarted* agent is picked up automatically: reconnect-safe
  fail-over, not fail-once-and-forget.

Invariants this module guarantees (pinned, for this driver and the
asyncio one alike, by ``tests/test_tcp_transport.py``; bit-level
conformance with every other driver — including the fully-remote
control-plane configuration — by ``tests/test_driver_conformance.py``):

- **drain-as-RemoteError**: a dead connection never strands a caller —
  in-flight calls complete with :class:`~repro.errors.RemoteError` and
  future calls fail fast while the peer is down, so replica fail-over
  proceeds immediately instead of blocking behind a dial timeout;
- **reconnect with backoff**: each peer's connector retries its dial on
  an exponential schedule from ``BACKOFF_INITIAL`` capped at
  ``BACKOFF_MAX``, so a restarted agent on the same endpoint resumes
  service with no driver restart and no re-registration;
- **any actor kind is dialable**: ``vm`` and ``pm`` are remote actors
  exactly like ``data/N`` and ``meta/N`` — the driver treats every
  address uniformly, which is what lets a deployment run with *zero*
  actors in the client parent.
"""

from __future__ import annotations

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
from repro.net.threaded import ThreadedDriver, _BatchLatch, dest_kind
from repro.net.wire import (
    CTL_SHUTDOWN,
    CTL_STATS,
    CTL_TELEMETRY,
    RpcChannel,
    decode_reply,
)
from repro.obs.spans import new_span_id, record_group_spans
from repro.obs.trace import current_op_span, current_trace

__all__ = [
    "BACKOFF_INITIAL",
    "BACKOFF_MAX",
    "HANDSHAKE_REQ_ID",
    "HandshakeError",
    "TcpDriver",
    "TcpPeer",
    "connect_and_handshake",
]

#: first dial retry delay; doubles per failure up to BACKOFF_MAX
BACKOFF_INITIAL = 0.05
BACKOFF_MAX = 2.0


class TcpPeer:
    """One remote actor: a live channel when connected, a fast-failing
    stub plus a backoff reconnector when not."""

    def __init__(
        self,
        address: Address,
        endpoint: Endpoint,
        *,
        connect_timeout: float = 5.0,
        backoff_initial: float = BACKOFF_INITIAL,
        backoff_max: float = BACKOFF_MAX,
    ) -> None:
        self.address = address
        self.actor_name = format_actor(address)
        self.endpoint = parse_endpoint(endpoint)
        self._connect_timeout = connect_timeout
        self._backoff_initial = backoff_initial
        self._backoff_max = backoff_max
        self._lock = threading.Lock()
        self._channel: RpcChannel | None = None
        self._down_reason = f"peer {self.actor_name}@{self.endpoint} never connected"
        self._closed = False
        self._wake = threading.Event()
        self._connected = threading.Event()
        self._thread = threading.Thread(
            target=self._connector,
            name=f"dial-{self.actor_name}",
            daemon=True,
        )
        self._thread.start()

    # -- health ----------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._connected.is_set()

    @property
    def down_reason(self) -> str | None:
        """Why the peer is unreachable right now (None when connected)."""
        with self._lock:
            if self._channel is not None:
                return None
            return self._down_reason

    def wait_connected(self, timeout: float | None = None) -> bool:
        return self._connected.wait(timeout)

    # -- connector -------------------------------------------------------

    def _connector(self) -> None:
        """Dial → handshake → install channel; on death, back off and redial.

        The connector is the only thread that ever creates channels, and a
        live channel's ``on_down`` is the only thing that wakes it out of
        the connected wait — so at most one channel exists at a time and a
        down notification always refers to the current one.
        """
        backoff = self._backoff_initial
        while True:
            with self._lock:
                if self._closed:
                    return
                channel = self._channel
            if channel is not None:
                self._wake.wait()
                self._wake.clear()
                continue
            try:
                sock = connect_and_handshake(
                    self.endpoint, self.actor_name, self._connect_timeout
                )
            except (OSError, ReproError) as exc:
                with self._lock:
                    self._down_reason = (
                        f"peer {self.actor_name}@{self.endpoint} unreachable: {exc}"
                    )
                self._wake.wait(backoff)
                self._wake.clear()
                backoff = min(backoff * 2, self._backoff_max)
                continue
            channel = RpcChannel(
                sock, f"{self.actor_name}@{self.endpoint}", self._channel_down
            )
            discard = False
            with self._lock:
                if self._closed or channel.down_reason is not None:
                    # closed meanwhile, or dead before it was ever
                    # installed: never expose a corpse as "connected"
                    # (mark_down stamps down_reason before on_down runs,
                    # so a pre-install death is always visible here)
                    discard = True
                else:
                    self._channel = channel
                    # set under the same lock _channel_down clears it
                    # under: a death racing the install can never leave
                    # a down peer reported as connected
                    self._connected.set()
            if discard:
                channel.close("connector discarded the channel")
                continue
            backoff = self._backoff_initial

    def _channel_down(self, reason: str) -> None:
        with self._lock:
            self._channel = None
            self._down_reason = reason
            self._connected.clear()
        self._wake.set()

    # -- RPC surface -----------------------------------------------------

    def submit(
        self,
        group: WireGroup,
        slot: list,
        latch: _BatchLatch,
        gen: int,
        trace: Any = None,
    ) -> None:
        with self._lock:
            channel = self._channel
            reason = self._down_reason
        if channel is None:
            # fail fast while down: fail-over must not wait out a redial
            slot[0] = RemoteError("PeerUnavailable", reason)
            latch.group_done(gen)
            return
        channel.submit(group, slot, latch, gen, trace)

    def control(self, kind: str, timeout: float = 10.0) -> Any:
        with self._lock:
            channel = self._channel
            reason = self._down_reason
        if channel is None:
            raise RemoteError("PeerUnavailable", reason)
        return channel.control(kind, timeout=timeout)

    # -- lifecycle -------------------------------------------------------

    def stop(self, timeout: float = 10.0) -> None:
        """Orderly shutdown: tell the remote actor to stop, then hang up."""
        self._shutdown(send_shutdown=True, timeout=timeout)

    def abort(self) -> None:
        """Hang up *without* stopping the remote actor.

        The teardown for a failed build against operator-run agents: the
        builder must release its connections, but sending the shutdown
        control would stop a cluster the operator still wants running.
        """
        self._shutdown(send_shutdown=False, timeout=0.0)

    def _shutdown(self, send_shutdown: bool, timeout: float) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            channel = self._channel
            self._channel = None
        self._wake.set()
        if channel is not None:
            if send_shutdown:
                try:
                    channel.control(CTL_SHUTDOWN, timeout=timeout)
                except (RemoteError, TimeoutError):
                    pass  # peer already dead or wedged; just hang up
            channel.close(
                "peer stopped by driver close"
                if send_shutdown
                else "peer aborted (driver hang-up)"
            )
        self._connected.clear()
        self._thread.join(timeout=5)

    def drop(self) -> None:
        """Sever the current connection without closing the peer (failure
        injection: the connector will redial with backoff)."""
        with self._lock:
            channel = self._channel
        if channel is not None:
            channel.close("connection dropped (failure injection)")


class TcpDriver(ThreadedDriver):
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
        super().__init__(registry)
        self._connect_timeout = connect_timeout
        self._remotes: dict[Address, TcpPeer] = {}

    # -- registration ----------------------------------------------------

    def register(self, address: Address, actor: Actor) -> None:
        if address in self._remotes:
            raise ValueError(f"address {address!r} already registered (remote)")
        super().register(address, actor)

    def register_remote(
        self, address: Address, endpoint: Endpoint | str
    ) -> TcpPeer:
        """Bind ``address`` to a node-agent endpoint; dialing starts
        immediately on a background thread (use :meth:`wait_connected`
        to block until the cluster is reachable)."""
        peer = TcpPeer(
            address, parse_endpoint(endpoint), connect_timeout=self._connect_timeout
        )
        with self._lock:
            if self._closed:
                peer.stop()
                raise RuntimeError("driver is closed")
            if address in self._servers or address in self._remotes:
                peer.stop()
                raise ValueError(f"address {address!r} already registered")
            self._remotes[address] = peer
        return peer

    def register_map(self, cluster_map: ClusterMap) -> None:
        """Register every actor of a cluster map."""
        for address, endpoint in cluster_map.items():
            self.register_remote(address, endpoint)

    def peer(self, address: Address) -> TcpPeer:
        with self._lock:
            return self._remotes[address]

    def addresses(self) -> list[Address]:
        with self._lock:
            return list(self._servers) + list(self._remotes)

    def remote_addresses(self) -> list[Address]:
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
        return {
            a: ("connected" if p.connected else str(p.down_reason))
            for a, p in peers.items()
        }

    # -- introspection ---------------------------------------------------

    def server_stats(self) -> dict[Address, tuple[int, int]]:
        """Per-actor ``(wire_rpcs, sub_calls)``, queried over the wire for
        remote actors (raises ``RemoteError`` for a dead peer)."""
        with self._lock:
            servers = dict(self._servers)
            remotes = dict(self._remotes)
        stats = {a: (s.served_rpcs, s.served_calls) for a, s in servers.items()}
        for address, peer in remotes.items():
            reply = peer.control(CTL_STATS)
            stats[address] = (reply["wire_rpcs"], reply["sub_calls"])
        return stats

    def telemetry(self, address: Address) -> dict[str, Any]:
        """One actor's telemetry report (wire counters + service-time
        snapshot), queried over the wire as a *control* for remote actors
        — controls are not counted as wire RPCs, so scraping is invisible
        to the workload counters."""
        with self._lock:
            remote = self._remotes.get(address)
        if remote is None:
            return super().telemetry(address)
        return remote.control(CTL_TELEMETRY)

    def call(self, address: Address, method: str, args: tuple = ()) -> Any:
        """One-off RPC outside any protocol (inspection surfaces)."""

        def proto():
            (result,) = yield Batch([Call(address, method, args)])
            return result

        return self.run(proto())

    # -- execution -------------------------------------------------------

    def _execute_batch(self, batch: Batch) -> list[Any]:
        calls = batch.calls
        if not calls:
            return []
        groups = plan_wire_groups(calls)
        servers = self._servers
        remotes = self._remotes
        resolved: list[tuple[Any, Any]] = []
        for group in groups:
            server = servers.get(group.dest)
            if server is not None:
                resolved.append((None, server))
                continue
            remote = remotes.get(group.dest)
            if remote is None:
                raise KeyError(f"no actor registered at address {group.dest!r}")
            resolved.append((remote, None))
        results: list[Any] = [None] * len(calls)
        latch = self._latch()
        gen = latch.begin(len(groups), len(calls))
        trace = current_trace()
        # With a trace open each wire group gets a span id that rides the
        # envelope (serving-side spans parent to it); untraced batches
        # stay bit-identical on the wire.
        span_ids = None
        parent = None
        if trace is not None:
            parent = current_op_span()
            span_ids = [new_span_id() for _ in groups]
        t_enq = time.perf_counter_ns()
        slots: list[list | None] = [None] * len(groups)
        for k, ((remote, server), group) in enumerate(zip(resolved, groups)):
            wire_trace = trace if span_ids is None else (trace, span_ids[k])
            if remote is not None:
                slot: list = [None]
                slots[k] = slot
                remote.submit(group, slot, latch, gen, wire_trace)
            else:
                server.inbox.put(
                    (group.calls, group.indices, results, latch, gen,
                     wire_trace, t_enq)
                )
        latch.wait()
        t_done = time.perf_counter_ns()
        rtt_ns = t_done - t_enq
        for group in groups:
            latch.record_rtt(dest_kind(group.dest), rtt_ns)
        if span_ids is not None:
            record_group_spans(trace, parent, span_ids, groups, t_enq, t_done)
        # Decode remote replies on *this* thread: the receiver threads only
        # routed raw bodies, so payload unpickling happens in the caller
        # that asked for the data, concurrent across caller threads.
        for k, slot in enumerate(slots):
            if slot is None:
                continue
            group = groups[k]
            n_calls = len(group.calls)
            values = decode_reply(slot[0], n_calls, resolved[k][0].actor_name)
            if isinstance(values, RemoteError):
                values = [values] * n_calls
            for index, value in zip(group.indices, values):
                results[index] = value
        return [deliver(c, r) for c, r in zip(calls, results)]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            peers = list(self._remotes.values())
        for peer in peers:
            peer.stop()
        super().close()

    def abort(self) -> None:
        """Close without stopping the remote actors.

        ``close()`` is the orderly teardown — every hosted actor gets the
        ``shutdown`` control and agents exit. ``abort()`` only hangs up:
        the teardown for a *failed build* against operator-run agents,
        which must leave the operator's cluster serving.
        """
        with self._lock:
            peers = list(self._remotes.values())
        for peer in peers:
            peer.abort()
        # aborted peers make their stop() a no-op, so close() only stops
        # in-parent service threads and marks the driver closed
        self.close()
