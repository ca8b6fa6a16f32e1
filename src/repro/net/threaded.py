"""Blocking driver: caller threads, in-parent service threads, TCP peers.

One driver runs every blocking deployment. An actor placed with
``register`` runs its own service loop on an in-parent thread — data
provider, metadata provider, version manager, provider manager — exactly
like the paper's one-process-per-node deployment; an actor bound with
``register_remote`` lives behind a ``host:port`` endpoint served by a
node agent (:mod:`repro.net.node`), reached through a
:class:`~repro.net.tcp.TcpPeer`. Any number of client threads issue
protocols against either kind concurrently. With only in-parent actors
this is the threaded deployment; with remote ones, the TCP cluster
(loopback agents or real hosts — only the endpoints in the
:class:`~repro.net.address.ClusterMap` change).

Because each in-parent actor is confined to a single service thread,
actor code needs no internal locking; the *only* serialization point in
the whole data path is the version manager's service queue — which is
precisely the design the paper argues for. Throughput numbers from
in-parent actors are not meaningful: they share the client's GIL, so
only agents in their own OS processes are timed (README.md, "Timing
needs separate processes"). Correctness under concurrency is what the
threaded deployment shows.

Transport batching mirrors the simulated driver: both execute exactly the
wire groups planned by :func:`repro.net.sansio.plan_wire_groups`, so a
batch costs **one queue submission per destination** (one inbox item or
one frame carrying all of that destination's sub-calls) and **at most one
completion wakeup per batch** (the last destination to finish notifies the
waiting caller; every other destination only decrements a counter). Caller
threads reuse a thread-local :class:`_BatchLatch` across batches, so the
hot path allocates no locks, conditions or events per batch. The counters
exposed by :meth:`PeerRegistry.transport_stats` make these bounds testable.

:class:`PeerRegistry` is what this driver and the asyncio one
(:mod:`repro.net.aio`) share: registration, health, the scrape surface,
destination resolution, the caller-side counters and the batch body. A
driver supplies only how it waits for a batch and how it makes, asks and
stops peers.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import queue
import threading
import time
from typing import Any, Mapping

from repro.net.address import ClusterMap, Endpoint, parse_endpoint
from repro.net.sansio import (
    Actor,
    Address,
    Batch,
    Call,
    Protocol,
    deliver,
    dispatch_call,
    plan_wire_groups,
    run_protocol,
)
from repro.net.tcp import TcpPeer
from repro.net.wire import CTL_TELEMETRY
from repro.obs.hist import LatencyHistogram, merge_all
from repro.obs.spans import (
    clear_server_context,
    current_op,
    new_span_id,
    record_group_spans,
    set_server_context,
)
from repro.obs.telemetry import telemetry_of

_SHUTDOWN = object()

#: per caller thread: its :class:`_BatchLatch` (a thread waits on one batch
#: at a time, whichever driver runs it, so one latch serves them all)
_caller = threading.local()


def dest_kind(dest: Address) -> str:
    """Coarse destination label for caller-side RTT histograms.

    Tuple addresses like ``("data", 3)`` fold to their role (``"data"``)
    so RTT distributions aggregate per actor *kind*, not per instance.
    """
    if isinstance(dest, tuple) and dest and isinstance(dest[0], str):
        return dest[0]
    return str(dest)


class _BatchLatch:
    """Reusable countdown latch owned by one caller thread.

    A caller thread executes one batch at a time, so the same latch (and
    its single lock) serves every batch that thread ever runs: ``begin``
    arms it before any submission, service and receiver threads call
    ``group_done`` once per wire group, and only the final decrement pays
    a ``notify``.

    Every batch gets a fresh generation number, carried by its inbox items
    and handed back by ``group_done``: if a caller unwinds out of ``wait``
    (e.g. KeyboardInterrupt) with groups still queued, the next ``begin``
    bumps the generation and the stale groups' completions are ignored
    instead of corrupting the new batch's countdown. (Their result writes
    land in the abandoned batch's results list, which nobody reads.)

    The latch counts the notifies it pays for the current batch; ``wait``
    returns that count, which the driver adds to ``completion_wakeups``.
    """

    __slots__ = ("_cond", "_pending", "_gen", "_notifies")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._pending = 0
        self._gen = 0
        self._notifies = 0

    def begin(self, n_groups: int) -> int:
        """Arm for a new batch; returns the batch's generation stamp."""
        with self._cond:
            self._gen += 1
            self._pending = n_groups
            self._notifies = 0
        return self._gen

    def group_done(self, gen: int) -> None:
        with self._cond:
            if gen != self._gen:
                return  # completion of an abandoned batch: ignore
            self._pending -= 1
            if self._pending <= 0:
                self._notifies += 1
                self._cond.notify()

    def wait(self) -> int:
        """Block until the batch completes; returns the notifies it took."""
        with self._cond:
            while self._pending > 0:
                self._cond.wait()
            return self._notifies


class _Tally:
    """One caller thread's transport counters (see
    :meth:`PeerRegistry.transport_stats`) and per-destination-kind RTT
    histograms. Only that thread writes it, so counting takes no lock."""

    COUNTERS = ("batches", "queue_submissions", "completion_wakeups", "sub_calls")
    __slots__ = COUNTERS + ("rtt",)

    def __init__(self) -> None:
        self.batches = self.queue_submissions = 0
        self.completion_wakeups = self.sub_calls = 0
        self.rtt: dict[str, LatencyHistogram] = {}


class _ServerThread:
    """Service loop for one actor: processes aggregated wire groups FIFO."""

    def __init__(self, address: Address, actor: Actor) -> None:
        self.address = address
        self.actor = actor
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.served_calls = 0
        self.served_rpcs = 0
        self._thread = threading.Thread(
            target=self._loop, name=f"actor-{address}", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while True:
            item = self.inbox.get()
            if item is _SHUTDOWN:
                return
            calls, indices, results, latch, gen, trace, t_enq = item
            # One inbox item == one wire RPC carrying aggregated sub-calls.
            self.served_rpcs += 1
            self.served_calls += len(calls)
            set_server_context(trace, time.perf_counter_ns() - t_enq, 0)
            try:
                for call, index in zip(calls, indices):
                    results[index] = dispatch_call(self.actor, call)
            finally:
                clear_server_context()
            latch.group_done(gen)

    def report(self) -> dict[str, Any]:
        """The ``telemetry`` report: wire counters + service-time snapshot,
        the shape a node agent's actor answers over the wire (read off
        the service queue, so a scrape never perturbs the counters)."""
        return {
            "wire_rpcs": self.served_rpcs,
            "sub_calls": self.served_calls,
            "telemetry": telemetry_of(self.actor).snapshot(),
        }

    def stop(self) -> None:
        self.inbox.put(_SHUTDOWN)
        self._thread.join(timeout=10)


class PeerRegistry:
    """The address book and batch body every real driver keeps: in-parent
    actors on service threads (``_servers``), remote ones behind peers
    (``_remotes``), under ``_lock``, and the caller-side counters. A
    driver supplies how it waits for a batch (between
    :meth:`_submit_batch` and :meth:`_finish_batch`) and how it makes,
    asks and stops peers: ``_new_peer``, ``_control``, ``_stop_peers``.
    A peer reads a remote group's values with ``reply_values``."""

    def __init__(
        self,
        registry: Mapping[Address, Actor] | None = None,
        *,
        connect_timeout: float = 5.0,
    ) -> None:
        self._lock = threading.Lock()
        self._closed = False
        self._connect_timeout = connect_timeout
        self._servers: dict[Address, _ServerThread] = {}
        self._remotes: dict[Address, Any] = {}
        #: addresses whose peer is being built (see register_remote)
        self._reserved: set[Address] = set()
        #: stopped peers of unregistered actors (see unregister; a
        #: re-registration of the address shadows its entry)
        self._retired: dict[Address, Any] = {}
        #: caller-side counters, one _Tally per caller thread id, so the
        #: batch path shares no lock between callers. The OS hands an
        #: ended thread's id to a new thread, which then keeps counting
        #: into the same tally: none is lost, and the table stays about
        #: as large as the most callers alive at once.
        self._tallies: dict[int, _Tally] = {}
        for address, actor in (registry or {}).items():
            self.register(address, actor)

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
        snapshot, :meth:`_ServerThread.report`), queried over the wire as
        a *control* for remote actors — controls are not counted as wire
        RPCs, so scraping is invisible to the workload counters."""
        with self._lock:
            remote = self._remotes.get(address)
            server = self._servers.get(address)
        if remote is not None:
            return self._control(remote, CTL_TELEMETRY)
        if server is None:
            raise KeyError(f"no actor registered at address {address!r}")
        return server.report()

    def server_stats(self) -> dict[Address, tuple[int, int]]:
        """Per-actor ``(wire_rpcs, sub_calls)``: the counters of every
        actor's :meth:`telemetry` report (over the wire, as a control, for
        a remote actor — raising ``RemoteError`` for a dead peer)."""
        stats = {}
        for address in self.addresses():
            report = self.telemetry(address)
            stats[address] = (report["wire_rpcs"], report["sub_calls"])
        return stats

    def transport_stats(self) -> dict[str, int]:
        """Caller-side transport counters across every caller:

        - ``batches``: protocol batches executed;
        - ``queue_submissions``: wire groups submitted — exactly one per
          destination per batch, i.e. one per wire RPC a lone caller
          sends (concurrent aio callers may share a frame);
        - ``sub_calls``: the calls those submissions carried (equals the
          sub-calls the actors served, whatever frames carried them);
        - ``completion_wakeups``: caller wake-ups, counted by the latch
          where it pays them — at most one per batch (a thread's latch
          notifies only on the last wire group; the aio latch wakes the
          loop once).

        A batch is counted when it is submitted and its wake-ups (as the
        latch counted them) when the caller resumes, so a snapshot taken
        mid-batch may lag by the in-flight batches; read these when
        callers are quiescent.
        """
        tallies = list(self._tallies.values())
        return {
            name: sum(getattr(tally, name) for tally in tallies)
            for name in _Tally.COUNTERS
        }

    def caller_rtt(self) -> dict[str, LatencyHistogram]:
        """Per-destination-kind wire-RPC round-trip histograms across
        every batch this driver executed. The returned histograms are
        fresh merges — safe to mutate."""
        by_kind: dict[str, list[LatencyHistogram]] = {}
        for tally in list(self._tallies.values()):
            for kind, hist in list(tally.rtt.items()):
                by_kind.setdefault(kind, []).append(hist)
        return {kind: merge_all(hists) for kind, hists in by_kind.items()}

    def call(self, address: Address, method: str, args: tuple = ()) -> Any:
        """One-off RPC outside any protocol (inspection surfaces)."""

        def proto():
            (result,) = yield Batch([Call(address, method, args)])
            return result

        return self.run(proto())

    # -- execution -------------------------------------------------------

    def _resolve(self, groups: list) -> list[tuple[Any, Any, Any]]:
        """``(group, peer, None)`` or ``(group, None, service thread)`` per
        wire group, all resolved before anything is submitted: an unknown
        address leaves no latch armed and no group in flight."""
        servers = self._servers
        remotes = self._remotes
        resolved: list[tuple[Any, Any, Any]] = []
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

    def _submit_batch(self, calls: tuple[Call, ...], latch: Any) -> tuple:
        """First half of a batch: plan one wire group per destination,
        resolve every destination, count, then hand each group to its
        peer or in-parent service thread (under an open operation a
        group's trace context rides its envelope). ``latch`` is armed
        here and released by the last group; the caller waits on it and
        passes the returned state, with the wake-ups ``wait`` returned, to
        :meth:`_finish_batch`."""
        # a closed driver's service threads have stopped: a group queued
        # to one would never complete, and its caller would wait forever
        if self._closed:
            raise RuntimeError("driver is closed")
        groups = plan_wire_groups(calls)
        resolved = self._resolve(groups)
        ident = threading.get_ident()
        tally = self._tallies.get(ident)
        if tally is None:
            tally = self._tallies[ident] = _Tally()
        tally.batches += 1
        tally.queue_submissions += len(groups)
        tally.sub_calls += len(calls)
        gen = latch.begin(len(groups))
        op = current_op()
        span_ids = None if op is None else [new_span_id() for _ in groups]
        results: list[Any] = [None] * len(calls)
        replies = []  # (group, peer, slot) per remote group
        t_enq = time.perf_counter_ns()
        for k, (group, remote, server) in enumerate(resolved):
            wire_trace = None if op is None else (op.trace, span_ids[k])
            if remote is None:
                server.inbox.put(
                    (group.calls, group.indices, results, latch, gen,
                     wire_trace, t_enq)
                )
            else:
                slot = [None]
                replies.append((group, remote, slot))
                remote.submit(group, slot, latch, gen, wire_trace)
        # close() set _closed before stopping any service thread, so if
        # it is still unset here every group above is queued ahead of
        # the shutdown; if set, a group may sit behind it, never served
        if self._closed:
            raise RuntimeError("driver is closed")
        return calls, groups, results, replies, op, span_ids, t_enq, tally

    def _finish_batch(self, sent: tuple, wakeups: int) -> list[Any]:
        """Second half of a batch, once its latch released after
        ``wakeups`` notifies: count them, record RTT and spans, gather
        remote values and deliver the results in call order."""
        calls, groups, results, replies, op, span_ids, t_enq, tally = sent
        # One RTT sample per wire RPC; the batch completes as a unit, so
        # every group in it shares the batch round-trip time.
        t_done = time.perf_counter_ns()
        rtt_ns = t_done - t_enq
        tally.completion_wakeups += wakeups
        rtt = tally.rtt
        for group in groups:
            kind = dest_kind(group.dest)
            hist = rtt.get(kind)
            if hist is None:
                hist = rtt[kind] = LatencyHistogram()
            hist.record(rtt_ns)
        if op is not None:
            record_group_spans(op, span_ids, groups, t_enq, t_done)
        for group, remote, slot in replies:
            values = remote.reply_values(slot, len(group.calls))
            for index, value in zip(group.indices, values):
                results[index] = value
        return [deliver(c, r) for c, r in zip(calls, results)]

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

    def _shutdown(self, send_shutdown: bool) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            servers = list(self._servers.values())
            remotes = list(self._remotes.values())
        self._stop_peers(remotes, send_shutdown)
        for server in servers:
            server.stop()

    def __enter__(self) -> "PeerRegistry":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ThreadedDriver(PeerRegistry):
    """Drives protocols from any number of caller threads against
    in-parent actors (``register``) and TCP-remote ones
    (``register_remote``, one :class:`~repro.net.tcp.TcpPeer` each)."""

    def _new_peer(self, address: Address, endpoint: Endpoint) -> TcpPeer:
        return TcpPeer(address, endpoint, connect_timeout=self._connect_timeout)

    @staticmethod
    def _control(peer: TcpPeer, kind: str) -> Any:
        return peer.control(kind)

    @staticmethod
    def _stop_peers(peers: list[TcpPeer], send_shutdown: bool) -> None:
        for peer in peers:
            peer.stop(send_shutdown=send_shutdown)

    def run(self, proto: Protocol[Any]) -> Any:
        """Execute a protocol; may be called concurrently from many threads."""
        return run_protocol(proto, self._execute_batch)

    def _execute_batch(self, batch: Batch) -> list[Any]:
        if not batch.calls:
            return []
        latch = getattr(_caller, "latch", None)
        if latch is None:
            latch = _caller.latch = _BatchLatch()
        sent = self._submit_batch(batch.calls, latch)
        return self._finish_batch(sent, latch.wait())

    def spawn(self, proto: Protocol[Any]) -> "ProtocolFuture":
        """Run a protocol on a fresh thread; returns a waitable future."""
        future: concurrent.futures.Future = concurrent.futures.Future()

        def target() -> None:
            try:
                future.set_result(self.run(proto))
            except BaseException as exc:  # noqa: BLE001 - carried to result()
                future.set_exception(exc)

        threading.Thread(
            target=target, name=f"proto-{next(_future_ids)}", daemon=True
        ).start()
        return ProtocolFuture(future)


_future_ids = itertools.count(1)


class ProtocolFuture:
    """Result handle of a driver's ``spawn``: ``done()`` /
    ``result(timeout)`` over the spawned protocol's
    :class:`concurrent.futures.Future`."""

    def __init__(self, future: concurrent.futures.Future) -> None:
        self._fut = future

    def done(self) -> bool:
        """True once the protocol finished (or failed)."""
        return self._fut.done()

    def result(self, timeout: float | None = 60.0) -> Any:
        """The protocol's return value; re-raises its error."""
        try:
            return self._fut.result(timeout)
        except TimeoutError:
            if not self._fut.done():
                raise TimeoutError("protocol did not complete in time") from None
            raise
