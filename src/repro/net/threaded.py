"""Blocking driver: caller threads, in-parent actors, TCP peers.

One driver runs every blocking deployment. An actor placed with
``register`` stays in this process and is served on the thread that
submits its group, under the actor's lock — the confinement rule a node
agent keeps for the actors it hosts (:mod:`repro.net.node`), so no
service thread or inbox stands between a caller and an in-parent actor;
an actor bound with ``register_remote`` lives behind a ``host:port``
endpoint served by a node agent, reached through a
:class:`~repro.net.tcp.TcpPeer`. Any number of client threads issue
protocols against either kind concurrently. With only in-parent actors
this is the threaded deployment; with remote ones, the TCP cluster
(loopback agents or real hosts — only the endpoints in the
:class:`~repro.net.address.ClusterMap` change).

Because each in-parent actor is entered by one thread at a time, actor
code needs no internal locking; the *only* serialization point in the
whole data path is the version manager's lock — which is precisely the
design the paper argues for. Throughput numbers from in-parent actors are
not meaningful: they share the client's GIL, so only agents in their own
OS processes are timed (README.md, "Timing needs separate processes").
Correctness under concurrency is what the threaded deployment shows.

Transport batching mirrors the simulated driver: both execute exactly the
wire groups planned by :func:`repro.net.sansio.plan_wire_groups`, so a
batch costs **one queue submission per destination** (one frame carrying
all of that destination's sub-calls, or one in-parent group served in
place) and **at most one completion wakeup per batch** (the last
destination to finish releases the waiting caller; every other
destination only decrements a counter). A batch sends its remote groups
first and serves its in-parent ones after them, so their round trips
overlap. Caller threads reuse a thread-local :class:`_BatchLatch` across
batches — one lock, released by the last group and acquired by the
caller — so the hot path allocates no locks, conditions or events per
batch. The counters exposed by :meth:`PeerRegistry.transport_stats` make
these bounds testable.

:class:`PeerRegistry` is what this driver and the asyncio one
(:mod:`repro.net.aio`) share: registration, health, the scrape surface,
destination resolution, the caller-side counters and the batch body, on
top of the :class:`~repro.net.sansio.Driver` every driver is. A driver
supplies only how it waits for a batch, how it places an in-parent actor
and how it makes, asks and stops peers. An in-parent group is served as
a node agent serves one, through :func:`~repro.net.sansio.serve_group`.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import threading
import time
from typing import Any, Mapping, NamedTuple

from repro.errors import RemoteError
from repro.net.address import ClusterMap, Endpoint, parse_endpoint
from repro.net.node import _ActorService
from repro.net.sansio import (
    Actor,
    Address,
    Batch,
    Call,
    Driver,
    Protocol,
    deliver,
    plan_wire_groups,
    run_protocol,
    serve_group,
)
from repro.net.tcp import TcpPeer
from repro.net.wire import CTL_TELEMETRY
from repro.obs.hist import LatencyHistogram, merge_all
from repro.obs.spans import current_op, group_context, record_group_spans

#: how many protocols in a row a caller thread completes by itself before
#: it lets other threads take the GIL (:meth:`_BatchLatch.done`)
_INLINE_RUN = 2

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
    """Reusable countdown latch owned by one caller thread: one lock,
    held while a batch is pending, released by its last ``group_done``
    and acquired by ``wait``.

    A caller thread executes one batch at a time, so the same latch
    serves every batch that thread ever runs: ``begin`` arms it before
    any submission, the caller itself (in-parent groups, failed peers)
    and receiver threads call ``group_done`` once per wire group, and
    only the final decrement releases the lock. ``_guard`` keeps the
    countdown whole when groups complete on several threads at once.

    Every batch gets a fresh generation number, carried with its groups
    and handed back by ``group_done``: if a caller unwinds out of
    ``wait`` (e.g. KeyboardInterrupt) with groups still in flight, the
    next ``begin`` bumps the generation and the stale groups' completions
    are ignored instead of corrupting the new batch's countdown. (Their
    result writes land in the abandoned batch's results list, which
    nobody reads.)

    The latch counts the releases of the current batch — a group
    completed twice counts twice, and never raises — and ``wait`` returns
    that count, which the driver adds to ``completion_wakeups``.
    """

    __slots__ = (
        "_lock", "_guard", "_pending", "_gen", "_releases", "_owner",
        "_released_by", "_left", "_inline_run",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()
        self._guard = threading.Lock()
        self._pending = 0
        self._gen = 0
        self._releases = 0
        self._owner = threading.get_ident()
        self._released_by = 0  # the thread that completed the batch
        #: whether a batch of the current protocol was completed by another
        #: thread, and how many protocols in a row were not (see ``done``)
        self._left = False
        self._inline_run = 0

    def begin(self, n_groups: int) -> int:
        """Arm for a new batch; returns the batch's generation stamp."""
        with self._guard:
            # held, unless the completion of an abandoned batch released it
            self._lock.acquire(blocking=False)
            self._gen += 1
            self._pending = n_groups
            self._releases = 0
            if n_groups <= 0:
                self._lock.release()  # nothing to wait for
        return self._gen

    def group_done(self, gen: int) -> None:
        with self._guard:
            if gen != self._gen:
                return  # completion of an abandoned batch: ignore
            self._pending -= 1
            if self._pending <= 0:
                self._releases += 1
                self._released_by = threading.get_ident()
                if self._lock.locked():
                    self._lock.release()

    def wait(self) -> int:
        """Block until the batch completes; returns the releases it took."""
        self._lock.acquire()
        if self._released_by != self._owner:
            self._left = True
        return self._releases

    def done(self) -> None:
        """A protocol ended on this thread. One whose every batch this
        thread completed itself (its groups served here, or failed fast)
        released the GIL nowhere, and a thread that runs such protocols
        back to back keeps it for whole switch intervals while other
        threads wait for it; so every ``_INLINE_RUN``-th in a row lets
        them in, as a blocking wait or a socket send would."""
        if self._left:
            self._left = False
            self._inline_run = 0
            return
        self._inline_run += 1
        if self._inline_run >= _INLINE_RUN:
            self._inline_run = 0
            time.sleep(0)


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


class _InlineService(_ActorService):
    """An in-parent actor, served on the thread that submits its group
    under the actor's lock — the node agent's confinement rule, its
    served counters and its ``report`` — so a caller never hands a group
    to another thread. Once stopped it refuses every group."""

    def submit(self, group: Any, slot: list, latch: Any, gen: int, trace: Any) -> None:
        """Serve one wire group (a peer's contract: values in ``slot[0]``);
        the wait for the lock is the group's queue wait."""
        calls = group.calls
        t_enq = time.perf_counter_ns()
        with self.lock:
            if self.stopped:
                raise RuntimeError("driver is closed")
            self.served_rpcs += 1
            self.served_calls += len(calls)
            slot[0] = serve_group(
                self.actor, calls, trace, time.perf_counter_ns() - t_enq, 0
            )
        latch.group_done(gen)

    @staticmethod
    def reply_values(slot: list, n_calls: int) -> list:
        return slot[0]

    def stop(self) -> None:
        # a group already inside the actor finishes first (waited for as
        # long as a service thread's join was), since the actor may be
        # closed next; a wedged one does not hold the teardown
        held = self.lock.acquire(timeout=10)
        self.stopped = True
        if held:
            self.lock.release()


class _FailedPeer(NamedTuple):
    """What a failed address (:meth:`~repro.net.sansio.Driver.fail`)
    resolves to: a peer answering every group at submit with ``error``,
    as a :class:`~repro.net.tcp.TcpPeer` that is down does."""

    error: RemoteError

    def submit(self, group: Any, slot: list, latch: Any, gen: int, trace: Any) -> None:
        slot[0] = self.error
        latch.group_done(gen)

    @staticmethod
    def reply_values(slot: list, n_calls: int) -> list:
        return [slot[0]] * n_calls


class PeerRegistry(Driver):
    """The address book and batch body every real driver keeps: in-parent
    actors (``_servers``), remote ones behind peers (``_remotes``), under
    ``_lock``, and the caller-side counters. A driver supplies how it
    waits for a batch (between :meth:`_submit_batch` and
    :meth:`_finish_batch`), how it places an in-parent actor
    (``_new_server``: served inline, or on a service thread) and how it
    makes, asks and stops peers: ``_new_peer``, ``_control``,
    ``_stop_peers``. A peer reads a remote group's values with
    ``reply_values``."""

    def __init__(
        self,
        registry: Mapping[Address, Actor] | None = None,
        *,
        connect_timeout: float = 5.0,
    ) -> None:
        self._lock = threading.Lock()
        self._closed = False
        self._connect_timeout = connect_timeout
        self._servers: dict[Address, Any] = {}
        self._remotes: dict[Address, Any] = {}
        #: addresses whose peer is being built (see register_remote)
        self._reserved: set[Address] = set()
        #: stopped peers of unregistered actors (see unregister; a
        #: re-registration of the address shadows its entry)
        self._retired: dict[Address, Any] = {}
        self._down: dict[Address, str] = {}
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
        """Place an actor in this process (see ``_new_server``)."""
        with self._lock:
            self._claim(address)
            self._servers[address] = self._new_server(address, actor)

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
        snapshot, ``report()``), queried over the wire as
        a *control* for remote actors — controls are not counted as wire
        RPCs, so scraping is invisible to the workload counters. A failed
        address raises its ``PeerUnavailable``, as a dead peer does."""
        self._raise_if_failed(address)
        with self._lock:
            remote = self._remotes.get(address)
            server = self._servers.get(address)
        if remote is not None:
            return self._control(remote, CTL_TELEMETRY)
        if server is None:
            raise KeyError(f"no actor registered at address {address!r}")
        return server.report()

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
          is released only by the last wire group; an aio protocol's
          stepper resumes it once, in the callback that completes its
          last group).

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

    # -- execution -------------------------------------------------------

    def _resolve(self, groups: list) -> list[Any]:
        """The target of each wire group — its peer or in-parent actor,
        both taking ``submit`` and answering ``reply_values`` —
        all resolved before anything is submitted: an unknown address
        leaves no latch armed and no group in flight. A failed address
        resolves to a :class:`_FailedPeer`."""
        servers = self._servers
        remotes = self._remotes
        down = self._down
        targets: list[Any] = []
        for group in groups:
            dest = group.dest
            target = servers.get(dest)
            reason = down.get(dest)
            if reason is not None:
                target = _FailedPeer(RemoteError("PeerUnavailable", reason))
            elif target is None:
                # a retired peer answers PeerUnavailable, typed
                target = remotes.get(dest) or self._retired.get(dest)
                if target is None:
                    raise KeyError(f"no actor registered at address {dest!r}")
            targets.append(target)
        return targets

    def _submit_batch(self, calls: tuple[Call, ...], latch: Any) -> tuple:
        """First half of a batch: plan one wire group per destination,
        resolve every destination, count, then hand each group to its
        peer or in-parent actor (under an open operation a group's trace
        context rides its envelope): remote groups first, then the
        groups served inline on this thread, so the remote round trips
        overlap them. ``latch`` is armed here and released by the last
        group; the caller waits on it and passes the returned state, with
        the wake-ups ``wait`` returned, to :meth:`_finish_batch`."""
        # a closed driver's service threads have stopped: a group queued
        # to one would never complete, and its caller would wait forever
        if self._closed:
            raise RuntimeError("driver is closed")
        groups = plan_wire_groups(calls)
        targets = self._resolve(groups)
        ident = threading.get_ident()
        tally = self._tallies.get(ident)
        if tally is None:
            tally = self._tallies[ident] = _Tally()
        tally.batches += 1
        tally.queue_submissions += len(groups)
        tally.sub_calls += len(calls)
        gen = latch.begin(len(groups))
        op = current_op()
        contexts = None if op is None else [group_context(op, g) for g in groups]
        slots = [[None] for _ in groups]  # each group's one-element mailbox
        t_enq = time.perf_counter_ns()
        inline = []  # served on this thread once the remote groups are sent
        for k, target in enumerate(targets):
            if type(target) is _InlineService:
                inline.append(k)
            else:
                target.submit(
                    groups[k], slots[k], latch, gen,
                    None if contexts is None else contexts[k],
                )
        for k in inline:
            targets[k].submit(
                groups[k], slots[k], latch, gen,
                None if contexts is None else contexts[k],
            )
        # close() set _closed before stopping any service thread, so if
        # it is still unset here every group above is queued ahead of
        # the shutdown; if set, a group may sit behind it, never served
        # (an inline actor refuses a group once stopped instead)
        if self._closed:
            raise RuntimeError("driver is closed")
        return calls, groups, targets, slots, op, contexts, t_enq, tally

    def _finish_batch(self, sent: tuple, wakeups: int) -> list[Any]:
        """Second half of a batch, once its latch released after
        ``wakeups`` releases: count them, record RTT and spans, gather
        each group's values and deliver the results in call order."""
        calls, groups, targets, slots, op, contexts, t_enq, tally = sent
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
            record_group_spans(op, contexts, groups, t_enq, t_done)
        results: list[Any] = [None] * len(calls)
        for group, target, slot in zip(groups, targets, slots):
            values = target.reply_values(slot, len(group.calls))
            for index, value in zip(group.indices, values):
                results[index] = value
        return deliver(calls, results)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Orderly teardown: every remote actor gets the ``shutdown``
        control (its agent exits once all it hosts have), in-parent
        actors stop serving (an aio service thread joins)."""
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
    (``register_remote``, one :class:`~repro.net.tcp.TcpPeer` each).
    An in-parent actor is served on the calling thread."""

    @staticmethod
    def _new_server(address: Address, actor: Actor) -> _InlineService:
        return _InlineService(address, actor)

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
        latch = getattr(_caller, "latch", None)
        if latch is None:
            latch = _caller.latch = _BatchLatch()

        def execute(batch: Batch) -> list[Any]:
            sent = self._submit_batch(batch.calls, latch)
            return self._finish_batch(sent, latch.wait())

        try:
            return run_protocol(proto, execute)
        finally:
            latch.done()

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
