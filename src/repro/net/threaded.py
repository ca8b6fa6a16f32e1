"""Real-thread driver: one service thread per actor, batched queue transports.

This driver exists to demonstrate the paper's concurrency claims with real
parallelism (not simulated time): each actor — data provider, metadata
provider, version manager, provider manager — runs its own service loop
exactly like the paper's one-process-per-node deployment, and any number of
client threads issue protocols against them concurrently.

Because each actor is confined to a single service thread, actor code needs
no internal locking; the *only* serialization point in the whole data path
is the version manager's service queue — which is precisely the design the
paper argues for. Throughput numbers from this driver are not meaningful
under the GIL (see DESIGN.md); correctness under concurrency is.

Transport batching mirrors the simulated driver: both execute exactly the
wire groups planned by :func:`repro.net.sansio.plan_wire_groups`, so a
batch costs **one queue submission per destination** (one inbox item
carrying all of that destination's sub-calls) and **at most one completion
wakeup per batch** (the last destination to finish notifies the waiting
caller; every other destination only decrements a counter). Caller threads
reuse a thread-local :class:`_BatchLatch` across batches, so the hot path
allocates no locks, conditions or events per batch. The counters exposed by
:meth:`ThreadedDriver.transport_stats` make these bounds testable.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Any, Mapping

from repro.net.sansio import (
    Actor,
    Address,
    Batch,
    Compute,
    Mark,
    Protocol,
    deliver,
    dispatch_call,
    plan_wire_groups,
)
from repro.errors import ReproError
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
    arms it before any submission, service threads call ``group_done``
    once per wire group, and only the final decrement pays a ``notify``.

    Every batch gets a fresh generation number, carried by its inbox items
    and handed back by ``group_done``: if a caller unwinds out of ``wait``
    (e.g. KeyboardInterrupt) with groups still queued, the next ``begin``
    bumps the generation and the stale groups' completions are ignored
    instead of corrupting the new batch's countdown. (Their result writes
    land in the abandoned batch's results list, which nobody reads.)

    The latch also accumulates the owning thread's transport counters;
    :meth:`ThreadedDriver.transport_stats` sums them across threads.
    """

    __slots__ = (
        "_cond", "_pending", "_gen", "owner", "batches", "submissions",
        "sub_calls", "wakeups", "rtt",
    )

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._pending = 0
        self._gen = 0
        self.owner = threading.current_thread()
        self.batches = 0  # batches executed by the owning thread
        self.submissions = 0  # inbox items enqueued (== wire RPCs issued)
        self.sub_calls = 0  # calls those items carried
        self.wakeups = 0  # condition notifies (≤ 1 per batch)
        # per-destination-kind round-trip histograms (single writer: owner)
        self.rtt: dict[str, LatencyHistogram] = {}

    def record_rtt(self, kind: str, rtt_ns: int) -> None:
        hist = self.rtt.get(kind)
        if hist is None:
            hist = self.rtt[kind] = LatencyHistogram()
        hist.record(rtt_ns)

    def begin(self, n_groups: int, n_calls: int) -> int:
        """Arm for a new batch; returns the batch's generation stamp."""
        with self._cond:
            self._gen += 1
            self._pending = n_groups
        self.batches += 1
        self.submissions += n_groups
        self.sub_calls += n_calls
        return self._gen

    def group_done(self, gen: int) -> None:
        with self._cond:
            if gen != self._gen:
                return  # completion of an abandoned batch: ignore
            self._pending -= 1
            if self._pending <= 0:
                self.wakeups += 1
                self._cond.notify()

    def wait(self) -> None:
        with self._cond:
            while self._pending > 0:
                self._cond.wait()

    def stats(self) -> tuple[int, int, int, int]:
        return (self.batches, self.submissions, self.wakeups, self.sub_calls)


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


class _ScrapeView:
    """The scrape surface every real driver shares: ``telemetry`` of an
    in-parent actor, and ``server_stats`` as one view over ``telemetry``."""

    _lock: threading.Lock
    _servers: dict[Address, _ServerThread]

    def telemetry(self, address: Address) -> dict[str, Any]:
        """One actor's telemetry report (:meth:`_ServerThread.report`)."""
        with self._lock:
            server = self._servers.get(address)
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


class ThreadedDriver(_ScrapeView):
    """Drives protocols from any number of caller threads."""

    def __init__(self, registry: Mapping[Address, Actor] | None = None) -> None:
        self._servers: dict[Address, _ServerThread] = {}
        self._closed = False
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._latches: list[_BatchLatch] = []
        # counters folded in from latches of retired caller threads
        self._retired_stats = [0, 0, 0, 0]
        self._retired_rtt: dict[str, LatencyHistogram] = {}
        for address, actor in (registry or {}).items():
            self.register(address, actor)

    def register(self, address: Address, actor: Actor) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("driver is closed")
            if address in self._servers:
                raise ValueError(f"address {address!r} already registered")
            self._servers[address] = _ServerThread(address, actor)

    def addresses(self) -> list[Address]:
        with self._lock:
            return list(self._servers)

    def transport_stats(self) -> dict[str, int]:
        """Aggregate transport counters across all caller threads.

        - ``batches``: protocol batches executed;
        - ``queue_submissions``: inbox items enqueued — exactly one per
          destination per batch, i.e. one per wire RPC;
        - ``sub_calls``: the calls those submissions carried (equals the
          sub-calls the actors served, whatever frames carried them);
        - ``completion_wakeups``: condition notifies — at most one per
          batch (only the last wire group of a batch notifies).

        Counters survive caller-thread exit (a retired thread's latch is
        folded into a running total). Read these when caller threads are
        quiescent; snapshots taken mid-batch may lag by the in-flight
        batch.
        """
        with self._lock:
            totals = list(self._retired_stats)
            latches = list(self._latches)
        for latch in latches:
            for k, value in enumerate(latch.stats()):
                totals[k] += value
        return {
            "batches": totals[0],
            "queue_submissions": totals[1],
            "completion_wakeups": totals[2],
            "sub_calls": totals[3],
        }

    def caller_rtt(self) -> dict[str, LatencyHistogram]:
        """Per-destination-kind wire-RPC round-trip histograms, merged
        across every caller thread this driver has served (including
        retired ones). The returned histograms are fresh merges — safe to
        mutate."""
        with self._lock:
            latches = list(self._latches)
            merged = {
                kind: merge_all([hist])
                for kind, hist in self._retired_rtt.items()
            }
        for latch in latches:
            for kind, hist in latch.rtt.items():
                if kind in merged:
                    merged[kind].merge(hist)
                else:
                    merged[kind] = merge_all([hist])
        return merged

    def _latch(self) -> _BatchLatch:
        latch = getattr(self._tls, "latch", None)
        if latch is None:
            latch = self._tls.latch = _BatchLatch()
            with self._lock:
                # Latch registration is rare (once per caller thread), so
                # this is the place to retire latches of dead threads —
                # without it, spawn-per-op usage would grow the registry
                # one Condition per protocol ever run.
                alive: list[_BatchLatch] = []
                for old in self._latches:
                    if old.owner.is_alive():
                        alive.append(old)
                    else:
                        for k, value in enumerate(old.stats()):
                            self._retired_stats[k] += value
                        for kind, hist in old.rtt.items():
                            merged = self._retired_rtt.get(kind)
                            if merged is None:
                                merged = self._retired_rtt[kind] = (
                                    LatencyHistogram()
                                )
                            merged.merge(hist)
                alive.append(latch)
                self._latches = alive
        return latch

    def run(self, proto: Protocol[Any]) -> Any:
        """Execute a protocol; may be called concurrently from many threads."""
        try:
            op = next(proto)
            while True:
                if isinstance(op, Compute):
                    op = proto.send(None)
                    continue
                if isinstance(op, Mark):
                    op = proto.send(time.monotonic())
                    continue
                if not isinstance(op, Batch):
                    raise TypeError(
                        f"protocol yielded {op!r}, expected Batch or Compute"
                    )
                try:
                    results = self._execute_batch(op)
                except ReproError as exc:
                    op = proto.throw(exc)
                    continue
                op = proto.send(results)
        except StopIteration as stop:
            return stop.value

    def _execute_batch(self, batch: Batch) -> list[Any]:
        # Same framing as the simulated driver: one wire RPC (= one queue
        # submission) per destination. Destinations are resolved before
        # anything is enqueued so an unknown address cannot leave the latch
        # armed with groups already in flight.
        calls = batch.calls
        if not calls:
            return []
        groups = plan_wire_groups(calls)
        servers = self._servers
        resolved = []
        for group in groups:
            server = servers.get(group.dest)
            if server is None:
                raise KeyError(f"no actor registered at address {group.dest!r}")
            resolved.append(server)
        results: list[Any] = [None] * len(calls)
        latch = self._latch()
        gen = latch.begin(len(groups), len(calls))
        # With an operation open each wire group gets a span id that rides
        # the envelope (serving-side spans parent to it); untraced batches
        # enqueue the exact historical item shape.
        op = current_op()
        span_ids = None if op is None else [new_span_id() for _ in groups]
        t_enq = time.perf_counter_ns()
        for k, (server, group) in enumerate(zip(resolved, groups)):
            wire_trace = None if op is None else (op.trace, span_ids[k])
            server.inbox.put(
                (group.calls, group.indices, results, latch, gen,
                 wire_trace, t_enq)
            )
        latch.wait()
        # One RTT sample per wire RPC; the batch completes as a unit, so
        # every group in it shares the batch round-trip time.
        t_done = time.perf_counter_ns()
        rtt_ns = t_done - t_enq
        for group in groups:
            latch.record_rtt(dest_kind(group.dest), rtt_ns)
        if op is not None:
            record_group_spans(op, span_ids, groups, t_enq, t_done)
        return [deliver(c, r) for c, r in zip(calls, results)]

    def spawn(self, proto: Protocol[Any]) -> "ProtocolFuture":
        """Run a protocol on a fresh thread; returns a waitable future."""
        return ProtocolFuture(self, proto)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            servers = list(self._servers.values())
        for server in servers:
            server.stop()

    def __enter__(self) -> "ThreadedDriver":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


_future_ids = itertools.count(1)


class ProtocolFuture:
    """Result of :meth:`ThreadedDriver.spawn`."""

    def __init__(self, driver: ThreadedDriver, proto: Protocol[Any]) -> None:
        self._value: Any = None
        self._error: BaseException | None = None
        self._done = threading.Event()

        def _target() -> None:
            try:
                self._value = driver.run(proto)
            except BaseException as exc:  # noqa: BLE001 - carried to result()
                self._error = exc
            finally:
                self._done.set()

        self._thread = threading.Thread(
            target=_target, name=f"proto-{next(_future_ids)}", daemon=True
        )
        self._thread.start()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = 60.0) -> Any:
        if not self._done.wait(timeout):
            raise TimeoutError("protocol did not complete in time")
        if self._error is not None:
            raise self._error
        return self._value
