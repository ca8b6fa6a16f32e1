"""Asyncio client driver: one event loop multiplexing every TCP peer.

The driver built for *client scale* rather than actor placement: the
blocking driver (:class:`~repro.net.threaded.ThreadedDriver`, one
:class:`~repro.net.tcp.TcpPeer` per actor) dedicates a receiver thread per
connection and one caller thread per in-flight protocol (callers send
their own frames), which tops out around the paper's 64 clients; this
driver runs a single event-loop thread that multiplexes all peer sockets
and any number of client coroutines — 10k concurrent client programs are
ordinary (`benchmarks/test_many_clients.py` sweeps exactly that).

Nothing about the *protocol* changes, which is the point of the sans-io
layering:

- the wire format is the untouched :mod:`repro.net.codec` pickle frames,
  received through the same :class:`~repro.net.codec.MessageDecoder` the
  blocking driver and the agent use: an ``asyncio.BufferedProtocol``
  hands the decoder's own buffers to the transport's ``recv_into``, so no
  stream reader allocates or copies in between (partial-read reassembly
  is pinned by the codec fuzz test);
- batches execute exactly the groups :func:`~repro.net.sansio.plan_wire_groups`
  plans, and a lone caller's leave one frame each, bit-equal to every
  other driver (pinned by the conformance suite); groups that *concurrent*
  protocols submit to one peer during one loop iteration share one frame
  and one reply (the paper's §V.A aggregation across operations,
  :meth:`AioPeer.submit`), per-peer FIFO kept — sub-call counts stay equal,
  frames get fewer;
- failure semantics are :class:`~repro.net.tcp.TcpPeer`'s, because they
  are the same code: each :class:`AioPeer` is the asyncio I/O shell
  around one :class:`~repro.net.wire.Connection`, the sans-io core that
  owns req-ids, the pending registry, drain-as-``RemoteError``, the down
  reasons, fail-fast and the redial schedule; registration, health,
  destination resolution, the batch body and the caller-side counters
  are :class:`~repro.net.threaded.PeerRegistry`'s.

Concurrency model: **everything about a peer is event-loop-confined.**
Peer state (the core, the transport, the outbox) is touched only from the
loop thread, so there are no locks on the hot path. Each protocol is one
:class:`_Stepper`, the latch of every batch it yields and the one future
its waiter awaits: the callback that completes a batch's last group on
the loop thread (every remote reply does) also finishes that batch,
steps the protocol and submits its next one. The pieces that cross
threads — a group an in-parent actor's service thread completes, and the
connected/down flags read by the sync facade — use a lock-guarded wake
list (one ``call_soon_threadsafe`` per burst) and ``threading.Event``
mirrors respectively.

In-parent actors (``register``) keep a service thread each here
(:class:`_ServerThread`, an ``actor-*`` thread behind a FIFO inbox), the
one driver that has them: the loop must never block on an actor, so it
queues a group and goes on, where the blocking driver serves the group on
its calling thread. Each in-parent actor is still entered by one thread,
so the only serialization point in the data path stays the version
manager's service queue.

Two client surfaces share the driver:

- **async-native**: :meth:`AioDriver.drive` is an awaitable protocol
  executor (stepping by :func:`~repro.net.sansio.step`, as the blocking
  loop does); :class:`~repro.core.client.AsyncBlobClient` (re-exported
  here) is the blocking client with ``drive`` as its runner. Client
  coroutines must run on the driver's loop (``run_async`` / ``spawn``).
- **sync facade**: :meth:`AioDriver.run` and :meth:`AioDriver.spawn`
  match the :class:`~repro.net.threaded.ThreadedDriver` surface exactly
  — protocol in, result out, the same
  :class:`~repro.net.threaded.ProtocolFuture` handle — which is
  what lets the conformance suite replay its seeded workloads unchanged
  and lets :func:`repro.deploy.tcp.build_tcp` swap this driver in with
  ``client="aio"``.

Observability parity: ``transport_stats`` and ``caller_rtt`` are the
ones :class:`~repro.net.threaded.PeerRegistry` keeps for every real
driver (the metrics scrape reads them like any driver's), and traced
operations — either a thread-side
:func:`repro.obs.spans.trace_operation` around the sync facade or an
async-side :func:`trace_async_operation` (re-exported here) around
awaited ops — record rpc spans through the same
:func:`repro.obs.spans.record_group_spans` as the threaded drivers. The
trace context is a ``ContextVar``, and a task copies the context it is
created in, so a thread's open operation reaches the loop with the
protocol :meth:`AioDriver.run` hands over; :meth:`AioDriver.spawn`
starts its protocol in an empty context, so it stays untraced like a
``ThreadedDriver.spawn`` thread.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import contextvars
import queue
import threading
import time
from typing import Any, Callable, Mapping

from repro.errors import RemoteError, ReproError
from repro.net.address import Endpoint, format_actor, parse_endpoint
from repro.net.codec import (
    MessageDecoder,
    WireCodecError,
    decode_body,
    encode_parts,
)
from repro.net.node import HANDSHAKE_REQ_ID, HandshakeError, check_welcome
from repro.net.sansio import (
    Actor,
    Address,
    Protocol,
    WireGroup,
    serve_group,
    step,
)
from repro.net.threaded import PeerRegistry, ProtocolFuture
from repro.net.wire import (
    COALESCE_MAX_BYTES,
    COALESCE_MAX_CALLS,
    CTL_SHUTDOWN,
    Connection,
    control_frame,
    control_result,
    decode_reply,
    rpc_envelope,
    tune_socket,
    why_lost,
)
from repro.obs.spans import trace_async_operation
from repro.obs.telemetry import telemetry_report

__all__ = [
    "AioDriver",
    "AioPeer",
    "AsyncBlobClient",
    "trace_async_operation",
]


def __getattr__(name: str) -> Any:
    # Lazy re-export of the async client surface: repro.core.client sits
    # above the net layer (it imports the protocol stack), so importing
    # it at module top would cycle through package init.
    if name == "AsyncBlobClient":
        from repro.core.client import AsyncBlobClient

        return AsyncBlobClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_SHUTDOWN = object()


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
            calls, slot, latch, gen, trace, t_enq = item
            # One inbox item == one wire RPC carrying aggregated sub-calls.
            self.served_rpcs += 1
            self.served_calls += len(calls)
            slot[0] = serve_group(
                self.actor, calls, trace, time.perf_counter_ns() - t_enq, 0
            )
            latch.group_done(gen)

    def submit(self, group: Any, slot: list, latch: Any, gen: int, trace: Any) -> None:
        """Queue one wire group (a peer's contract: values in ``slot[0]``)."""
        self.inbox.put((group.calls, slot, latch, gen, trace, time.perf_counter_ns()))

    @staticmethod
    def reply_values(slot: list, n_calls: int) -> list:
        return slot[0]

    def report(self) -> dict[str, Any]:
        """The ``telemetry`` report: wire counters + service-time snapshot,
        the shape a node agent's actor answers over the wire (read off
        the service queue, so a scrape never perturbs the counters)."""
        return telemetry_report(self.actor, self.served_rpcs, self.served_calls)

    def stop(self) -> None:
        self.inbox.put(_SHUTDOWN)
        self._thread.join(timeout=10)


class _Stepper:
    """One protocol on the loop, and the latch of each batch it yields.

    Targets complete groups through the contract every latch keeps
    (``begin`` arms a batch, ``group_done(gen)`` once per wire group; a
    protocol has one batch in flight at a time, so generations are moot).
    Completions on the loop thread (every remote reply, every fail-fast
    submit) count down here; one from an in-parent actor's service thread
    crosses over first (:meth:`AioDriver._cross`). When the batch's last
    group lands, the stepper is handed to :meth:`AioDriver._resume`, which
    finishes the batch, steps the protocol and submits its next batch in
    that same callback, inside the context ``drive`` was entered with — no
    future, no task wake-up per batch. ``future`` settles once, with the
    protocol's value or error; a batch released after the waiter was
    cancelled steps nothing.
    """

    __slots__ = ("_driver", "_proto", "_context", "future", "_pending", "_sent")

    def __init__(self, driver: "AioDriver", proto: Protocol[Any]) -> None:
        self._driver = driver
        self._proto: Protocol[Any] | None = proto
        self._context = contextvars.copy_context()
        self.future = driver.loop.create_future()
        self._pending = 0
        self._sent: tuple | None = None  # the batch in flight

    def begin(self, n_groups: int) -> int:
        self._pending = n_groups
        return 0

    def group_done(self, gen: int) -> None:
        if threading.get_ident() == self._driver._owner:
            self._count_down()
        else:
            self._driver._cross(self)

    def _count_down(self) -> None:
        self._pending -= 1
        if not self._pending:
            self._driver._resume(self)

    def _step(self) -> None:
        """Finish the released batch (none before the first step) — a
        ``ReproError`` is thrown in at the ``yield`` —, run the protocol
        to its next batch and submit it, or settle ``future``
        when the protocol returns or fails."""
        if self.future.done():
            return  # the waiter was cancelled: nobody wants the results
        driver = self._driver
        sent, self._sent = self._sent, None
        try:
            if sent is None:
                batch = step(self._proto)
            else:
                try:
                    results = driver._finish_batch(sent, 1)
                except ReproError as exc:
                    batch = step(self._proto, error=exc)
                else:
                    batch = step(self._proto, results)
            self._sent = driver._submit_batch(batch.calls, self)
        except StopIteration as stop:
            self.end()
            self.future.set_result(stop.value)
        except BaseException as exc:  # noqa: BLE001 - carried to the waiter
            self.end()
            self.future.set_exception(exc)

    def end(self) -> None:
        """The protocol is over: close its generator (a no-op once it
        returned or failed) and stop counting it as driven."""
        if self._proto is not None:
            proto, self._proto = self._proto, None
            self._driver._driving -= 1
            proto.close()


class _WireProtocol(asyncio.BufferedProtocol):
    """Lands a connection's bytes straight in a
    :class:`~repro.net.codec.MessageDecoder`'s buffers (the transport
    ``recv_into``s whatever ``get_buffer`` returns) and hands each
    completed ``(req_id, body)`` to ``on_message``. ``lost`` resolves,
    once, with why the connection ended."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        on_message: Callable[[int, Any], None],
    ) -> None:
        self._decoder = MessageDecoder()
        self._on_message = on_message
        self.transport: asyncio.Transport | None = None
        self.lost: asyncio.Future = loop.create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._decoder.get_buffer()

    def buffer_updated(self, nbytes: int) -> None:
        try:
            for req_id, body in self._decoder.buffer_updated(nbytes):
                self._on_message(req_id, body)
        except WireCodecError as exc:
            self._end(why_lost(exc))
            self.transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        self._end(why_lost())

    def _end(self, why: str) -> None:
        if not self.lost.done():
            self.lost.set_result(why)


class AioPeer:
    """One remote actor on the event loop: an asyncio transport when
    connected, a fast-failing stub plus a redialing connector task when
    not. All state is loop-confined except the ``threading.Event``
    connection mirror the sync facade waits on.
    """

    def __init__(
        self,
        driver: "AioDriver",
        address: Address,
        endpoint: Endpoint,
        *,
        connect_timeout: float = 5.0,
    ) -> None:
        self.address = address
        self.actor_name = format_actor(address)
        self.endpoint = parse_endpoint(endpoint)
        self._driver = driver
        self._loop = loop = driver.loop
        self._connect_timeout = connect_timeout
        #: pending entries are ("rpc", the frame's groups) | ("ctl", future)
        self._conn = Connection(f"{self.actor_name}@{self.endpoint}")
        self._transport: asyncio.Transport | None = None  # set while up
        self._closed = False
        #: groups gathered for the next frame, in submission order, and
        #: their sub-call / declared request byte totals; a group is one
        #: submit's ``(wire group, trace, slot, latch, gen)``
        self._outbox: list[tuple] = []
        self._outbox_calls = 0
        self._outbox_bytes = 0
        self._connected_sync = threading.Event()  # cross-thread mirror
        self._connector = loop.create_task(
            self._connect_loop(), name=f"dial-{self.actor_name}"
        )

    # -- health ----------------------------------------------------------

    @property
    def connected(self) -> bool:
        """True while a live connection is installed (any thread)."""
        return self._connected_sync.is_set()

    @property
    def down_reason(self) -> str | None:
        """Why the peer is unreachable right now (None when connected)."""
        return self._conn.down_reason

    def wait_connected(self, timeout: float | None = None) -> bool:
        """Block the *calling thread* until connected (sync facade)."""
        return self._connected_sync.wait(timeout)

    # -- connector task --------------------------------------------------

    async def _connect_loop(self) -> None:
        """Dial → handshake → wait for the connection to die; then redial.
        The connector is the only task that installs transports, and it
        only moves on once the installed one was taken down — so at most
        one live connection exists at a time.
        """
        while not self._closed:
            try:
                proto = await self._dial()
            except (OSError, ReproError) as exc:
                await asyncio.sleep(self._conn.dial_failed(exc))
                continue
            if self._closed:
                proto.transport.close()
                return
            self._transport = proto.transport
            self._conn.connected()
            self._connected_sync.set()
            self._take_down(self._conn.lost, await proto.lost)

    async def _dial(self) -> _WireProtocol:
        """Async twin of :func:`repro.net.node.connect_and_handshake`.

        The protocol that carried the handshake keeps serving the
        connection: replies pipelined behind the welcome may already sit
        (whole or partial) in its decoder, so it is resumed, never
        replaced — the same invariant the agent honors on its side.
        """
        welcome: asyncio.Future = self._loop.create_future()

        def on_message(req_id: int, body: Any) -> None:
            if not welcome.done():
                welcome.set_result(body)
                return
            entry = self._conn.pop(req_id)
            if entry is not None:
                self._complete(entry, body)

        def on_lost(lost: asyncio.Future) -> None:
            if not welcome.done():
                welcome.set_exception(
                    HandshakeError(
                        f"agent at {self.endpoint} closed the connection "
                        "mid-handshake"
                    )
                )

        transport, proto = await asyncio.wait_for(
            self._loop.create_connection(
                lambda: _WireProtocol(self._loop, on_message),
                self.endpoint.host,
                self.endpoint.port,
            ),
            self._connect_timeout,
        )
        try:
            proto.lost.add_done_callback(on_lost)
            sock = transport.get_extra_info("socket")
            if sock is not None:
                tune_socket(sock)
            transport.writelines(
                encode_parts(HANDSHAKE_REQ_ID, ("hello", self.actor_name))
            )
            check_welcome(
                decode_body(await asyncio.wait_for(welcome, self._connect_timeout)),
                self.endpoint,
                self.actor_name,
            )
            return proto
        except BaseException:
            transport.close()
            raise

    def _complete(self, entry: tuple, body: Any) -> None:
        if entry[0] == "rpc":
            self._deliver(entry[1], body)
        elif not entry[1].done():  # a control's future: not timed out
            entry[1].set_result(body)

    def _deliver(self, groups: list[tuple], body: Any) -> None:
        """Hand one frame's outcome to its groups, in submission order:
        the reply is decoded once, here, and each slot gets its own slice
        of the result list — or, when the frame failed as a whole, that
        error for every sub-call, as in a frame of its own."""
        n_calls = sum(len(group[0].calls) for group in groups)
        result = decode_reply(body, n_calls, self.actor_name)
        failed = isinstance(result, RemoteError)
        if (
            failed
            and len(groups) > 1
            and result.error_type in ("WireCodecError", "WireProtocolError")
            # ...said by the peer itself: a reply this side could not decode
            # (``original`` is set) or found misshapen (it decodes to
            # something else) is an error made here, about calls that ran
            and result.original is None
            and isinstance(decode_body(body), RemoteError)
        ):
            # The peer refused to decode the frame: nothing ran, and one
            # op's bad request must fail alone, so each group goes again by
            # itself (once: a lone group's refusal is final). Nothing else
            # is ever re-sent — it may have run.
            for group in groups:
                self._send([group])
            return
        done = 0
        for group, _, slot, latch, gen in groups:
            n = len(group.calls)
            slot[0] = [result] * n if failed else result[done : done + n]
            done += n
            latch.group_done(gen)

    @staticmethod
    def reply_values(slot: list, n_calls: int) -> list:
        """A completed group's values: the slice :meth:`_deliver` decoded."""
        return slot[0]

    def _take_down(self, event: Callable[..., list | None], *args: Any) -> None:
        """Take the connection down with the core's ``event`` (loop
        thread) and complete what it drained: every frame in flight, then
        every group still in the outbox. Of racing death signals (EOF,
        send failure, drop, close) the core lets only the first drain."""
        drained = event(*args)
        if drained is None:
            return
        self._connected_sync.clear()
        transport, self._transport = self._transport, None
        error = self._conn.unavailable()
        for entry in drained:
            self._complete(entry, error)
        self._flush()  # the unsent outbox fails fast: the transport is gone
        if transport is not None:
            transport.close()

    # -- RPC surface (loop thread only) ----------------------------------

    def submit(
        self,
        group: WireGroup,
        slot: list,
        latch: _Stepper,
        gen: int,
        trace: Any = None,
    ) -> None:
        """Send one wire group; the receive loop completes the latch with
        the group's result list in ``slot[0]``.

        Never blocks and never awaits. While other protocols are in flight
        on the driver the group joins the outbox, and what gathers there
        during this loop iteration leaves as one frame (the first append
        schedules the flush; reaching a ``COALESCE_MAX_*`` bound flushes at
        once). The only protocol the driver is driving could be joined by
        nothing, so it is sent at once: a lone caller frames exactly like
        every other driver. Fails fast, typed, while the peer is down.
        """
        entry = (group, trace, slot, latch, gen)
        if self._transport is None or not (
            self._outbox or self._driver._driving > 1
        ):
            self._send([entry])
            return
        n_calls = len(group.calls)
        nbytes = 0
        for call in group.calls:
            nbytes += call.request_bytes or 0
        if self._outbox and (
            self._outbox_calls + n_calls > COALESCE_MAX_CALLS
            or self._outbox_bytes + nbytes > COALESCE_MAX_BYTES
        ):
            self._flush()  # a group is never split: it opens the next frame
        if not self._outbox:
            self._loop.call_soon(self._flush)
        self._outbox.append(entry)
        self._outbox_calls += n_calls
        self._outbox_bytes += nbytes
        if (
            self._outbox_calls >= COALESCE_MAX_CALLS
            or self._outbox_bytes >= COALESCE_MAX_BYTES
        ):
            self._flush()

    def _flush(self) -> None:
        groups = self._outbox
        if groups:
            self._outbox = []
            self._outbox_calls = self._outbox_bytes = 0
            self._send(groups)

    def _send(self, groups: list[tuple]) -> None:
        """The one send path: ``groups`` leave as one frame under one
        ``req_id``, sub-calls concatenated in submission order, straight
        into the transport's write buffer (never stuck on a busy peer's
        socket backpressure)."""
        try:
            req_id = self._conn.open(("rpc", groups))
        except RemoteError as error:
            self._deliver(groups, error)
            return
        try:
            parts = encode_parts(req_id, rpc_envelope(groups))
        except WireCodecError as exc:
            # the *request* is unpicklable: that call is broken, not the
            # peer — and not its neighbours, which go by themselves
            self._conn.pop(req_id)
            if len(groups) > 1:
                for group in groups:
                    self._send([group])
            else:
                self._deliver(groups, RemoteError.wrap(exc))
            return
        try:
            self._transport.writelines(parts)
        except Exception as exc:  # transport already torn down under us
            self._take_down(self._conn.send_failed, exc)

    async def control(self, kind: str, timeout: float = 10.0) -> Any:
        """Round-trip one control message; raises on a down connection."""
        self._flush()  # per-connection FIFO: never overtake submitted work
        fut: asyncio.Future = self._loop.create_future()
        req_id = self._conn.open(("ctl", fut))
        self._transport.writelines(control_frame(req_id, kind))
        try:
            body = await asyncio.wait_for(fut, timeout)
        except (asyncio.TimeoutError, TimeoutError):
            raise self._conn.timed_out(req_id, kind, timeout) from None
        return control_result(body)

    # -- lifecycle (loop thread) -----------------------------------------

    def stop(self, send_shutdown: bool = True, timeout: float = 10.0) -> None:
        """Stop the peer from any thread *except* the loop thread — the
        blocking facade over :meth:`stop_async` (drain code calls
        ``peer.stop()`` on whichever driver it was handed)."""
        asyncio.run_coroutine_threadsafe(
            self.stop_async(send_shutdown=send_shutdown, timeout=timeout),
            self._loop,
        ).result(timeout + 5.0)

    async def stop_async(
        self, send_shutdown: bool = True, timeout: float = 10.0
    ) -> None:
        """Orderly shutdown: tell the remote actor to stop, then hang up
        (``send_shutdown=False`` only hangs up — the teardown against
        operator-run agents that must keep serving)."""
        if self._closed:
            return
        self._closed = True
        if send_shutdown and self._transport is not None:
            try:
                await self.control(CTL_SHUTDOWN, timeout=timeout)
            except (RemoteError, TimeoutError):
                pass  # peer already dead or wedged; just hang up
        self._take_down(self._conn.stopped, send_shutdown)
        self._connector.cancel()
        try:
            await self._connector
        except asyncio.CancelledError:
            pass

    def drop(self) -> None:
        """Sever the current connection without closing the peer (failure
        injection: the connector redials). Any thread."""
        self._loop.call_soon_threadsafe(self._take_down, self._conn.dropped)


class AioDriver(PeerRegistry):
    """Drives protocols against TCP-remote and in-parent actors from one
    event loop.

    ``register`` places an actor on an in-parent service thread (the
    threaded driver's semantics — deployments keep the vm and pm there
    under ``control_plane="parent"``); ``register_remote`` binds an
    address to a node-agent endpoint served by an :class:`AioPeer`. The
    loop lives on a dedicated daemon thread the driver owns, so the sync
    facade (``run``/``spawn``/``call``/stats) works from any thread while
    async-native clients run coroutines on the loop via ``run_async``.
    """

    def __init__(
        self,
        registry: Mapping[Address, Actor] | None = None,
        *,
        connect_timeout: float = 5.0,
    ) -> None:
        self._driving = 0  # protocols drive() is executing (peers read it)
        #: released steppers the running :meth:`_resume` has yet to step
        self._runnable: collections.deque = collections.deque()
        self._stepping = False
        #: service-thread completions waiting for the loop, and its lock
        self._crossed: list[_Stepper] = []
        self._cross_lock = threading.Lock()
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop_main, name="aio-driver", daemon=True
        )
        self._thread.start()
        self._owner = self._thread.ident
        super().__init__(registry, connect_timeout=connect_timeout)

    def _loop_main(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_forever()
        finally:
            # Backstop against orphans: close() already stopped every
            # peer, so anything still pending here is cancelled, awaited
            # and only then is the loop closed — no "Task was destroyed
            # but it is pending!" at interpreter exit.
            tasks = asyncio.all_tasks(self.loop)
            for task in tasks:
                task.cancel()
            if tasks:
                self.loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            self.loop.run_until_complete(self.loop.shutdown_asyncgens())
            self.loop.close()

    def set_debug(self, flag: bool = True) -> None:
        """Toggle asyncio debug mode on the driver's loop (slow-callback
        and never-awaited diagnostics; the stress suite turns it on)."""
        self.loop.call_soon_threadsafe(self.loop.set_debug, flag)

    def run_async(self, coro: Any, timeout: float | None = None) -> Any:
        """Run a coroutine on the driver's loop; block the calling thread
        for its result. The bridge async-native clients use to enter the
        loop (e.g. ``driver.run_async(main())`` gathering 10k client
        coroutines)."""
        if threading.current_thread() is self._thread:
            raise RuntimeError(
                "run_async called from the event-loop thread (await instead)"
            )
        return self._submit(coro).result(timeout)

    def _submit(
        self, coro: Any, context: contextvars.Context | None = None
    ) -> concurrent.futures.Future:
        """Hand ``coro`` to the loop, in ``context`` if given (else the
        caller's): the one entry ``run_async`` and ``spawn`` share. A
        closed driver, or a loop that closes under the call, refuses with
        ``RuntimeError("driver is closed")`` and closes the coroutine, so
        none is left never-awaited."""
        if not self._closed:
            try:
                if context is None:
                    return asyncio.run_coroutine_threadsafe(coro, self.loop)
                return context.run(
                    asyncio.run_coroutine_threadsafe, coro, self.loop
                )
            except RuntimeError:  # the loop closed under the call
                pass
        coro.close()
        raise RuntimeError("driver is closed")

    @staticmethod
    def _new_server(address: Address, actor: Actor) -> _ServerThread:
        return _ServerThread(address, actor)

    def _new_peer(self, address: Address, endpoint: Endpoint) -> AioPeer:
        async def make() -> AioPeer:  # peers are born on the loop
            return AioPeer(
                self, address, endpoint, connect_timeout=self._connect_timeout
            )

        return self.run_async(make())

    def _control(self, peer: AioPeer, kind: str) -> Any:
        return self.run_async(peer.control(kind))

    # -- execution -------------------------------------------------------

    def run(self, proto: Protocol[Any]) -> Any:
        """Execute a protocol from any thread (the sync facade); the
        calling thread's open operation, if any, traces it."""
        return self.run_async(self.drive(proto))

    def spawn(self, proto: Protocol[Any]) -> ProtocolFuture:
        """Run a protocol concurrently on the loop; returns a waitable
        future (thread-parity with ``ThreadedDriver.spawn``: the spawned
        protocol does not inherit the spawning thread's trace)."""
        # an empty context: the spawner's open operation does not follow
        return ProtocolFuture(
            self._submit(self.drive(proto), contextvars.Context())
        )

    async def drive(self, proto: Protocol[Any]) -> Any:
        """Execute a protocol as a coroutine on the driver's loop: the
        awaitable core every surface funnels into, traced by the
        operation open in the task's context. The batch body is every
        real driver's (PeerRegistry); how groups share frames is the
        peer's. One future per protocol: its batches are stepped from
        the completions that release them (:class:`_Stepper`); a
        cancelled waiter's generator is closed."""
        if asyncio.get_running_loop() is not self.loop:
            raise RuntimeError(
                "protocol coroutines must run on the driver's event loop "
                "(enter it via AioDriver.run_async or AioDriver.spawn)"
            )
        stepper = _Stepper(self, proto)
        self._driving += 1
        try:
            self._resume(stepper)
            return await stepper.future
        finally:
            stepper.end()

    def _resume(self, stepper: _Stepper) -> None:
        """Step ``stepper``'s protocol (loop thread), as a trampoline: a
        batch released while a step runs — a group completed inside
        ``_submit_batch``, or another protocol's in a frame a submit
        flushed — is stepped after it, never inside it, so no chain of
        synchronous completions grows the stack."""
        runnable = self._runnable
        runnable.append(stepper)
        if self._stepping:
            return
        self._stepping = True
        try:
            while runnable:
                stepper = runnable.popleft()
                stepper._context.run(stepper._step)
        finally:
            self._stepping = False

    def _cross(self, stepper: _Stepper) -> None:
        """A group completed on a service thread: queue it for the loop,
        which one ``call_soon_threadsafe`` per burst wakes to count the
        queue down. Dropped once the loop is closed: nobody waits."""
        with self._cross_lock:
            crossed = self._crossed
            crossed.append(stepper)
            if len(crossed) > 1:
                return  # the wake-up is already on its way
        try:
            self.loop.call_soon_threadsafe(self._count_crossed)
        except RuntimeError:  # the loop is closed
            pass

    def _count_crossed(self) -> None:
        with self._cross_lock:
            crossed, self._crossed = self._crossed, []
        for stepper in crossed:
            stepper._count_down()

    # -- lifecycle -------------------------------------------------------

    def _stop_peers(self, peers: list[AioPeer], send_shutdown: bool) -> None:
        """Hang up every peer on the loop, then stop the loop."""

        async def stop_all() -> None:
            await asyncio.gather(
                *(p.stop_async(send_shutdown=send_shutdown) for p in peers),
                return_exceptions=True,
            )

        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(stop_all(), self.loop).result(60)
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=10)
