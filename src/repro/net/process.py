"""Multi-process driver: one OS process per actor, pickle frames over sockets.

This is the transport that finally makes real-concurrency throughput
numbers *meaningful*: the threaded driver demonstrates the paper's
concurrency semantics but every actor shares the client interpreter's GIL,
so its wall-clock numbers measure lock contention, not the system. Here
each data/metadata provider actor runs in its own spawned worker process —
the paper's one-process-per-node deployment for real — and RPCs cross the
boundary as length-prefixed pickle messages (:mod:`repro.net.codec`) over
a ``socketpair`` per worker.

Framing is *identical* to the threaded and simulated drivers: batches
execute exactly the wire groups planned by
:func:`repro.net.sansio.plan_wire_groups`, one message per destination per
batch carrying all of that destination's sub-calls, and at most one
completion wakeup per batch (the caller-side latch is shared with the
threaded driver). The cross-driver conformance suite asserts wire-RPC and
sub-call counts match the threaded/simulated/TCP transports bit for bit.

The caller-side connection machinery — pending-request registry, sender
thread per peer, header-only reply routing, drain-as-``RemoteError`` on
peer death — is :class:`repro.net.wire.RpcChannel`, shared verbatim with
the TCP driver; what is specific here is the *connection kind* (an
inherited ``socketpair``) and the worker lifecycle:

- with the ``forkserver`` start method the package is preloaded into the
  fork server, so workers fork with warm modules instead of each paying
  a full interpreter boot on the deployment's first RPC;
- a worker that dies — crash, kill, codec corruption — completes every
  in-flight and future call against it with a
  :class:`~repro.errors.RemoteError`, so protocols fail over across
  replicas after a worker loss exactly as they do after an injected
  actor crash; nothing blocks on a corpse.

Topology: actors that *are* the serialization point by design — the
version manager and provider manager — stay in the parent process on
dedicated service threads (their RPCs are tiny; shipping them out of
process buys no parallelism and costs a round trip), while the
data/metadata providers, where the paper's parallelism lives, each get a
worker process. Any actor can be placed either way via
:meth:`ProcessDriver.register` (in-parent service thread) or
:meth:`ProcessDriver.register_process` (worker process).
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import socket
import threading
from typing import Any, Callable, Mapping

from repro.errors import RemoteError
from repro.net.codec import (
    MessageDecoder,
    WireCodecError,
    encode_parts,
    send_parts,
)
from repro.net.sansio import Actor, Address
from repro.net.wire import (
    CTL_SHUTDOWN,
    CTL_STATS,
    CTL_TELEMETRY,
    RemoteActorDriver,
    RpcChannel,
    decode_request,
    encode_reply,
    serve_rpc,
    tune_socket,
)
from repro.obs.telemetry import telemetry_of

#: environment override for the multiprocessing start method
START_METHOD_ENV = "REPRO_MP_START"


def _default_start_method() -> str:
    """``forkserver`` where available (fast forks, no parent threads
    inherited), else ``spawn``; never bare ``fork`` — the parent runs
    service and receiver threads, which fork does not survive safely."""
    override = os.environ.get(START_METHOD_ENV)
    if override:
        return override
    if "forkserver" in multiprocessing.get_all_start_methods():
        return "forkserver"
    return "spawn"


def _probe_burn(n: int) -> int:
    """Pure-Python CPU burn for :func:`parallel_speedup_probe`."""
    acc = 0
    for i in range(n):
        acc = (acc + i * i) & 0xFFFFFFFF
    return acc


def _probe_worker(inbox, outbox) -> None:
    while True:
        n = inbox.get()
        if n is None:
            return
        outbox.put(_probe_burn(n))


def parallel_speedup_probe(n: int = 3_000_000) -> float:
    """Measured speedup of two worker processes over one thread on pure
    CPU work: the host's *effective* parallel headroom right now.

    ``os.cpu_count()`` reports installed cores; on shared/virtualized
    hosts what matters is how many are actually schedulable this minute.
    The transport-scaling benchmark uses this to decide whether the
    "process beats threaded on a multi-core host" assertion's premise —
    a multi-core host — is even satisfied. Returns ~1.0 on an effectively
    single-core host, ~2.0 on two free cores.

    The workers are persistent (started, warmed, *then* timed), so
    process start-up cost never pollutes the measurement.
    """
    import time

    ctx = multiprocessing.get_context(_default_start_method())
    inbox = ctx.SimpleQueue()
    outbox = ctx.SimpleQueue()
    procs = [
        ctx.Process(target=_probe_worker, args=(inbox, outbox), daemon=True)
        for _ in range(2)
    ]
    try:
        for p in procs:
            p.start()
        for _ in procs:  # handshake: both workers booted and responsive
            inbox.put(1000)
        for _ in procs:
            outbox.get()
        start = time.perf_counter()
        _probe_burn(n)
        _probe_burn(n)
        serial = time.perf_counter() - start
        start = time.perf_counter()
        inbox.put(n)
        inbox.put(n)
        outbox.get()
        outbox.get()
        parallel = time.perf_counter() - start
        return serial / parallel if parallel > 0 else 1.0
    finally:
        for _ in procs:
            inbox.put(None)
        for p in procs:
            p.join(timeout=10)
            if p.is_alive():  # pragma: no cover - stuck probe
                p.kill()


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _worker_main(
    sock: socket.socket, address: Address, factory: Callable, args: tuple, kwargs: dict
) -> None:
    """Service loop of one actor process.

    Builds the actor *in the worker* (constructor spec travels, state does
    not) and serves messages FIFO: one request message = one wire RPC
    carrying aggregated sub-calls, mirroring the threaded driver's inbox
    items.

    A pump thread keeps the socket drained while the actor computes, so a
    caller streaming the next batch never blocks on a worker that is busy
    serving the previous one — the same decoupling the threaded driver
    gets for free from its unbounded inbox queue.
    """
    actor: Actor = factory(*args, **kwargs)
    served_rpcs = 0
    served_calls = 0
    inbox: queue.SimpleQueue = queue.SimpleQueue()

    def pump() -> None:
        decoder = MessageDecoder()
        try:
            while True:
                nbytes = sock.recv_into(decoder.get_buffer())
                if not nbytes:
                    break
                for message in decoder.buffer_updated(nbytes):
                    inbox.put(message)
        except (OSError, WireCodecError):
            pass  # parent gone, or a corrupt stream: stop serving either way
        inbox.put(None)

    threading.Thread(target=pump, name="wire-pump", daemon=True).start()

    def reply(req_id: int, value: Any) -> None:
        send_parts(sock, encode_parts(req_id, value))

    try:
        while True:
            message = inbox.get()
            if message is None:
                return  # parent went away: nothing left to serve
            req_id, body = message
            kind, payload, trace = decode_request(body)
            if kind is None:
                # well framed but undecodable or the wrong shape: fail
                # that request typed, keep serving
                reply(req_id, payload)
            elif kind == "rpc":
                served_rpcs += 1
                served_calls += len(payload)
                # queue wait is not measurable here (the pump thread
                # hands over unstamped messages)
                results = serve_rpc(actor, address, payload, trace, 0, len(body))
                send_parts(sock, encode_reply(req_id, results))
            elif kind == CTL_STATS:
                reply(req_id, {"wire_rpcs": served_rpcs, "sub_calls": served_calls})
            elif kind == CTL_TELEMETRY:
                # scrape control: not counted in served_rpcs/served_calls
                reply(
                    req_id,
                    {
                        "wire_rpcs": served_rpcs,
                        "sub_calls": served_calls,
                        "telemetry": telemetry_of(actor).snapshot(),
                    },
                )
            elif kind == CTL_SHUTDOWN:
                reply(req_id, True)
                return
            else:
                reply(
                    req_id,
                    RemoteError("UnknownControl", f"bad message kind {kind!r}"),
                )
    finally:
        sock.close()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side endpoint of one worker process: an :class:`RpcChannel`
    over the inherited socketpair, plus the process lifecycle. Death is
    terminal — unlike a TCP peer, a killed worker process never comes
    back, so there is no reconnect path."""

    def __init__(
        self, ctx, address: Address, factory: Callable, args: tuple, kwargs: dict
    ) -> None:
        self.address = address
        parent_sock, child_sock = socket.socketpair()
        tune_socket(parent_sock)
        tune_socket(child_sock)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_sock, address, factory, args, kwargs),
            name=f"actor-{address}",
            daemon=True,
        )
        self.process.start()
        child_sock.close()
        # No on_down callback: only lifecycle methods, on the caller's
        # thread, may poll the process (forkserver's Popen.poll reads the
        # status pipe; a concurrent poll from the channel's receiver
        # thread would split that read and lose the exit code as a bogus
        # 255).
        self.channel = RpcChannel(
            parent_sock, f"worker {address!r}", error_label="WorkerUnavailable"
        )

    @property
    def dead_reason(self) -> str | None:
        return self.channel.down_reason

    def submit(self, group, slot, latch, gen, trace=None) -> None:
        self.channel.submit(group, slot, latch, gen, trace)

    def control(self, kind: str, timeout: float = 10.0) -> Any:
        return self.channel.control(kind, timeout=timeout)

    # -- lifecycle -------------------------------------------------------

    def stop(self, timeout: float = 10.0) -> None:
        """Orderly shutdown; escalates to terminate/kill on a hung worker."""
        try:
            self.channel.control(CTL_SHUTDOWN, timeout=timeout)
        except (RemoteError, TimeoutError):
            pass  # already dead or hung; escalate below
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(5)
        self.channel.close("worker stopped by driver close")

    def kill(self) -> None:
        """Hard-kill the worker (failure injection for tests/benches)."""
        self.process.kill()
        self.process.join(timeout=10)


class ProcessDriver(RemoteActorDriver):
    """Drives protocols against a mix of worker-process and in-parent actors.

    Extends :class:`~repro.net.wire.RemoteActorDriver`: ``register``
    places an actor on an in-parent service thread (exactly the threaded
    driver's semantics), ``register_process`` spawns it into its own OS
    process. The protocol loop, batch latch, ``spawn``/futures and
    transport counters are shared, so ``transport_stats`` reads
    identically across all the real drivers.
    """

    def __init__(
        self,
        registry: Mapping[Address, Actor] | None = None,
        *,
        mp_context: str | None = None,
    ) -> None:
        super().__init__(registry)
        method = mp_context or _default_start_method()
        self._ctx = multiprocessing.get_context(method)
        if method == "forkserver":
            # Preload the package into the fork server so every worker
            # forks with warm modules. Without this, N workers each
            # re-import the world concurrently and the first RPC of a
            # fresh deployment stalls for seconds behind their boot.
            # (No-op if the fork server is already running.)
            try:
                self._ctx.set_forkserver_preload(["repro.deploy.process"])
            except Exception:  # pragma: no cover - best-effort fast path
                pass
        self.start_method = method

    # -- registration ----------------------------------------------------

    def register_process(
        self, address: Address, factory: Callable[..., Actor], *args: Any, **kwargs: Any
    ) -> None:
        """Spawn ``factory(*args, **kwargs)`` as the actor at ``address``.

        The *constructor spec* crosses the boundary, not a built actor:
        worker state lives exclusively in the worker from the first
        instruction, so there is no window where parent and child both
        hold a copy.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("driver is closed")
            if address in self._servers or address in self._remotes:
                raise ValueError(f"address {address!r} already registered")
            self._remotes[address] = _WorkerHandle(
                self._ctx, address, factory, args, kwargs
            )

    def worker_addresses(self) -> list[Address]:
        return self.remote_addresses()

    # -- introspection ---------------------------------------------------

    def worker_pids(self) -> dict[Address, int | None]:
        with self._lock:
            return {a: w.process.pid for a, w in self._remotes.items()}

    # -- failure injection ----------------------------------------------

    def kill_worker(self, address: Address) -> None:
        """SIGKILL a worker process; in-flight and future calls against it
        complete with ``RemoteError`` (the fail-over path under test)."""
        with self._lock:
            worker = self._remotes[address]
        worker.kill()

    # -- lifecycle -------------------------------------------------------

    def worker_exitcodes(self) -> dict[Address, int | None]:
        """Exit codes after :meth:`close` (0 = clean shutdown)."""
        with self._lock:
            return {a: w.process.exitcode for a, w in self._remotes.items()}
