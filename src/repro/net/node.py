"""Node agent: hosts actors behind a TCP listener.

This is the server half of the cluster subsystem — the piece that runs on
every cluster host. One agent process listens on one ``host:port``
endpoint and hosts any number of actors: the paper's layout colocates one
data and one metadata provider per storage node and gives the version
manager (``vm``) and provider manager (``pm``) dedicated machines — all
four actor kinds are hosted by this same agent. Clients are
:class:`~repro.net.tcp.TcpPeer` (a
:class:`~repro.net.threaded.ThreadedDriver`'s) and
:class:`~repro.net.aio.AioPeer` (an :class:`~repro.net.aio.AioDriver`'s);
the wire protocol is :mod:`repro.net.codec` messages carrying
``("rpc", sub_calls)`` and ``telemetry``/``shutdown`` controls
(grammar and serving helpers in :mod:`repro.net.wire`; the one place
that answers them is :meth:`_ActorService.serve`), prefixed by one
handshake.

Invariants this module guarantees (pinned by ``tests/test_tcp_transport.py``
and ``tests/test_tcp_control_plane.py``):

- **hello/welcome binding**: the first message on every fresh connection
  is ``("hello", actor_name)`` naming the one actor the connection will
  serve (``"data/3"`` — grammar in :mod:`repro.net.address`); the agent
  answers ``("welcome", actor_name)`` and binds the connection to that
  actor, or ``("reject", reason)`` and closes it. A client may pipeline
  RPCs behind its hello without waiting for the welcome: handshake and
  service share one decoder, so buffered complete messages and even a
  partial frame straddling the handshake boundary are honored, never
  dropped.
- **actor confinement**: every hosted actor has one lock, and a request
  is served on the pump thread of the connection it arrived on, with no
  hand-off: the pump decodes it, serves it and encodes the reply under
  the actor's lock, then sends the reply on that same connection. Actor
  code therefore runs one call at a time and needs no locking of its own,
  however many connections (a live driver plus a reconnecting one, say)
  feed it; an actor wedged in a call stalls only the connections bound
  to it. Server spans report as ``queue_ns`` the time from the read that
  completed a request to holding the lock, less the request's own
  decode: serving the requests ahead of it in that read, then the lock
  wait. There is no inbox: while a pump serves, it does not read, so TCP
  flow control bounds what a client can queue at an agent — and time
  spent as bytes not yet read from the socket is in no span.
- **provider registration at agent start**: given the pm's endpoint, an
  agent hosting data providers registers each of them with the provider
  manager the moment it starts serving (the paper's "each provider
  registers on entering the system", §III.A), retrying with backoff
  until the pm is reachable — so a restarted data agent re-enters the
  allocation pool without operator action.
- **clean exit**: an agent shuts down when every actor it hosts has
  received the ``shutdown`` control — the driver's orderly close — at
  which point :meth:`NodeAgent.serve_forever` returns and the CLI
  wrapper (:mod:`repro.tools.node`) exits 0.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Iterable, Mapping

from repro.errors import ConfigError, RemoteError, ReproError
from repro.net.address import Endpoint, format_actor, parse_actor, parse_endpoint
from repro.net.codec import (
    MessageDecoder,
    WireCodecError,
    decode_body,
    encode_message,
    encode_parts,
    send_parts,
)
from repro.net.sansio import Actor, Address, Call, WireGroup
from repro.net.wire import (
    CTL_SHUTDOWN,
    CTL_TELEMETRY,
    HANDSHAKE_REQ_ID,
    backoff,
    decode_request,
    encode_reply,
    force_close,
    rpc_envelope,
    serve_rpc,
    tune_socket,
)
from repro.obs.telemetry import telemetry_of


class HandshakeError(ReproError):
    """The agent answered the hello with a reject (or garbage)."""


def _recv_one(sock: socket.socket, eof_message: str):
    """Block for the next whole message on ``sock`` and decode it (the
    one-reply exchanges: a handshake, a registration ack)."""
    decoder = MessageDecoder()
    while True:
        nbytes = sock.recv_into(decoder.get_buffer())
        if not nbytes:
            raise HandshakeError(eof_message)
        for _req_id, body in decoder.buffer_updated(nbytes):
            return decode_body(body)


def check_welcome(reply: object, endpoint: Endpoint, actor_name: str) -> None:
    """Raise :class:`HandshakeError` unless the decoded answer to a
    ``("hello", actor_name)`` is the agent's welcome (both client shells'
    dial paths end here)."""
    if (
        not isinstance(reply, tuple)
        or len(reply) != 2
        or reply[0] not in ("welcome", "reject")
    ):
        raise HandshakeError(f"bad handshake reply from {endpoint}: {reply!r}")
    if reply[0] == "reject":
        raise HandshakeError(
            f"agent at {endpoint} rejected {actor_name!r}: {reply[1]}"
        )


def connect_and_handshake(
    endpoint: Endpoint, actor_name: str, timeout: float
) -> socket.socket:
    """Dial an agent and bind the fresh connection to one actor.

    The client side of the hello/welcome exchange (the server side lives
    in :meth:`NodeAgent._handshake`). Returns a connected, tuned,
    blocking socket; raises ``OSError`` on dial failure and
    :class:`HandshakeError` on a reject.
    """
    sock = socket.create_connection((endpoint.host, endpoint.port), timeout=timeout)
    try:
        tune_socket(sock)
        sock.sendall(encode_message(HANDSHAKE_REQ_ID, ("hello", actor_name)))
        reply = _recv_one(
            sock, f"agent at {endpoint} closed the connection mid-handshake"
        )
        check_welcome(reply, endpoint, actor_name)
        sock.settimeout(None)
        return sock
    except BaseException:
        sock.close()
        raise


def register_providers(
    pm_endpoint: Endpoint | str,
    provider_ids: Iterable[int],
    *,
    timeout: float = 5.0,
    on_socket=None,
) -> list[int]:
    """One registration round-trip: dial the pm agent, register providers.

    Sends a single ``("rpc", ...)`` frame carrying one ``pm.register``
    sub-call per provider id and waits for the reply, so registration is
    atomic from the pm's point of view (one wire RPC per registering
    agent). Raises ``OSError`` if the pm agent is unreachable,
    :class:`HandshakeError` on a reject, and
    :class:`~repro.errors.RemoteError` if the pm answered any register
    with an error. Returns the pm's provider counts, one per id.
    """
    ids = list(provider_ids)
    endpoint = parse_endpoint(pm_endpoint)
    sock = connect_and_handshake(endpoint, "pm", timeout)
    if on_socket is not None:
        # let the caller sever this socket from another thread (an agent
        # being closed must be able to cancel an in-flight registration)
        on_socket(sock)
    try:
        calls = [Call("pm", "pm.register", (i,)) for i in ids]
        envelope = rpc_envelope([(WireGroup("pm", calls, range(len(ids))), None)])
        sock.sendall(encode_message(1, envelope))
        sock.settimeout(timeout)
        results = _recv_one(
            sock, f"pm agent at {endpoint} closed before acking registration"
        )
        for value in results:
            if isinstance(value, RemoteError):
                raise value
        return results
    finally:
        force_close(sock)


def build_actor(
    name: str,
    *,
    checksum: bool = False,
    strategy: str = "round_robin",
    strategy_kwargs: Mapping | None = None,
    replication: int = 1,
    state_dir: str | None = None,
    fsync: str = "never",
    snapshot_every: int | None = 1024,
) -> tuple[Address, Actor]:
    """Construct the actor a CLI ``--actor`` spec names.

    ``data/N`` and ``meta/N`` build providers (the actors a cluster
    distributes); ``vm`` builds a version manager and ``pm`` a provider
    manager for deployments that put the control plane on its own hosts
    (the paper's layout). A pm built here starts with an *empty*
    provider registry: data agents register their providers with it at
    start (``pm_endpoint``), and :func:`repro.deploy.tcp.build_tcp`
    additionally replays registration over the wire in connected mode,
    so the pm always learns the whole cluster before the first write.

    ``state_dir`` makes a vm or pm **durable**: its state lives in a
    :class:`~repro.core.journal.Journal` under ``<state_dir>/<actor>``
    and a rebuilt actor pointed at the same directory resumes its
    incarnation (replaying the log and, for the vm, rolling back
    unpublished assignments). Storage actors ignore it — their
    durability tier is :class:`~repro.core.persistence.DiskSpill`.
    """
    address = parse_actor(name)

    def journal_for(actor_name: str):
        if state_dir is None:
            return None
        from pathlib import Path

        from repro.core.journal import Journal

        return Journal(
            Path(state_dir) / actor_name,
            fsync=fsync,
            snapshot_every=snapshot_every,
        )

    if isinstance(address, tuple):
        kind, index = address
        if kind == "data":
            from repro.providers.data_provider import DataProvider

            return address, DataProvider(index, checksum=checksum)
        if kind == "meta":
            from repro.metadata.provider import MetadataProvider

            return address, MetadataProvider(index)
    elif address == "vm":
        from repro.version.manager import VersionManager

        return address, VersionManager(journal=journal_for("vm"))
    elif address == "pm":
        from repro.providers.manager import ProviderManager
        from repro.providers.strategies import make_strategy

        return address, ProviderManager(
            make_strategy(strategy, **dict(strategy_kwargs or {})),
            replication=replication,
            journal=journal_for("pm"),
        )
    raise ConfigError(
        f"cannot build actor {name!r}: expected data/N, meta/N, vm or pm"
    )


class _ActorService:
    """One hosted actor, its lock and wire counters: whichever pump thread
    holds :attr:`lock` is the actor's one caller (module docstring,
    *actor confinement*), so the counters and the telemetry accumulator
    change only under it."""

    def __init__(self, address: Address, actor: Actor) -> None:
        self.address = address
        self.name = format_actor(address)
        self.actor = actor
        self.lock = threading.Lock()
        self.served_rpcs = 0
        self.served_calls = 0
        self.stopped = False

    def serve(
        self, req_id: int, kind: str | None, payload, trace, nbytes: int,
        t_ready: int,
    ) -> list | None:
        """Answer one decoded request: the encoded reply, or None when the
        actor is shut down. ``t_ready`` is when the read that completed the
        request returned, plus the request's own decode time; from then
        until the lock is held — earlier requests of the same read being
        served, then the lock wait — is its queue wait in server spans."""
        with self.lock:
            if self.stopped:
                return None
            if kind == "rpc":
                self.served_rpcs += 1
                self.served_calls += len(payload)
                return encode_reply(
                    req_id,
                    serve_rpc(
                        self.actor, self.address, payload, trace,
                        time.perf_counter_ns() - t_ready, nbytes,
                    ),
                )
            if kind == CTL_TELEMETRY:
                # a scrape, not workload: NOT counted in served_rpcs/calls
                return encode_parts(req_id, self._report())
            if kind == CTL_SHUTDOWN:
                # Clean shutdown path: give durable actors their compaction
                # point BEFORE acking (NodeAgent.close() deliberately does
                # not — it models agent *loss*, and recovery must work from
                # the raw log alone).
                close = getattr(self.actor, "close", None)
                if callable(close):
                    close()
                self.stopped = True
                return encode_parts(req_id, True)
            if kind is None:  # a request decode_request refused
                return encode_parts(req_id, payload)
            return encode_parts(
                req_id, RemoteError("UnknownControl", f"bad message kind {kind!r}")
            )

    def report(self) -> dict:
        """The telemetry control's answer, read under the lock."""
        with self.lock:
            return self._report()

    def _report(self) -> dict:
        return {
            "wire_rpcs": self.served_rpcs,
            "sub_calls": self.served_calls,
            "telemetry": telemetry_of(self.actor).snapshot(),
        }


class NodeAgent:
    """Serves a set of actors on one TCP endpoint.

    Library object (the CLI in :mod:`repro.tools.node` wraps it): tests
    run agents in-thread via :meth:`start`, deployments run them as OS
    processes. ``port=0`` binds an ephemeral port; read :attr:`endpoint`
    for the real one.

    ``pm_endpoint`` names the provider manager's agent: when given and
    the agent hosts data providers, a background thread registers each
    of them with the pm (one wire RPC, retried with backoff until the pm
    is reachable or this agent stops) — the deployment-wide registration
    that lets a cluster run its pm on its own host, and lets a
    *restarted* data agent rejoin the allocation pool by itself.
    :attr:`pm_registered` is set once the pm has acked.
    """

    def __init__(
        self,
        actors: Mapping[Address | str, Actor],
        host: str = "127.0.0.1",
        port: int = 0,
        pm_endpoint: Endpoint | str | None = None,
    ) -> None:
        self._services: dict[str, _ActorService] = {}
        for address, actor in actors.items():
            if isinstance(address, str) and "/" in address:
                address = parse_actor(address)
            name = format_actor(address)
            if name in self._services:
                raise ConfigError(f"actor {name!r} hosted twice")
            self._services[name] = _ActorService(address, actor)
        if not self._services:
            raise ConfigError("a node agent needs at least one actor")
        # validate before binding: a bad endpoint must not leak a listener
        self._pm_endpoint = (
            parse_endpoint(pm_endpoint) if pm_endpoint is not None else None
        )
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.25)  # see serve_forever
        bound = self._listener.getsockname()
        self.endpoint = Endpoint(host, bound[1])
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._active = len(self._services)
        self._stopped = threading.Event()
        self._serving = threading.Event()  # serve_forever entered
        self._serve_done = threading.Event()  # serve_forever returned
        self._serve_thread: threading.Thread | None = None
        #: set once the pm has acked this agent's provider registration
        self.pm_registered = threading.Event()
        self._register_sock: socket.socket | None = None
        self._register_thread: threading.Thread | None = None
        hosted_data = [
            s.address[1]
            for s in self._services.values()
            if isinstance(s.address, tuple) and s.address[0] == "data"
        ]
        if self._pm_endpoint is not None and hosted_data:
            self._register_thread = threading.Thread(
                target=self._register_loop,
                args=(sorted(hosted_data),),
                name=f"register-{self.endpoint}",
                daemon=True,
            )
            self._register_thread.start()

    def _register_loop(self, provider_ids: list[int]) -> None:
        """Register hosted data providers with the pm, until acked.

        Runs from construction (an agent is dialable the moment its
        listener is bound, before ``serve_forever``), so a launcher that
        reads the READY line never waits on the pm. The client peers'
        redial schedule covers the start-order race — the pm agent may
        come up after this one. ``close()`` cancels an in-flight attempt
        by severing the tracked socket, so a stopped agent never registers
        itself afterwards."""

        def track(sock: socket.socket) -> None:
            with self._lock:
                self._register_sock = sock
            if self._stopped.is_set():  # close() raced the dial: cancel
                force_close(sock)

        delays = backoff()
        while not self._stopped.is_set():
            try:
                register_providers(
                    self._pm_endpoint, provider_ids, on_socket=track
                )
            except (OSError, ReproError):
                self._stopped.wait(next(delays))
                continue
            finally:
                with self._lock:
                    self._register_sock = None
            if not self._stopped.is_set():
                self.pm_registered.set()
            return

    @property
    def actor_names(self) -> list[str]:
        return list(self._services)

    # -- lifecycle -------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept connections until every hosted actor is shut down.

        The listener polls with a short timeout rather than blocking
        indefinitely: closing a listening socket from another thread
        does *not* wake a blocked ``accept()`` on Linux, so a pure
        blocking loop would hang the agent's clean exit forever.
        """
        self._serving.set()
        try:
            while not self._stopped.is_set():
                try:
                    conn, _peer = self._listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    break  # listener closed: agent is done
                conn.setblocking(True)
                threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"conn-{self.endpoint}",
                    daemon=True,
                ).start()
            try:
                self._listener.close()
            except OSError:
                pass
            self._close_conns()
        finally:
            self._serve_done.set()

    def start(self) -> threading.Thread:
        """Serve on a background thread (in-process agents for tests)."""
        thread = threading.Thread(
            target=self.serve_forever, name=f"agent-{self.endpoint}", daemon=True
        )
        self._serve_thread = thread
        thread.start()
        return thread

    def wait_stopped(self, timeout: float | None = None) -> bool:
        return self._stopped.wait(timeout)

    def _actor_done(self, name: str) -> None:
        """An actor finished its shutdown control; last one out closes."""
        with self._lock:
            self._active -= 1
            done = self._active <= 0
        if done:
            self._stopped.set()
            try:
                self._listener.close()
            except OSError:
                pass

    def close(self) -> None:
        """Force-stop: close the listener and every connection.

        This is the *unclean* path (tests use it to simulate an agent
        lost to the network); the clean path is per-actor ``shutdown``
        controls arriving over the wire.

        Blocks until the serve loop has actually exited: closing the
        listener's fd does not release the bound port while the loop's
        in-flight ``accept`` poll still references the socket, and a
        caller restarting an agent on the same port (the reconnect
        scenario) must not race that release window.
        """
        self._stopped.set()
        try:
            self._listener.close()
        except OSError:
            pass
        for service in self._services.values():
            service.stopped = True
        self._close_conns()
        # cancel an in-flight pm registration: a stopped agent must never
        # (re-)enter the allocation pool after the operator took it down
        with self._lock:
            register_sock = self._register_sock
        if register_sock is not None:
            force_close(register_sock)
        if self._register_thread is not None:
            self._register_thread.join(timeout=2.0)
        if self._serving.is_set():
            self._serve_done.wait(2.0)

    def drop_connections(self) -> None:
        """Sever every live connection but keep serving (network blip)."""
        self._close_conns()

    def _close_conns(self) -> None:
        with self._lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            force_close(conn)

    # -- connection service ----------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        tune_socket(conn)
        with self._lock:
            self._conns.add(conn)
        # One decoder for the whole connection: a client that pipelines
        # RPCs behind its hello leaves complete messages, or a partial
        # frame, behind the handshake — all of it is served in order.
        decoder = MessageDecoder()
        service: _ActorService | None = None
        try:
            while True:
                try:
                    nbytes = conn.recv_into(decoder.get_buffer())
                except OSError:
                    return
                if not nbytes:
                    return
                t_read = time.perf_counter_ns()
                for req_id, body in decoder.buffer_updated(nbytes):
                    if service is None:
                        service = self._handshake(conn, req_id, decode_body(body))
                        if service is None:
                            return
                        continue
                    t_decode = time.perf_counter_ns()
                    # well framed but undecodable or the wrong shape: that
                    # request fails typed (kind None) and the connection
                    # and the actor keep serving
                    kind, payload, trace = decode_request(body)
                    # its own decode is work, not waiting
                    t_ready = t_read + time.perf_counter_ns() - t_decode
                    reply = service.serve(
                        req_id, kind, payload, trace, len(body), t_ready
                    )
                    if reply is None:
                        return  # the actor is shut down: hang up
                    try:
                        send_parts(conn, reply)
                    except (OSError, ValueError):
                        # a dead connection is the *peer's* problem: it
                        # drains its in-flight calls as RemoteError at EOF,
                        # and the next recv here ends this pump
                        pass
                    if kind == CTL_SHUTDOWN:
                        self._actor_done(service.name)
        except WireCodecError:
            # corrupt framing (or an undecodable hello): drop the
            # connection, keep the agent
            return
        finally:
            with self._lock:
                self._conns.discard(conn)
            force_close(conn)

    def _handshake(
        self, conn: socket.socket, req_id: int, hello: object
    ) -> _ActorService | None:
        """Answer a connection's first message, which must be
        ``("hello", name)``, with welcome/reject; returns the service the
        connection is now bound to (``None`` after a reject)."""
        if (
            not isinstance(hello, tuple)
            or len(hello) != 2
            or hello[0] != "hello"
            or not isinstance(hello[1], str)
        ):
            self._reject(conn, req_id, f"expected hello handshake, got {hello!r}")
            return None
        name = hello[1]
        service = self._services.get(name)
        if service is None:
            self._reject(
                conn,
                req_id,
                f"agent at {self.endpoint} hosts {self.actor_names}, "
                f"not {name!r}",
            )
            return None
        if service.stopped:
            self._reject(conn, req_id, f"actor {name!r} is shut down")
            return None
        try:
            conn.sendall(encode_message(req_id, ("welcome", name)))
        except OSError:
            return None
        return service

    @staticmethod
    def _reject(conn: socket.socket, req_id: int, reason: str) -> None:
        try:
            conn.sendall(encode_message(req_id, ("reject", reason)))
        except OSError:
            pass

    # -- introspection ---------------------------------------------------

    def telemetry(self) -> dict[str, dict]:
        """Per-actor telemetry reports, same shape as the ``telemetry``
        control answers over the wire (in-process inspection)."""
        return {name: s.report() for name, s in self._services.items()}
