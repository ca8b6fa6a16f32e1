"""TCP-transport pins: framing counts, clean shutdown, crash fail-over,
reconnect-with-backoff, and the addressing/handshake layer.

The pins that describe *transport semantics* (submission counts, typed
errors, killed-peer drain, replica fail-over, clean shutdown exit codes,
reconnect to a restarted agent) have one body each and run once per
client shell, chosen by the ``client`` fixture: this module runs them on
``threaded`` — :class:`~repro.net.threaded.ThreadedDriver`, a receiver
thread per peer — and ``tests/test_aio_transport.py`` collects the same functions with
``client`` overridden to ``aio`` — :class:`~repro.net.aio.AioDriver`, one
event loop. Same agents, same wire, same failure modes. Where the two
shells' copies of a test once differed, the stricter assertion is the one
kept (said at the spot).

Everything here is wall-clock bounded: every blocking wait carries a
timeout, and the module-level watchdog (conftest.py, enabled via
``REPRO_TEST_TIMEOUT``) hard-kills a stalled run — a wedged socket must
fail the suite fast, never stall it.
"""

from __future__ import annotations

import random
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.tcp import build_tcp, plan_loopback_nodes
from repro.errors import ConfigError, RemoteError, VersionNotPublished
from repro.net.address import ClusterMap, Endpoint, format_actor, parse_actor, parse_endpoint
from repro.net.aio import AioDriver
from repro.net.codec import MessageDecoder, decode_body, encode_message
from repro.net.node import NodeAgent, build_actor
from repro.net.sansio import Batch, Call
from repro.net.threaded import ThreadedDriver
from repro.net.wire import force_close
from repro.providers.data_provider import DataProvider
from repro.util.sizes import KB, MB

TOTAL = 1 * MB
PAGE = 4 * KB

JOIN_TIMEOUT = 60.0


DRIVERS = {"threaded": ThreadedDriver, "aio": AioDriver}


@pytest.fixture
def client() -> str:
    """The client shell the transport pins run on (``build_tcp``'s
    ``client=``); ``tests/test_aio_transport.py`` overrides it."""
    return "threaded"


@pytest.fixture
def tdep(client):
    with build_tcp(
        DeploymentSpec(n_data=3, n_meta=2, cache_capacity=0), client=client
    ) as dep:
        yield dep


def fill(i: int) -> bytes:
    return bytes([i % 251 + 1]) * PAGE


# ---------------------------------------------------------------------------
# addressing layer
# ---------------------------------------------------------------------------


def test_actor_name_round_trips():
    for address in ("vm", "pm", ("data", 0), ("meta", 17)):
        assert parse_actor(format_actor(address)) == address
    assert format_actor(("data", 3)) == "data/3"
    assert parse_actor("meta/12") == ("meta", 12)


def test_bad_actor_names_rejected():
    for bad in ("", "data/", "/3", "data/x", "data/-1", "da/ta/3"):
        with pytest.raises(ConfigError):
            parse_actor(bad)
    with pytest.raises(ConfigError):
        format_actor(("data", -1))
    with pytest.raises(ConfigError):
        format_actor(("da/ta", 1))
    with pytest.raises(ConfigError):
        format_actor(3.14)


def test_endpoint_parsing():
    assert parse_endpoint("10.0.0.5:7000") == Endpoint("10.0.0.5", 7000)
    assert parse_endpoint("[::1]:7000") == Endpoint("::1", 7000)
    assert str(Endpoint("h", 9)) == "h:9"
    for bad in ("nohost", ":70", "h:", "h:abc", "h:70000"):
        with pytest.raises(ConfigError):
            parse_endpoint(bad)


def test_cluster_map_round_trips_spec_form():
    spec = {"data/0": "10.0.0.5:7000", "meta/0": "10.0.0.5:7000", "vm": "10.0.0.9:7001"}
    cmap = ClusterMap.from_spec(spec)
    assert cmap.to_spec() == spec
    assert cmap.endpoint_for(("data", 0)) == Endpoint("10.0.0.5", 7000)
    assert sorted(map(format_actor, cmap.actors_at("10.0.0.5:7000"))) == [
        "data/0", "meta/0",
    ]
    assert len(cmap.endpoints()) == 2
    with pytest.raises(ConfigError):
        cmap.add("data/0", "10.0.0.6:7000")  # mapped twice
    with pytest.raises(ConfigError):
        cmap.endpoint_for(("data", 9))


def test_loopback_plan_colocates_paper_layout():
    plan = plan_loopback_nodes(DeploymentSpec(n_data=3, n_meta=2))
    assert plan == [["data/0", "meta/0"], ["data/1", "meta/1"], ["data/2"]]
    flat = plan_loopback_nodes(DeploymentSpec(n_data=2, n_meta=1, colocate=False))
    assert flat == [["data/0"], ["data/1"], ["meta/0"]]


def test_build_actor_specs():
    address, actor = build_actor("data/4", checksum=True)
    assert address == ("data", 4)
    assert actor.provider_id == 4
    address, actor = build_actor("meta/0")
    assert address == ("meta", 0)
    _, vm = build_actor("vm")
    assert callable(vm.handle)  # a servable actor
    address, pm = build_actor("pm", replication=2)
    assert address == "pm"
    assert pm.replication == 2
    assert pm.providers() == []  # starts empty: agents register at start
    _, pm_hr = build_actor("pm", strategy="hash_ring")
    assert pm_hr.config() == {"replication": 1, "strategy": "hash_ring"}
    for bad in ("unknown/1", "data"):
        with pytest.raises(ConfigError):
            build_actor(bad)
    with pytest.raises(ValueError, match="unknown strategy 'least_loaded'"):
        build_actor("pm", strategy="least_loaded")


# ---------------------------------------------------------------------------
# functional sanity + submission counts
# ---------------------------------------------------------------------------


def test_serial_workload_and_submission_counts(tdep):
    """Caller-side transport counters must equal agent/server-side wire-RPC
    counts: one queue submission (= one TCP frame for remote actors) per
    destination per batch — the same bound the threaded driver pins.
    (The seeded mixed-size workload of the thread-pair copy, which covers
    the event-loop copy's fixed two-page writes.)"""
    client = tdep.client("pin")
    blob = client.alloc(TOTAL, PAGE)
    rng = random.Random(7)
    states: dict[int, bytes] = {}
    for step in range(6):
        npages = rng.choice((1, 2, 4))
        offset = rng.randrange(0, TOTAL // PAGE - npages + 1) * PAGE
        data = b"".join(fill(step * 7 + k) for k in range(npages))
        res = client.write(blob, data, offset)
        states[res.version] = data
        back = client.read_bytes(blob, offset, len(data), version=res.version)
        assert back == data

    stats = tdep.driver.server_stats()
    served_rpcs = sum(r for r, _ in stats.values())
    served_calls = sum(c for _, c in stats.values())
    transport = tdep.transport_stats()
    assert transport["queue_submissions"] == served_rpcs
    assert transport["completion_wakeups"] <= transport["batches"]
    assert served_calls >= served_rpcs

    # agent-held state is inspectable over the wire
    assert tdep.total_pages_stored() == sum(
        len(d) // PAGE for d in states.values()
    )


def test_concurrent_clients_disjoint_ranges(tdep):
    """Real parallel client threads against node-agent processes (threads
    only; the loop's counterpart, coroutine clients, is
    ``test_aio_transport.py::test_async_clients_interleave_on_one_loop``)."""
    client = tdep.client("setup")
    blob = client.alloc(TOTAL, PAGE)
    n_clients, writes_each = 3, 4
    span = TOTAL // n_clients // PAGE * PAGE

    def program(c: int):
        own = tdep.client(f"c{c}")
        lo = c * span
        for k in range(writes_each):
            data = fill(c * 16 + k) * 2
            offset = lo + (k * 2 * PAGE) % span
            res = own.write(blob, data, offset)
            if res.published:
                # a completed write is only *readable* once all earlier
                # versions have published; otherwise the paper's contract
                # says the read must fail, so verify only published ones
                got = own.read_bytes(blob, offset, len(data), version=res.version)
                assert got == data
        return c

    futures = [
        tdep.driver.spawn(_as_proto(program, c)) for c in range(n_clients)
    ]
    assert sorted(f.result(timeout=JOIN_TIMEOUT) for f in futures) == [0, 1, 2]
    assert tdep.vm.get_latest(blob) == n_clients * writes_each

    # all versions published now: every client's final own-range bytes
    # must read back exactly (deterministic replay of its writes)
    for c in range(n_clients):
        state = bytearray(span)
        for k in range(writes_each):
            data = fill(c * 16 + k) * 2
            offset = (k * 2 * PAGE) % span
            state[offset : offset + len(data)] = data
        assert client.read_bytes(blob, c * span, span) == bytes(state)


def _as_proto(fn, *args):
    """Wrap a blocking-client program as a spawnable generator."""

    def proto():
        yield Batch([])  # enter the driver loop once, then run to completion
        return fn(*args)

    return proto()


def test_unknown_address_raises_before_any_submission(tdep):
    def proto():
        yield Batch([Call(("data", 99), "data.stats", ())])

    before = tdep.transport_stats()["queue_submissions"]
    with pytest.raises(KeyError):
        tdep.driver.run(proto())
    assert tdep.transport_stats()["queue_submissions"] == before


def test_semantic_errors_cross_the_wire_typed(tdep, client):
    """A VersionNotPublished raised by a remote actor comes back with its
    precise type and payload — from a blocking read on either shell and,
    on the loop, out of an *awaited* read too (the two copies checked one
    path each; both are kept)."""
    reader = tdep.client("err")
    blob = reader.alloc(TOTAL, PAGE)
    with pytest.raises(VersionNotPublished) as exc_info:
        reader.read_bytes(blob, 0, PAGE, version=5)
    assert exc_info.value.requested == 5
    if client == "aio":
        async def main():
            with pytest.raises(VersionNotPublished) as awaited:
                await tdep.async_client("aerr").read_bytes(blob, 0, PAGE, version=5)
            return awaited.value

        assert tdep.driver.run_async(main(), timeout=JOIN_TIMEOUT).requested == 5


def test_checksum_integrity_mode_roundtrips():
    """Integrity mode: pages checksum on put and verify on get, inside the
    agent processes (``page_checksums`` travels on their command line); a
    correct store round-trips transparently."""
    with build_tcp(
        DeploymentSpec(n_data=2, n_meta=2, page_checksums=True, cache_capacity=0)
    ) as dep:
        client = dep.client("sum")
        blob = client.alloc(TOTAL, PAGE)
        data = fill(11) * 4
        res = client.write(blob, data, 0)
        assert client.read_bytes(blob, 0, len(data), version=res.version) == data


# ---------------------------------------------------------------------------
# shutdown
# ---------------------------------------------------------------------------


def test_clean_shutdown_exits_all_agents(client):
    dep = build_tcp(DeploymentSpec(n_data=2, n_meta=2), client=client)
    writer = dep.client("s")
    blob = writer.alloc(TOTAL, PAGE)
    writer.write(blob, fill(1), 0)
    dep.close()
    codes = dep.agent_exitcodes()
    assert len(codes) == 2  # colocated: agent i hosts data/i + meta/i
    assert all(code == 0 for code in codes), codes
    # closing twice is harmless
    dep.close()


def test_driver_rejects_registration_after_close(client):
    """Both kinds of registration are refused (the event-loop copy checked
    the in-parent one too; kept for both shells)."""
    driver = DRIVERS[client]()
    driver.close()
    with pytest.raises(RuntimeError):
        driver.register_remote(("data", 0), "127.0.0.1:1")
    with pytest.raises(RuntimeError):
        driver.register(("data", 0), DataProvider(0))


def test_refused_registration_never_reaches_the_live_actor(client):
    """A duplicate ``register_remote`` is refused before anything dials.
    The blocking driver used to build (and dial) the duplicate's peer
    first and tear it down with ``stop()`` — which, once its handshake had
    finished, sent the ``shutdown`` control and stopped the very actor the
    first registration serves: here (an agent hosting a second actor, so
    it stays up) the original peer's next call would hang."""
    agent = NodeAgent({("data", 0): DataProvider(0), ("meta", 0): build_actor("meta/0")[1]})
    agent.start()
    driver = DRIVERS[client]()
    try:
        driver.register_remote(("data", 0), agent.endpoint)
        driver.wait_connected()
        holding = threading.Event()

        def hold_the_registry():  # long enough for any dial to finish
            with driver._lock:
                holding.set()
                time.sleep(1.0)

        holder = threading.Thread(target=hold_the_registry)
        holder.start()
        assert holding.wait(JOIN_TIMEOUT)
        with pytest.raises(ValueError):
            driver.register_remote(("data", 0), agent.endpoint)
        holder.join(JOIN_TIMEOUT)
        assert not holder.is_alive()
        served = driver.spawn(_call_proto(("data", 0), "data.stats"))
        assert served.result(timeout=5)["pages"] == 0
    finally:
        driver.close()
        agent.close()


def test_calls_racing_connection_drops_each_complete_once(client):
    """Eight caller threads hammer one peer while its connection is dropped
    and redialed again and again, under a short switch interval: replies,
    drains and fail-fast race for every request, and each call must still
    end exactly once — its reply, or a typed ``PeerUnavailable`` — never
    hang (a lost completion) nor come back empty (a double one)."""
    addr = ("data", 0)
    agent = NodeAgent({addr: DataProvider(0)})
    agent.start()
    driver = DRIVERS[client]()
    switch = sys.getswitchinterval()
    try:
        driver.register_remote(addr, agent.endpoint)
        driver.wait_connected()
        done = threading.Event()
        outcomes: list[tuple[int, list]] = []

        def caller():
            served, odd = 0, []
            while not done.is_set():
                try:
                    served += driver.call(addr, "data.stats")["pages"] == 0
                except RemoteError as exc:
                    if exc.error_type != "PeerUnavailable":
                        odd.append(exc)
                except Exception as exc:  # noqa: BLE001 - reported below
                    odd.append(exc)
            outcomes.append((served, odd))

        sys.setswitchinterval(1e-5)
        callers = [threading.Thread(target=caller, daemon=True) for _ in range(8)]
        for thread in callers:
            thread.start()
        for _ in range(15):
            driver.peer(addr).drop()
            assert driver.peer(addr).wait_connected(JOIN_TIMEOUT)
            time.sleep(0.02)
        done.set()
        deadline = time.monotonic() + 10
        for thread in callers:
            thread.join(max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in callers), "a call hung"
        assert [odd for _, odd in outcomes] == [[]] * 8
        assert sum(served for served, _ in outcomes) > 0
    finally:
        sys.setswitchinterval(switch)
        driver.close()
        agent.close()


class _ScriptedAgent:
    """A listener that answers each connection's hello as told — ``hold``
    (not yet), ``reject`` or ``welcome`` — and acks every later message
    with ``True``: a peer's states on demand."""

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.endpoint = Endpoint("127.0.0.1", self._listener.getsockname()[1])
        self._lock = threading.Lock()
        self._mode = "hold"
        self._held: list[tuple] = []
        self._conns: list[socket.socket] = []
        threading.Thread(target=self._accept, daemon=True).start()

    def held(self) -> int:
        with self._lock:
            return len(self._held)

    def set_mode(self, mode: str) -> None:
        with self._lock:
            self._mode = mode
            held, self._held = self._held, []
        for hello in held:
            self._hello(*hello)

    def _hello(self, conn, req_id, name):
        with self._lock:
            if self._mode == "hold":
                self._held.append((conn, req_id, name))
                return
            reply = ("welcome", name) if self._mode == "welcome" else ("reject", "not yet")
        try:
            conn.sendall(encode_message(req_id, reply))
        except OSError:
            pass

    def _accept(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self._conns.append(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        decoder = MessageDecoder()
        greeted = False
        try:
            while nbytes := conn.recv_into(decoder.get_buffer()):
                for req_id, body in decoder.buffer_updated(nbytes):
                    if greeted:
                        conn.sendall(encode_message(req_id, True))
                    else:
                        greeted = True
                        self._hello(conn, req_id, decode_body(body)[1])
        except OSError:
            pass

    def close(self):
        self._listener.close()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            force_close(conn)


def _until(predicate, timeout: float = JOIN_TIMEOUT) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "state never reached"
        time.sleep(0.01)


def test_peer_states_read_the_same_on_both_shells(client):
    """Never connected → unreachable → connected → dropped → stopped: the
    text of each state comes from the one connection core, so
    ``peer_status()`` and ``down_reason`` read exactly the same on either
    shell (this body runs once per shell against the same expectations)."""
    agent = _ScriptedAgent()
    driver = DRIVERS[client](connect_timeout=JOIN_TIMEOUT)
    addr, name = ("data", 0), f"data/0@{agent.endpoint}"

    def state() -> str:  # read where the state holds still
        status = driver.peer_status()[addr]
        assert driver.peer(addr).down_reason == (
            None if status == "connected" else status
        )
        return status

    try:
        driver.register_remote(addr, agent.endpoint)
        _until(lambda: agent.held() == 1)  # dialed, handshake unanswered
        assert state() == f"peer {name} never connected"
        agent.set_mode("reject")
        _until(lambda: "never" not in driver.peer_status()[addr])
        assert state() == (
            f"peer {name} unreachable: agent at {agent.endpoint} "
            "rejected 'data/0': not yet"
        )
        agent.set_mode("welcome")
        assert driver.peer(addr).wait_connected(JOIN_TIMEOUT)
        assert state() == "connected"
        agent.set_mode("hold")
        driver.peer(addr).drop()
        _until(lambda: agent.held() == 1)  # the redial is in, unanswered
        assert state() == "connection dropped (failure injection)"
        agent.set_mode("welcome")
        assert driver.peer(addr).wait_connected(JOIN_TIMEOUT)
        driver.close()  # the agent acks the shutdown control and stays up
        assert state() == "peer stopped by driver close"
    finally:
        driver.close()
        agent.close()


def test_no_second_way_to_run_actors_in_their_own_processes():
    """Loopback node agents are the one way: the package, ``repro.net`` and
    ``repro.deploy`` export no process-deployment name (builder, deployment
    or driver — no alias either), and never load ``multiprocessing``."""
    import repro
    import repro.deploy
    import repro.net

    for module in (repro, repro.net, repro.deploy):
        assert [n for n in dir(module) if "process" in n.lower()] == []
    probe = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.net, repro.deploy; "
            "sys.exit('multiprocessing' in sys.modules)",
        ],
        timeout=JOIN_TIMEOUT,
    )
    assert probe.returncode == 0


# ---------------------------------------------------------------------------
# crash handling: killed agent -> RemoteError -> replica fail-over
# ---------------------------------------------------------------------------


def test_killed_agent_raises_remote_error(tdep):
    client = tdep.client("kill")
    blob = client.alloc(TOTAL, PAGE)
    res = client.write(blob, fill(9), 0)
    # find the agent whose data provider holds the page and SIGKILL it
    # (replication=1: no backup copy anywhere)
    holders = [
        pid for pid, proxy in tdep.data.items()
        if any(True for _ in proxy.iter_pages(blob))
    ]
    assert len(holders) == 1
    victim = holders[0]
    tdep.kill_agent(tdep.agent_index_for(("data", victim)))
    with pytest.raises(RemoteError) as exc_info:
        client.read_bytes(blob, 0, PAGE, version=res.version)
    assert "PeerUnavailable" in str(exc_info.value)
    # vm is alive in-parent; the surviving metadata replicas still serve
    # (the thread-pair copy's check, kept for both shells)
    assert tdep.vm.get_latest(blob) == 1
    surviving_meta = [
        m for m in tdep.meta
        if tdep.agent_index_for(("meta", m)) != tdep.agent_index_for(("data", victim))
    ]
    for m in surviving_meta:
        list(tdep.meta[m].iter_nodes(blob))  # serves without raising


def test_killed_agent_fails_over_to_replica(client):
    """The paper's replica fail-over, driven by a real node-agent death:
    with replication=2 every page (and metadata node) lives on two
    agents, so SIGKILLing one must leave reads working through the
    ``allow_error`` retry path — blocking reads on either shell and, on
    the loop, awaited ones (no thread pool involved)."""
    dep = build_tcp(
        DeploymentSpec(n_data=3, n_meta=2, replication=2, cache_capacity=0),
        client=client,
    )
    try:
        writer = dep.client("failover")
        blob = writer.alloc(TOTAL, PAGE)
        data = fill(3) + fill(4)
        res = writer.write(blob, data, 0)
        victim = next(
            pid for pid, proxy in dep.data.items()
            if any(True for _ in proxy.iter_pages(blob))
        )
        dep.kill_agent(dep.agent_index_for(("data", victim)))
        back = writer.read_bytes(blob, 0, len(data), version=res.version)
        assert back == data
        if client == "aio":
            awaited = dep.async_client("afailover").read_bytes(
                blob, 0, len(data), version=res.version
            )
            assert dep.driver.run_async(awaited, timeout=JOIN_TIMEOUT) == data
    finally:
        dep.close()


def test_future_calls_fail_fast_after_agent_death(client):
    """Calls against a dead peer must fail immediately with RemoteError —
    never block behind a redial attempt (fail-over latency)."""
    dep = build_tcp(
        DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0), client=client
    )
    try:
        writer = dep.client("inflight")
        blob = writer.alloc(TOTAL, PAGE)
        writer.write(blob, fill(5), 0)
        address = ("data", 0)
        dep.kill_agent(dep.agent_index_for(address))
        # wait (bounded) for the peer to notice the EOF
        deadline = time.monotonic() + 10
        while dep.driver.peer(address).connected and time.monotonic() < deadline:
            time.sleep(0.01)
        for _ in range(3):
            start = time.monotonic()
            with pytest.raises(RemoteError):
                dep.driver.call(address, "data.stats")
            assert time.monotonic() - start < 2.0, "dead-peer call did not fail fast"
    finally:
        dep.close()


def test_in_flight_calls_drain_when_connection_dies(client):
    """A call already on the wire when the connection dies mid-batch must
    complete with RemoteError, not hang the batch latch. Driven
    deterministically with an in-process agent whose actor blocks until
    the connection is severed under it."""

    class Staller:
        def __init__(self):
            self.entered = threading.Event()
            self.release = threading.Event()

        def handle(self, method, args):
            if method == "stall":
                self.entered.set()
                self.release.wait(JOIN_TIMEOUT)
                return "too late"
            raise ValueError(method)

    staller = Staller()
    agent = NodeAgent({("data", 0): staller})
    agent.start()
    driver = DRIVERS[client]()
    try:
        driver.register_remote(("data", 0), agent.endpoint)
        driver.wait_connected()
        fut = driver.spawn(_call_proto(("data", 0), "stall"))
        assert staller.entered.wait(JOIN_TIMEOUT), "call never reached the actor"
        agent.drop_connections()  # sever mid-call: reply can never arrive
        with pytest.raises(RemoteError):
            fut.result(timeout=JOIN_TIMEOUT)
    finally:
        staller.release.set()
        driver.close()
        agent.close()


def _call_proto(address, method, args=()):
    def proto():
        (result,) = yield Batch([Call(address, method, args)])
        return result

    return proto()


# ---------------------------------------------------------------------------
# reconnect: service resumes without a client restart
# ---------------------------------------------------------------------------


def test_peer_reconnects_after_agent_restart(client):
    """Reconnect-safe fail-over: while the agent is gone calls drain as
    RemoteError (so replicas take over), and once an agent serving the
    same actor name is back on the same endpoint, the connector's backoff
    loop finds it and service resumes — no driver restart, no re-register."""
    agent = NodeAgent({("data", 0): DataProvider(0)})
    agent.start()
    port = agent.endpoint.port
    driver = DRIVERS[client]()
    try:
        driver.register_remote(("data", 0), agent.endpoint)
        driver.wait_connected()
        assert driver.call(("data", 0), "data.stats")["pages"] == 0

        agent.close()  # the "host went down" event: listener + conns die
        deadline = time.monotonic() + 10
        while driver.peer(("data", 0)).connected and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(RemoteError):
            driver.call(("data", 0), "data.stats")
        assert driver.peer_status()[("data", 0)] != "connected"

        # restart: a fresh agent, same actor name, same endpoint
        revived = NodeAgent({("data", 0): DataProvider(0)}, port=port)
        revived.start()
        try:
            assert driver.peer(("data", 0)).wait_connected(timeout=15), (
                "connector did not redial the revived agent"
            )
            assert driver.call(("data", 0), "data.stats")["pages"] == 0
            assert driver.peer_status()[("data", 0)] == "connected"
        finally:
            revived.close()
    finally:
        driver.close()
        agent.close()


def test_agent_serves_rpcs_pipelined_behind_hello():
    """The wire protocol allows a client to pipeline RPCs behind its hello
    without waiting for the welcome; the agent must resume the byte stream
    exactly where the handshake left it — including a partial frame
    straddling the handshake/service boundary."""
    import socket as socket_mod

    from repro.net.codec import MessageDecoder, decode_body, encode_message

    agent = NodeAgent({("data", 0): DataProvider(0)})
    agent.start()
    sock = socket_mod.create_connection(
        (agent.endpoint.host, agent.endpoint.port), timeout=10
    )
    try:
        sock.setsockopt(socket_mod.IPPROTO_TCP, socket_mod.TCP_NODELAY, 1)
        stream = (
            encode_message(0, ("hello", "data/0"))
            + encode_message(1, ("rpc", [("data.stats", ())]))
            + encode_message(2, ("rpc", [("data.stats", ())]))
        )
        # burst everything but the last frame's tail, so the agent's
        # handshake read buffers a complete rpc AND a partial one
        sock.sendall(stream[:-5])
        time.sleep(0.05)
        sock.sendall(stream[-5:])
        decoder = MessageDecoder()
        seen = {}
        sock.settimeout(10)
        while len(seen) < 3:
            nbytes = sock.recv_into(decoder.get_buffer())
            assert nbytes, "agent closed a pipelined connection"
            for req_id, body in decoder.buffer_updated(nbytes):
                seen[req_id] = decode_body(body)
        assert seen[0] == ("welcome", "data/0")
        for req_id in (1, 2):
            assert seen[req_id][0]["pages"] == 0  # stats reply list
    finally:
        sock.close()
        agent.close()


def test_handshake_reject_for_unknown_actor(client):
    """An agent must reject a hello for an actor it does not host; the
    peer stays down (fail-fast) instead of looping a broken connection."""
    agent = NodeAgent({("data", 0): DataProvider(0)})
    agent.start()
    driver = DRIVERS[client]()
    try:
        driver.register_remote(("data", 7), agent.endpoint)
        assert not driver.peer(("data", 7)).wait_connected(timeout=0.6)
        with pytest.raises(RemoteError) as exc_info:
            driver.call(("data", 7), "data.stats")
        assert "PeerUnavailable" in str(exc_info.value)
    finally:
        driver.close()
        agent.close()


def test_connect_mode_uses_running_agents():
    """The connected (operator-launched) mode: build_tcp with explicit
    endpoints dials running agents instead of spawning any — the exact
    code path a real multi-host cluster uses, exercised with in-process
    agents standing in for remote hosts."""
    agents = [
        NodeAgent({("data", 0): build_actor("data/0")[1],
                   ("meta", 0): build_actor("meta/0")[1]}),
        NodeAgent({("data", 1): build_actor("data/1")[1]}),
    ]
    for a in agents:
        a.start()
    endpoints = {
        "data/0": str(agents[0].endpoint),
        "meta/0": str(agents[0].endpoint),
        "data/1": str(agents[1].endpoint),
    }
    dep = build_tcp(
        DeploymentSpec(n_data=2, n_meta=1, cache_capacity=0, endpoints=endpoints)
    )
    try:
        assert dep.agents == []  # nothing launched: agents are "elsewhere"
        client = dep.client("ext")
        blob = client.alloc(TOTAL, PAGE)
        res = client.write(blob, fill(2) * 3, 0)
        assert client.read_bytes(blob, 0, 3 * PAGE, version=res.version) == fill(2) * 3
        assert dep.total_pages_stored() == 3
    finally:
        dep.close()
        # clean close sent shutdown controls: in-process agents stopped too
        for a in agents:
            assert a.wait_stopped(timeout=10)


def test_missing_endpoint_fails_the_build():
    with pytest.raises(ConfigError):
        build_tcp(
            DeploymentSpec(n_data=2, n_meta=1),
            endpoints={"data/0": "127.0.0.1:1", "meta/0": "127.0.0.1:1"},
        )


# ---------------------------------------------------------------------------
# the application, end to end on the cluster
# ---------------------------------------------------------------------------


def test_supernovae_example_runs_on_loopback_cluster():
    """The paper's §VI application on the paper's deployment architecture,
    now in full: ``examples/supernovae_detection.py --deploy tcp``
    launches ten node agents as OS processes — eight storage nodes plus
    the vm and pm on their own agents — and runs the survey over real
    sockets with zero actors in the client parent."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [
            sys.executable,
            str(root / "examples" / "supernovae_detection.py"),
            "--deploy", "tcp",
            "--epochs", "4",
        ],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "TCP cluster: 10 node agents" in result.stdout
    assert "in-parent actors: 0" in result.stdout
    assert "precision" in result.stdout and "recall" in result.stdout
