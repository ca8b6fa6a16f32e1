"""Fully distributed control plane: vm/pm on their own node agents.

These are the pins for the fully-remote configuration — the paper's
layout in full, where the version manager and provider manager run on
dedicated hosts and *no* actor lives in the client parent:

- deployment-wide provider registration: a data-hosting agent registers
  its providers with the pm agent at start (``--pm`` / ``pm_endpoint``),
  retrying with backoff, and does so again after a restart — the replay
  that lets a storage node rejoin the allocation pool by itself;
- vm on its own agent: killing it turns publishes into *typed* fast
  failures (``RemoteError``), and a restarted vm agent on the same
  endpoint resumes service through the driver's reconnect backoff with
  no driver restart;
- the hello/welcome handshake binds control-plane connections exactly
  like provider connections, including RPCs pipelined behind the hello
  (raw-socket pin against a vm agent);
- ``build_tcp(control_plane="agents")`` launches (or dials, inferred
  from ``DeploymentSpec.endpoints``) the control-plane agents and
  guarantees the pm knows every data provider before the first write.

Everything here is wall-clock bounded: every blocking wait carries a
timeout, and the module-level watchdog (conftest.py, enabled via
``REPRO_TEST_TIMEOUT``) hard-kills a stalled run.
"""

from __future__ import annotations

import socket as socket_mod
import threading
import time

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.tcp import (
    ProviderManagerProxy,
    VersionManagerProxy,
    build_tcp,
)
from repro.errors import (
    BlobNotFound,
    ConfigError,
    ImmutabilityViolation,
    RemoteError,
)
from repro.net.address import ClusterMap
from repro.net.codec import MessageDecoder, decode_body, encode_message
from repro.net.node import NodeAgent, build_actor
from repro.net.threaded import ThreadedDriver
from repro.util.sizes import KB, MB

TOTAL = 1 * MB
PAGE = 4 * KB

JOIN_TIMEOUT = 60.0


def fill(i: int) -> bytes:
    return bytes([i % 251 + 1]) * PAGE


def wait_until(predicate, timeout: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"{what} not reached within {timeout}s")


# ---------------------------------------------------------------------------
# launched mode: the CI cluster with zero in-parent actors
# ---------------------------------------------------------------------------


def test_fully_remote_build_serves_with_zero_in_parent_actors():
    """The whole deployment — data, meta, vm, pm — behind sockets: the
    driver's registry holds only remote peers, the workload round-trips,
    the inspection surface (vm/pm proxies, server stats) reads over the
    wire, and a clean close exits every agent 0."""
    dep = build_tcp(
        DeploymentSpec(n_data=3, n_meta=2, cache_capacity=0),
        control_plane="agents",
    )
    try:
        assert dep.remote_control_plane
        assert dep.in_parent_actors() == []
        assert isinstance(dep.vm, VersionManagerProxy)
        assert isinstance(dep.pm, ProviderManagerProxy)
        # the launched layout: vm and pm agents first, then storage nodes
        assert [a.actor_names for a in dep.agents] == [
            ["vm"], ["pm"], ["data/0", "meta/0"], ["data/1", "meta/1"],
            ["data/2"],
        ]
        assert dep.pm.providers() == [0, 1, 2]

        client = dep.client("remote-cp")
        blob = client.alloc(TOTAL, PAGE)
        res = client.write(blob, fill(1) * 2, 0)
        assert client.read_bytes(blob, 0, 2 * PAGE, version=res.version) == fill(1) * 2
        assert dep.vm.get_latest(blob) == 1
        assert dep.vm.patches(blob) == [(1, 0, 2 * PAGE)]
        assert dep.total_pages_stored() == 2

        stats = dep.driver.server_stats()
        assert "vm" in stats and "pm" in stats  # control actors answer stats
        assert stats["vm"][0] > 0
    finally:
        dep.close()
    assert dep.agent_exitcodes() == [0] * 5


def test_replica_failover_with_remote_control_plane():
    """Replica fail-over must survive a storage-agent death even when the
    pm that allocated the replicas lives on its own agent: the vm/pm
    peers stay up, reads retry onto the surviving copy."""
    dep = build_tcp(
        DeploymentSpec(n_data=3, n_meta=2, replication=2, cache_capacity=0),
        control_plane="agents",
    )
    try:
        client = dep.client("failover")
        blob = client.alloc(TOTAL, PAGE)
        data = fill(3) + fill(4)
        res = client.write(blob, data, 0)
        victim = next(
            pid for pid, proxy in dep.data.items()
            if any(True for _ in proxy.iter_pages(blob))
        )
        dep.kill_agent(dep.agent_index_for(("data", victim)))
        assert client.read_bytes(blob, 0, len(data), version=res.version) == data
        assert dep.vm.get_latest(blob) == 1  # control plane unaffected
    finally:
        dep.close()


# ---------------------------------------------------------------------------
# pm registration: at agent start, and again after a restart
# ---------------------------------------------------------------------------


def test_data_agent_registers_with_pm_at_start_and_after_restart():
    """The paper's §III.A membership protocol over real sockets: a data
    agent told where the pm lives registers its providers at start; a
    *restarted* agent replays that registration, so a provider evicted
    while its node was down rejoins the allocation pool with no
    deployment-builder involvement."""
    pm_agent = NodeAgent({"pm": build_actor("pm")[1]})
    pm_agent.start()
    driver = ThreadedDriver()
    first = NodeAgent(
        {("data", 0): build_actor("data/0")[1]},
        pm_endpoint=pm_agent.endpoint,
    )
    first.start()
    try:
        driver.register_remote("pm", pm_agent.endpoint)
        driver.wait_connected()
        assert first.pm_registered.wait(JOIN_TIMEOUT), "agent never registered"
        assert driver.call("pm", "pm.providers") == [0]

        # the node goes down; the operator (or a failure detector) evicts it
        first.close()
        assert driver.call("pm", "pm.deregister", (0,)) == 0
        assert driver.call("pm", "pm.providers") == []

        # the node comes back: registration replays from the agent itself
        second = NodeAgent(
            {("data", 0): build_actor("data/0")[1]},
            pm_endpoint=pm_agent.endpoint,
        )
        second.start()
        try:
            assert second.pm_registered.wait(JOIN_TIMEOUT), "restart never re-registered"
            assert driver.call("pm", "pm.providers") == [0]
        finally:
            second.close()
    finally:
        first.close()
        driver.close()
        pm_agent.close()


def test_registration_retries_until_pm_comes_up():
    """Start order must not matter: an agent whose pm endpoint is not yet
    listening keeps retrying with backoff and registers the moment the pm
    agent appears (the launched builder starts the pm first, but real
    clusters make no such promise)."""
    # reserve an endpoint, then free it: nothing listens there yet
    placeholder = socket_mod.create_server(("127.0.0.1", 0))
    pm_port = placeholder.getsockname()[1]
    placeholder.close()

    agent = NodeAgent(
        {("data", 4): build_actor("data/4")[1]},
        pm_endpoint=f"127.0.0.1:{pm_port}",
    )
    agent.start()
    pm_agent = None
    try:
        assert not agent.pm_registered.wait(0.3)  # pm is not up yet
        pm_agent = NodeAgent({"pm": build_actor("pm")[1]}, port=pm_port)
        pm_agent.start()
        assert agent.pm_registered.wait(JOIN_TIMEOUT), (
            "agent never registered after the pm came up"
        )
        assert pm_agent._services["pm"].actor.providers() == [4]
    finally:
        agent.close()
        if pm_agent is not None:
            pm_agent.close()


def test_close_cancels_in_flight_registration():
    """A stopped agent must not register itself afterwards: ``close()``
    severs an in-flight registration connection and reaps the thread
    promptly, so an operator taking a node down never races it back into
    the allocation pool. Driven deterministically with a pm actor that
    stalls inside ``pm.register``."""

    class StallingPm:
        def __init__(self):
            self.entered = threading.Event()
            self.release = threading.Event()

        def handle(self, method, args):
            self.entered.set()
            self.release.wait(JOIN_TIMEOUT)
            return 1

    stall = StallingPm()
    pm_agent = NodeAgent({"pm": stall})
    pm_agent.start()
    agent = NodeAgent(
        {("data", 0): build_actor("data/0")[1]},
        pm_endpoint=pm_agent.endpoint,
    )
    agent.start()
    try:
        assert stall.entered.wait(JOIN_TIMEOUT), "registration never reached pm"
        start = time.monotonic()
        agent.close()  # must sever the registration socket, not wait it out
        register_thread = agent._register_thread
        assert register_thread is not None
        register_thread.join(timeout=2.0)
        assert not register_thread.is_alive(), "registration survived close"
        assert time.monotonic() - start < 3.0, "close waited out the stall"
        assert not agent.pm_registered.is_set()
    finally:
        stall.release.set()
        agent.close()
        pm_agent.close()


def test_serve_forever_on_a_closed_agent_returns():
    """``close()`` may win the race against the serve thread: the serve
    loop then meets a closed listener and returns, instead of raising
    ``OSError`` (EBADF) from the serve thread."""
    agent = NodeAgent({("data", 0): build_actor("data/0")[1]})
    agent.close()
    agent.serve_forever()
    assert agent.wait_stopped(0)


def test_scrape_after_a_committed_drain():
    """The OPERATIONS.md scale-out/drain sequence, then every scrape
    surface: a drained provider leaves the driver's address book, so the
    served-side counters and the metrics document read the survivors
    instead of raising ``PeerUnavailable`` for the retired peer. A
    version written after the join still reads back: its leaves record
    the drained provider, and the call there fails typed, which sends
    the read to ``pm.locate``."""
    spec = DeploymentSpec(
        n_data=2, n_meta=2, strategy="hash_ring", cache_capacity=0
    )
    with build_tcp(spec, control_plane="agents") as dep:
        client = dep.client("operator")
        blob = client.alloc(16 * PAGE, PAGE)
        v1 = client.write(blob, fill(7) * 16, 0).version
        new_id = dep.add_agent()
        assert dep.rebalance()["committed"]
        v2 = client.write(blob, fill(8) * 16, 0).version
        drained = ("data", new_id)
        assert dep.driver.telemetry(drained)["sub_calls"] > 0
        assert dep.drain_agent(new_id)["committed"]
        assert drained not in dep.driver.server_stats()
        assert drained not in dep.workload_stats()
        assert "data/%d" % new_id not in dep.metrics()["actors"]
        assert client.read_bytes(blob, 0, 16 * PAGE, version=v1) == fill(7) * 16
        assert client.read_bytes(blob, 0, 16 * PAGE, version=v2) == fill(8) * 16


# ---------------------------------------------------------------------------
# vm on its own agent: kill -> typed failure -> restart -> recovery
# ---------------------------------------------------------------------------


def test_vm_agent_kill_gives_typed_publish_failure_then_recovers():
    """The serialization point going down must fail writes *fast and
    typed* (RemoteError naming the unreachable peer — never a hang), and
    a vm agent restarted on the same endpoint must resume service through
    the reconnect backoff: new blobs allocate and publish with no driver
    restart. State the old vm held is gone (it has no persistence tier),
    which must surface as the typed BlobNotFound, not corruption."""
    agents = [
        NodeAgent({"vm": build_actor("vm")[1]}),
        NodeAgent({"pm": build_actor("pm")[1]}),
        NodeAgent({("data", 0): build_actor("data/0")[1],
                   ("meta", 0): build_actor("meta/0")[1]}),
    ]
    for a in agents:
        a.start()
    vm_agent, pm_agent, storage_agent = agents
    vm_port = vm_agent.endpoint.port
    endpoints = {
        "vm": str(vm_agent.endpoint),
        "pm": str(pm_agent.endpoint),
        "data/0": str(storage_agent.endpoint),
        "meta/0": str(storage_agent.endpoint),
    }
    dep = build_tcp(
        DeploymentSpec(n_data=1, n_meta=1, cache_capacity=0),
        endpoints=endpoints,
    )
    revived = None
    try:
        assert dep.remote_control_plane  # inferred from the endpoint map
        client = dep.client("vm-kill")
        blob = client.alloc(TOTAL, PAGE)
        res = client.write(blob, fill(7), 0)
        assert res.published

        vm_agent.close()  # the vm's host goes down
        wait_until(
            lambda: not dep.driver.peer("vm").connected,
            what="vm peer noticing the death",
        )
        start = time.monotonic()
        with pytest.raises(RemoteError) as exc_info:
            client.write(blob, fill(8), 0)  # assign/publish both need the vm
        assert "PeerUnavailable" in str(exc_info.value)
        assert time.monotonic() - start < 2.0, "publish failure was not fast"

        # restart: a fresh vm on the same endpoint; the connector redials
        revived = NodeAgent({"vm": build_actor("vm")[1]}, port=vm_port)
        revived.start()
        assert dep.driver.peer("vm").wait_connected(timeout=15), (
            "driver never redialed the revived vm agent"
        )
        # the old blob died with the old vm: typed error, not corruption
        with pytest.raises(BlobNotFound):
            client.read_bytes(blob, 0, PAGE)
        # the stateless restart recycles blob ids, and the providers'
        # surviving *immutable* state refuses the recycled (blob,
        # version) — again typed, never silent corruption (a persistent
        # vm tier is the paper's future-work answer to this)
        recycled = client.alloc(TOTAL, PAGE)
        assert recycled == blob
        with pytest.raises(ImmutabilityViolation):
            client.write(recycled, fill(8), 0)
        # but the deployment is live again: fresh blobs publish end to end
        blob2 = client.alloc(TOTAL, PAGE)
        assert blob2 != blob
        res2 = client.write(blob2, fill(9), 0)
        assert res2.published
        assert client.read_bytes(blob2, 0, PAGE, version=res2.version) == fill(9)
    finally:
        dep.close()
        if revived is not None:
            revived.close()
        for a in agents:
            a.close()


# ---------------------------------------------------------------------------
# handshake: pipelined hello against a control-plane agent (raw socket)
# ---------------------------------------------------------------------------


def test_pipelined_hello_to_vm_agent_is_honored():
    """Control-plane agents speak the exact storage-agent wire protocol:
    a client may pipeline vm RPCs behind its hello, and the agent must
    resume the stream where the handshake left it — including a partial
    frame straddling the handshake/service boundary."""
    agent = NodeAgent({"vm": build_actor("vm")[1]})
    agent.start()
    sock = socket_mod.create_connection(
        (agent.endpoint.host, agent.endpoint.port), timeout=10
    )
    try:
        sock.setsockopt(socket_mod.IPPROTO_TCP, socket_mod.TCP_NODELAY, 1)
        stream = (
            encode_message(0, ("hello", "vm"))
            + encode_message(1, ("rpc", [("vm.alloc", (TOTAL, PAGE))]))
            + encode_message(2, ("rpc", [("vm.alloc", (TOTAL, PAGE))]))
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
            assert nbytes, "vm agent closed a pipelined connection"
            for req_id, body in decoder.buffer_updated(nbytes):
                seen[req_id] = decode_body(body)
        assert seen[0] == ("welcome", "vm")
        # served in pipeline order: the vm minted sequential blob ids
        assert seen[1] == ["blob-000001"]
        assert seen[2] == ["blob-000002"]
    finally:
        sock.close()
        agent.close()


# ---------------------------------------------------------------------------
# builder surface: inference, registration replay, config errors
# ---------------------------------------------------------------------------


def test_connected_mode_replays_registration_for_bare_agents():
    """Operator-run agents that were started *without* ``--pm`` (so they
    never self-registered) must still produce a working deployment: the
    builder replays deployment-wide ``pm.register`` over the wire before
    returning, and close() shuts the operator's agents down cleanly."""
    agents = [
        NodeAgent({"vm": build_actor("vm")[1]}),
        NodeAgent({"pm": build_actor("pm")[1]}),
        NodeAgent({("data", 0): build_actor("data/0")[1],
                   ("meta", 0): build_actor("meta/0")[1]}),
        NodeAgent({("data", 1): build_actor("data/1")[1]}),
    ]
    for a in agents:
        a.start()
    endpoints = {
        "vm": str(agents[0].endpoint),
        "pm": str(agents[1].endpoint),
        "data/0": str(agents[2].endpoint),
        "meta/0": str(agents[2].endpoint),
        "data/1": str(agents[3].endpoint),
    }
    dep = build_tcp(
        DeploymentSpec(n_data=2, n_meta=1, cache_capacity=0, endpoints=endpoints)
    )
    try:
        assert dep.agents == []  # nothing launched: agents are "elsewhere"
        assert dep.remote_control_plane
        assert dep.pm.providers() == [0, 1]  # the builder's replay
        client = dep.client("ext")
        blob = client.alloc(TOTAL, PAGE)
        res = client.write(blob, fill(2) * 3, 0)
        assert client.read_bytes(blob, 0, 3 * PAGE, version=res.version) == fill(2) * 3
    finally:
        dep.close()
        for a in agents:
            assert a.wait_stopped(timeout=10)


def test_control_plane_config_errors():
    cmap = ClusterMap({"vm": "127.0.0.1:1", "pm": "127.0.0.1:1"})
    assert cmap.has_control_plane()
    assert not ClusterMap({"vm": "127.0.0.1:1"}).has_control_plane()

    with pytest.raises(ConfigError):
        build_tcp(DeploymentSpec(n_data=1, n_meta=1), control_plane="bogus")
    # agents mode over explicit endpoints needs vm AND pm entries
    with pytest.raises(ConfigError):
        build_tcp(
            DeploymentSpec(n_data=1, n_meta=1),
            endpoints={"data/0": "127.0.0.1:1", "meta/0": "127.0.0.1:1",
                       "vm": "127.0.0.1:1"},
            control_plane="agents",
        )
    # naming control endpoints while keeping the control plane in-parent
    # is contradictory: refuse instead of silently ignoring the entries
    with pytest.raises(ConfigError):
        build_tcp(
            DeploymentSpec(n_data=1, n_meta=1),
            endpoints={"data/0": "127.0.0.1:1", "meta/0": "127.0.0.1:1",
                       "vm": "127.0.0.1:1", "pm": "127.0.0.1:1"},
            control_plane="parent",
        )
    # a *partial* control map (only one of vm/pm) must refuse too — a
    # silent fall-back would build a fresh in-parent vm next to the
    # operator's vm agent: two disjoint version histories
    with pytest.raises(ConfigError):
        build_tcp(
            DeploymentSpec(n_data=1, n_meta=1),
            endpoints={"data/0": "127.0.0.1:1", "meta/0": "127.0.0.1:1",
                       "vm": "127.0.0.1:1"},
        )
    # a bad pm endpoint is rejected before the agent binds its listener
    with pytest.raises(ConfigError):
        NodeAgent({("data", 0): build_actor("data/0")[1]},
                  pm_endpoint="not-an-endpoint")


def test_pm_config_mismatch_fails_the_build():
    """An operator's pm agent started with different allocation settings
    than the client's DeploymentSpec assumes must fail the build loudly:
    a silent replication mismatch would surface only as data loss at the
    first storage-node failure."""
    agents = [
        NodeAgent({"vm": build_actor("vm")[1]}),
        NodeAgent({"pm": build_actor("pm")[1]}),  # replication=1
        NodeAgent({("data", 0): build_actor("data/0")[1],
                   ("meta", 0): build_actor("meta/0")[1]}),
        NodeAgent({("data", 1): build_actor("data/1")[1],
                   ("meta", 1): build_actor("meta/1")[1]}),
    ]
    for a in agents:
        a.start()
    endpoints = {
        "vm": str(agents[0].endpoint),
        "pm": str(agents[1].endpoint),
        **{f"data/{i}": str(agents[2 + i].endpoint) for i in range(2)},
        **{f"meta/{i}": str(agents[2 + i].endpoint) for i in range(2)},
    }
    try:
        with pytest.raises(ConfigError) as exc_info:
            build_tcp(
                DeploymentSpec(n_data=2, n_meta=2, replication=2,
                               cache_capacity=0, endpoints=endpoints)
            )
        assert "replication" in str(exc_info.value)
        # the same agents with a matching spec build fine afterwards
        dep = build_tcp(
            DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0,
                           endpoints=endpoints)
        )
        assert dep.pm.config() == {
            "replication": 1, "strategy": "round_robin", "strategy_kwargs": {},
        }
        dep.close()
    finally:
        for a in agents:
            a.close()


def test_node_cli_rejects_mismatched_strategy_kwargs(capsys):
    """Config mistakes exit 2 with a one-line error — including kwargs
    that do not fit the chosen strategy's constructor."""
    from repro.tools.node import main

    rc = main(["--port", "0", "--actor", "pm",
               "--strategy", "round_robin", "--strategy-kwargs", '{"k": 2}'])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
