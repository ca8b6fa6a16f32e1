"""TCP deployment: the blob store as an actual cluster of OS processes.

Two modes, one code path:

- **launched** (default, ``spec.endpoints`` empty): for every cluster
  node the builder spawns ``python -m repro.tools.node`` as an
  independent OS process bound to an ephemeral loopback port — the
  paper's layout, one agent hosting ``data/i`` + ``meta/i`` per node
  (``spec.colocate``), started, dialed, certified and torn down entirely
  by this module. This is the single-host CI cluster.
- **connected** (``spec.endpoints`` or the ``endpoints=`` argument
  given): the agents are already running — launched by an operator, an
  init system, or on other hosts entirely — and the builder only dials
  them. Nothing else changes: same driver, same handshake, same
  protocols.

Orthogonally, ``control_plane`` picks where the version manager and
provider manager — the intentional serialization points, whose RPCs are
tiny — live:

- ``"parent"``: on dedicated service threads in the driver process (the
  historical tcp layout);
- ``"agents"``: on their own node agents, dialed like any other remote
  actor — the paper's deployment, where the vm and pm get dedicated
  machines and **no actor lives in the client parent**. In launched mode
  the builder spawns one agent for each; in connected mode
  ``spec.endpoints`` must name ``vm`` and ``pm`` (and ``control_plane``
  defaults to ``"agents"`` whenever it does). The pm starts empty; data
  agents register their providers with it at start (they are launched
  with ``--pm``), and the builder blocks until the pm has learned every
  provider, so allocation never races registration.

The returned :class:`TcpDeployment` is a
:class:`~repro.deploy.inproc.Deployment` like every other builder's:
``data`` and ``meta`` are dicts of *proxies* with the ``iter_pages`` /
``iter_nodes`` / ``page_count`` / ``node_count`` surface the in-process
deployments expose from live actor objects (the conformance suite reads
both to prove bit-identical pages and trees), plus vm/pm proxies when
the control plane is remote — all fetching over TCP.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence, Union

from repro.core.client import AsyncBlobClient
from repro.core.config import DeploymentSpec
from repro.deploy.inproc import Deployment, build_control_plane, plan_loopback_nodes
from repro.errors import ConfigError
from repro.metadata.router import StaticRouter
from repro.net.address import CONTROL_ACTORS, ClusterMap, Endpoint, format_actor
from repro.net.aio import AioDriver
from repro.net.threaded import ThreadedDriver
from repro.providers.strategies import make_strategy

#: how long the builder waits for a launched agent's READY line
LAUNCH_TIMEOUT = 30.0


class _ActorProxy:
    """Parent-side view of one actor on a node agent: each inspection
    method is one RPC to it."""

    def __init__(self, driver: Union[ThreadedDriver, AioDriver], address) -> None:
        self._driver = driver
        self._address = address

    def _call(self, method: str, *args):
        return self._driver.call(self._address, method, args)


class DataProviderProxy(_ActorProxy):
    """Parent-side view of a data provider on a node agent."""

    def iter_pages(self, blob_id: str) -> Iterable[tuple]:
        return iter(self._call("data.dump_pages", blob_id))

    @property
    def page_count(self) -> int:
        return self._call("data.stats")["pages"]


class MetadataProviderProxy(_ActorProxy):
    """Parent-side view of a metadata provider on a node agent."""

    def iter_nodes(self, blob_id: str) -> Iterable:
        return iter(self._call("meta.dump_nodes", blob_id))

    @property
    def node_count(self) -> int:
        return self._call("meta.stats")["nodes"]


class VersionManagerProxy(_ActorProxy):
    """Parent-side view of a version manager on its own node agent.

    Exposes the inspection surface deployments and tests read
    (``get_latest``, ``patches``) with the same signatures as a live
    :class:`~repro.version.manager.VersionManager`, each fetched as one
    ``vm.*`` RPC. Protocol traffic (assign/complete/resolve) does not go
    through this proxy — clients reach the remote vm through the driver
    like any other actor.
    """

    def get_latest(self, blob_id: str) -> int:
        return self._call("vm.get_latest", blob_id)

    def patches(self, blob_id: str) -> list[tuple[int, int, int]]:
        return self._call("vm.patches", blob_id)


class ProviderManagerProxy(_ActorProxy):
    """Parent-side view of a provider manager on its own node agent."""

    def providers(self) -> list[int]:
        return self._call("pm.providers")

    def config(self) -> dict:
        return self._call("pm.config")


class _AgentProcess:
    """One launched ``repro.tools.node`` OS process."""

    def __init__(
        self,
        actor_names: list[str],
        host: str,
        checksum: bool,
        extra_args: Sequence[str] = (),
    ) -> None:
        self.actor_names = actor_names
        argv = [
            sys.executable,
            "-m",
            "repro.tools.node",
            "--host",
            host,
            "--port",
            "0",
        ]
        for name in actor_names:
            argv += ["--actor", name]
        if checksum:
            argv.append("--checksum")
        argv += list(extra_args)
        # the agent must import repro no matter how the parent found it
        src_dir = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src_dir
        )
        # kept for respawn(): a restarted agent reruns the same command
        self.argv = argv
        self.env = env
        self._spawn(argv)

    def _spawn(self, argv: list[str]) -> None:
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, env=self.env, text=True
        )
        self.endpoint: Endpoint | None = None

    def respawn(self) -> None:
        """Relaunch a dead agent on the **same** endpoint.

        The original launch used ``--port 0``; the respawn pins the port
        the first incarnation announced, so every peer's automatic
        redial (same ``host:port``) reaches the new process. Follow with
        :meth:`wait_ready`. Only meaningful for agents started with a
        ``--state-dir`` — a stateless vm/pm comes back empty.
        """
        if self.endpoint is None:
            raise RuntimeError("agent was never READY; nothing to respawn")
        if self.proc.poll() is None:
            raise RuntimeError(f"agent {self.actor_names} is still running")
        self.close_pipe()
        argv = list(self.argv)
        argv[argv.index("--port") + 1] = str(self.endpoint.port)
        self._spawn(argv)

    def wait_ready(self, deadline: float) -> Endpoint:
        """Block (bounded) for the agent's ``READY host port`` line."""
        stdout = self.proc.stdout
        assert stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"agent {self.actor_names} not READY within {LAUNCH_TIMEOUT}s"
                )
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"agent {self.actor_names} exited with code "
                    f"{self.proc.returncode} before READY"
                )
            ready, _, _ = select.select([stdout], [], [], min(remaining, 0.2))
            if not ready:
                continue
            line = stdout.readline()
            if not line:
                continue  # poll() above surfaces the exit next iteration
            parts = line.split()
            if len(parts) == 3 and parts[0] == "READY":
                self.endpoint = Endpoint(parts[1], int(parts[2]))
                return self.endpoint
            raise RuntimeError(
                f"agent {self.actor_names} printed {line!r}, expected READY"
            )

    def reap(self, timeout: float = 10.0) -> int | None:
        """Wait for exit; escalate to terminate/kill on a hung agent."""
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
        try:
            return self.proc.wait(5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
        try:
            return self.proc.wait(5)
        except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
            return None

    def kill(self) -> None:
        self.proc.kill()
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:  # pragma: no cover
            pass

    def close_pipe(self) -> None:
        if self.proc.stdout is not None:
            try:
                self.proc.stdout.close()
            except OSError:
                pass


@dataclass
class TcpDeployment(Deployment):
    """A :class:`~repro.deploy.inproc.Deployment` behind node agents, plus
    what only a cluster of OS processes has: launched agents, the cluster
    map, elastic membership and failure injection. ``driver`` is a
    ThreadedDriver or an AioDriver; ``vm``/``pm`` are live objects in the
    parent or proxies to their own agents. With remote vm/pm,
    ``stats_base`` holds the registration traffic — exact for *launched*
    clusters (the builder waits for quiescence); an operator-run agent
    still retrying its ``--pm`` registration can land one late frame.
    """

    source: str = "tcp"
    cluster_map: ClusterMap = field(default_factory=ClusterMap)
    #: True when vm/pm live on their own node agents (zero in-parent actors)
    remote_control_plane: bool = False
    #: launched loopback agents (empty in connected mode)
    agents: list[_AgentProcess] = field(default_factory=list)

    def in_parent_actors(self) -> list:
        """Addresses served by threads inside the client parent — the
        serialization points under ``control_plane="parent"``, the empty
        list when the deployment is fully distributed."""
        remote = set(self.driver.remote_addresses())
        return [a for a in self.driver.addresses() if a not in remote]

    def async_client(self, name: str | None = None) -> AsyncBlobClient:
        """A coroutine-facade client (``build_tcp(..., client="aio")``
        deployments only): :meth:`client` with every method awaitable, on
        the deployment's event-loop driver. Any number of these can run
        concurrently as coroutines — the high-concurrency client tier."""
        if not hasattr(self.driver, "drive"):
            raise ConfigError(
                "async_client() needs the aio driver; build the deployment "
                "with build_tcp(..., client='aio')"
            )
        return self._client(AsyncBlobClient, name)

    # -- elastic membership ----------------------------------------------

    def add_agent(
        self, provider_id: int | None = None, timeout: float = LAUNCH_TIMEOUT
    ) -> int:
        """Launch a new storage agent and admit it to the *running* cluster.

        The agent self-registers with the pm over the PR 5 path (it is
        started with ``--pm`` when the control plane is remote; with an
        in-parent pm the builder registers it directly), the builder
        blocks until the pm knows it, and a provider proxy joins
        :attr:`data`. The new provider receives fresh allocations
        immediately; call :meth:`rebalance` to migrate existing pages to
        their new consistent-hash homes. Launched clusters only.
        """
        if not self.agents:
            raise ConfigError(
                "add_agent launches an OS process; connected clusters "
                "(endpoints=...) are operator-managed"
            )
        new_id = provider_id if provider_id is not None else max(self.data) + 1
        if ("data", new_id) in self.cluster_map:
            raise ConfigError(f"provider {new_id} already deployed")
        name = format_actor(("data", new_id))
        host = self.cluster_map.endpoint_for(("data", min(self.data))).host
        extra: list[str] = []
        if self.remote_control_plane:
            extra = ["--pm", str(self.cluster_map.endpoint_for("pm"))]
        agent = _AgentProcess([name], host, self.spec.page_checksums, extra)
        deadline = time.monotonic() + timeout
        try:
            endpoint = agent.wait_ready(deadline)
        except BaseException:
            agent.kill()
            agent.close_pipe()
            raise
        self.agents.append(agent)
        self.cluster_map.add(name, endpoint)
        self.driver.register_remote(("data", new_id), endpoint)
        self.driver.peer(("data", new_id)).wait_connected(timeout)
        if self.remote_control_plane:
            _await_pm_registration(self.driver, [new_id], deadline)
        else:
            self.pm.register(new_id)
        self.data[new_id] = DataProviderProxy(self.driver, ("data", new_id))
        return new_id

    def rebalance(self, limit_moves: int | None = None) -> dict:
        """Migrate pages to their consistent-hash homes (plan, execute,
        commit — or resume a plan a crash interrupted). Requires the
        ``hash_ring`` strategy; see :mod:`repro.providers.rebalance`."""
        from repro.providers.rebalance import execute_rebalance

        return execute_rebalance(
            self.driver, self.pm.providers(), limit_moves=limit_moves
        )

    def drain_agent(
        self, provider_id: int, limit_moves: int | None = None
    ) -> dict:
        """Drain one storage provider and retire it from the cluster.

        Every page it holds is migrated to the surviving providers'
        hash homes (journaled, resumable), the provider is deregistered,
        and its actor receives a clean shutdown. With ``limit_moves`` the
        drain stops early (``committed`` false) and the provider stays a
        draining member — call again to resume.
        """
        from repro.providers.rebalance import drain_provider

        summary = drain_provider(
            self.driver,
            self.pm.providers(),
            provider_id,
            limit_moves=limit_moves,
        )
        if not summary["committed"]:
            return summary
        address = ("data", provider_id)
        self.driver.unregister(address)
        self.data.pop(provider_id, None)
        for agent in self.agents:
            if agent.actor_names == [format_actor(address)]:
                # the agent hosted only this actor: its serve loop exits now
                agent.reap()
                agent.close_pipe()
        return summary

    # -- failure injection ------------------------------------------------

    def kill_agent(self, index: int) -> None:
        """SIGKILL one launched node agent: every actor it hosts becomes a
        dead peer (RemoteError fail-fast + replica fail-over)."""
        self.agents[index].kill()

    def restart_agent(self, index: int, timeout: float = LAUNCH_TIMEOUT) -> None:
        """Relaunch a killed agent on its original endpoint and wait for
        READY. Peers redial automatically; with a ``state_dir`` the new
        incarnation replays its journal first, so a vm/pm restarted this
        way resumes exactly where the kill interrupted it. Callers that
        need the reconnect to have happened should follow with
        ``deployment.driver.peer(address).wait_connected()``."""
        agent = self.agents[index]
        old = agent.endpoint
        agent.respawn()
        got = agent.wait_ready(time.monotonic() + timeout)
        assert got == old, f"agent restarted on {got}, expected {old}"

    def agent_index_for(self, address) -> int:
        """Which launched agent hosts an actor (colocation-aware)."""
        name = format_actor(address)
        for i, agent in enumerate(self.agents):
            if name in agent.actor_names:
                return i
        raise KeyError(f"no launched agent hosts {name!r}")

    # -- lifecycle --------------------------------------------------------

    def agent_exitcodes(self) -> list[int | None]:
        """Exit codes after :meth:`close` (0 = clean shutdown)."""
        return [a.proc.returncode for a in self.agents]

    def close(self) -> None:
        # orderly: every peer sends its actor the shutdown control, so
        # each agent's serve_forever returns once its last actor stops;
        # an in-parent control plane closes after its threads joined
        if self.remote_control_plane:
            self.driver.close()
        else:
            super().close()
        for agent in self.agents:
            agent.reap()
            agent.close_pipe()


def _await_pm_registration(
    driver: ThreadedDriver, provider_ids: Iterable[int], deadline: float
) -> None:
    """Block until the remote pm has learned every provider in
    ``provider_ids``.

    Launched data agents register themselves (they are started with
    ``--pm``, one wire RPC each); this poll turns that asynchronous
    start-up into the builder's synchronous guarantee that the pm knows
    the whole cluster before the first write allocates anything — and,
    because each agent registers exactly once, that no registration
    traffic trails into the workload (the conformance suite's wire-RPC
    equality depends on that quiescence).
    """
    expected = set(provider_ids)
    while True:
        got = set(driver.call("pm", "pm.providers"))
        if expected <= got:
            return
        if time.monotonic() > deadline:
            missing = sorted(expected - got)
            raise ConfigError(
                f"pm never learned data providers {missing} (agents launched "
                f"with --pm register at start; is the pm agent reachable?)"
            )
        time.sleep(0.05)


def build_tcp(
    spec: DeploymentSpec | None = None,
    *,
    endpoints: dict[str, str] | ClusterMap | None = None,
    host: str = "127.0.0.1",
    connect_timeout: float = 5.0,
    control_plane: str | None = None,
    state_dir: str | os.PathLike | None = None,
    client: str = "threaded",
) -> TcpDeployment:
    """Assemble a TCP cluster deployment (context-manage it to stop it).

    With no ``endpoints`` (and an empty ``spec.endpoints``) a loopback
    cluster of node-agent OS processes is launched; otherwise the given
    agents are dialed. ``control_plane="agents"`` puts the vm and pm on
    their own node agents too (launched, or dialed from the two extra
    ``endpoints`` entries ``"vm"``/``"pm"``) so no actor runs in this
    process; the default ``None`` means ``"agents"`` exactly when the
    endpoint map names both control actors, else ``"parent"``. Either
    way the builder blocks until every peer holds a live connection and
    the pm knows every data provider, so a returned deployment is
    serving and allocatable.

    ``state_dir`` makes the control plane durable: the vm journals under
    ``<state_dir>/vm`` and the pm under ``<state_dir>/pm`` (launched
    agents are started with ``--state-dir``; an in-parent control plane
    journals directly and compacts on a clean ``close()``, as an agent
    does on the shutdown control). Killing a control agent and calling
    :meth:`TcpDeployment.restart_agent` then resumes the same version
    history. In connected mode the operator owns the agents' state dirs,
    so passing one here is a :class:`~repro.errors.ConfigError`.

    ``client`` picks the caller-side transport: ``"threaded"`` (default)
    is the :class:`~repro.net.threaded.ThreadedDriver` (the threaded
    deployment's driver, with a :class:`~repro.net.tcp.TcpPeer` per remote
    actor), whose callers send their own frames, with one receiver thread
    per peer; ``"aio"`` is the
    :class:`~repro.net.aio.AioDriver`, one event loop multiplexing every
    peer socket, which additionally enables
    :meth:`TcpDeployment.async_client` for thousands of concurrent
    client coroutines. The wire traffic is identical either way (the
    conformance suite certifies both against the same fingerprints).
    Both shells stay because each is the faster one on a workload the
    benchmark has, and which the caller needs (blocking callers or
    ``async_client()``) is not observable at build time: a lone blocking
    caller driven through the loop's sync facade measured 13-19 % slower
    than on the peer threads (perfbench ``norm_ops_per_s``, requester's
    runs at PR 24: ``fine_mixed_cold`` 645.7 -> 523.4 and 662.8 -> 575.8,
    ``seg_read_warm`` 498.8 -> 434.0), while ``many_clients_aio`` needs
    the loop to run its 64 coroutine clients at all.
    """
    spec = spec or DeploymentSpec()
    endpoints = endpoints if endpoints is not None else (spec.endpoints or None)
    if control_plane not in (None, "parent", "agents"):
        raise ConfigError(
            f"control_plane must be 'parent' or 'agents', got {control_plane!r}"
        )
    if state_dir is not None and endpoints is not None:
        raise ConfigError(
            "state_dir applies to launched clusters; operator-run agents "
            "(endpoints=...) configure --state-dir on their own command lines"
        )
    if client not in ("threaded", "aio"):
        raise ConfigError(
            f"client must be 'threaded' or 'aio', got {client!r}"
        )

    agents: list[_AgentProcess] = []
    try:
        deadline = time.monotonic() + LAUNCH_TIMEOUT
        if endpoints is None:
            remote_cp = control_plane == "agents"
            cluster_map = ClusterMap()
            # append one at a time: if the k-th launch raises (EMFILE,
            # ENOMEM), the k-1 agents already running must be visible to
            # the except-cleanup below, or they leak as orphan processes
            storage_args: list[str] = []
            if remote_cp:
                # control plane first: storage agents need the pm's
                # endpoint on their command line to self-register
                vm_args: list[str] = []
                pm_args = ["--strategy", spec.strategy,
                           "--replication", str(spec.replication)]
                if spec.strategy_kwargs:
                    pm_args += ["--strategy-kwargs",
                                json.dumps(spec.strategy_kwargs)]
                if state_dir is not None:
                    # one subdirectory (and one agent lock) per agent
                    vm_args += ["--state-dir", str(Path(state_dir) / "vm")]
                    pm_args += ["--state-dir", str(Path(state_dir) / "pm")]
                agents.append(_AgentProcess(["vm"], host, False, vm_args))
                agents.append(_AgentProcess(["pm"], host, False, pm_args))
                cluster_map.add("vm", agents[0].wait_ready(deadline))
                pm_endpoint = agents[1].wait_ready(deadline)
                cluster_map.add("pm", pm_endpoint)
                storage_args = ["--pm", str(pm_endpoint)]
            first_storage = len(agents)
            for names in plan_loopback_nodes(spec):
                agents.append(
                    _AgentProcess(names, host, spec.page_checksums, storage_args)
                )
            for agent in agents[first_storage:]:
                endpoint = agent.wait_ready(deadline)
                for name in agent.actor_names:
                    cluster_map.add(name, endpoint)
        else:
            cluster_map = (
                endpoints
                if isinstance(endpoints, ClusterMap)
                else ClusterMap.from_spec(endpoints)
            )
            if control_plane is None:
                remote_cp = cluster_map.has_control_plane()
            else:
                remote_cp = control_plane == "agents"
            if remote_cp and not cluster_map.has_control_plane():
                raise ConfigError(
                    "control_plane='agents' needs endpoints for 'vm' and 'pm'"
                )
        if not remote_cp and any(a in cluster_map for a in CONTROL_ACTORS):
            # a partial map (only one of vm/pm) must not silently fall
            # back to an in-parent control plane either: a fresh parent
            # vm next to an operator's vm agent means two disjoint
            # version histories
            raise ConfigError(
                "endpoints name a control actor ('vm'/'pm') but the "
                "control plane is in-parent; name both and pass "
                "control_plane='agents' (or drop the entries)"
            )
        storage = [("data", i) for i in range(spec.n_data)]
        storage += [("meta", i) for i in range(spec.n_meta)]
        for address in storage:
            if address not in cluster_map:
                raise ConfigError(f"no endpoint for actor {format_actor(address)!r}")

        driver: Union[ThreadedDriver, AioDriver]
        if client == "aio":
            driver = AioDriver(connect_timeout=connect_timeout)
        else:
            driver = ThreadedDriver(connect_timeout=connect_timeout)
        try:
            if remote_cp:
                driver.register_remote("vm", cluster_map.endpoint_for("vm"))
                driver.register_remote("pm", cluster_map.endpoint_for("pm"))
                vm: Any = VersionManagerProxy(driver, "vm")
                pm: Any = ProviderManagerProxy(driver, "pm")
            else:
                vm, pm = build_control_plane(spec, state_dir)
                driver.register("vm", vm)
                driver.register("pm", pm)
            for address in storage:
                driver.register_remote(address, cluster_map.endpoint_for(address))
            driver.wait_connected(timeout=max(connect_timeout, 10.0))
            if remote_cp:
                # the remote pm must agree with the spec the clients
                # plan around: a silent replication mismatch surfaces
                # only as data loss at the first storage-node failure
                pm_config = driver.call("pm", "pm.config")
                expected = {
                    "replication": spec.replication,
                    "strategy": spec.strategy,
                    # build the spec's strategy locally to resolve
                    # constructor defaults, so {} == {"k": 2, "seed": 0}
                    # compares as the placement-equivalence it is
                    "strategy_kwargs": make_strategy(
                        spec.strategy, **spec.strategy_kwargs
                    ).params(),
                }
                if pm_config != expected:
                    raise ConfigError(
                        f"the pm agent was started with {pm_config}, but "
                        f"DeploymentSpec assumes {expected}; restart the pm "
                        f"with matching --strategy/--replication"
                    )
                if agents:
                    # launched agents self-register; wait for quiescence
                    _await_pm_registration(driver, range(spec.n_data), deadline)
                else:
                    # operator-run agents may predate --pm or still be
                    # registering: replay deployment-wide registration
                    # (idempotent — pm membership is a set)
                    for i in range(spec.n_data):
                        driver.call("pm", "pm.register", (i,))
        except BaseException:
            # hang up without sending shutdown controls: a failed build
            # must never stop an operator's running agents (launched
            # agents are killed by the outer cleanup anyway)
            driver.abort()
            raise
    except BaseException:
        for agent in agents:
            agent.kill()
            agent.close_pipe()
        raise

    return TcpDeployment(
        spec=spec,
        driver=driver,
        router=StaticRouter(
            list(range(spec.n_meta)), spec.replication, spec.meta_subtree_bytes
        ),
        vm=vm,
        pm=pm,
        data={i: DataProviderProxy(driver, ("data", i)) for i in range(spec.n_data)},
        meta={i: MetadataProviderProxy(driver, ("meta", i)) for i in range(spec.n_meta)},
        # telemetry controls are not counted as wire RPCs, so this snapshot
        # is itself invisible to the counters it baselines
        stats_base=driver.server_stats(),
        transport_base=driver.transport_stats(),
        cluster_map=cluster_map,
        remote_control_plane=remote_cp,
        agents=agents,
    )
