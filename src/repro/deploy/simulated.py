"""Simulated deployment: the benchmark substrate.

Builds the paper's topology on the discrete-event cluster: N provider
nodes (each hosting one data provider and one metadata provider, colocated
exactly like the paper's experiments), dedicated version-manager and
provider-manager nodes, and a set of client nodes, each with its own
:class:`~repro.net.simdriver.SimDriver`. It is a
:class:`~repro.deploy.inproc.Deployment` like every other: clients are
the :class:`~repro.core.client.BlobClient` of every deployment, and the
fault surface, wire counters, telemetry and ``close`` are theirs.
Protocols run as simulated processes; all times are simulated seconds.
"""

from __future__ import annotations

from typing import ContextManager

from repro.core.client import AsyncBlobClient, BlobClient
from repro.core.config import DeploymentSpec
from repro.deploy.inproc import Deployment, build_control_plane, plan_loopback_nodes
from repro.errors import ConfigError
from repro.metadata.provider import MetadataProvider
from repro.metadata.router import StaticRouter
from repro.net.node import build_actor
from repro.net.simdriver import SimDriver, SimRpcExecutor
from repro.obs.spans import SIM_DOMAIN, operation_scope
from repro.providers.data_provider import DataProvider
from repro.sim.engine import Simulator
from repro.sim.network import ClusterSpec, Network, SimNode


class SimDeployment(Deployment):
    """Actors placed on simulated nodes, and one driver per client node
    (``driver`` is client node 0's). The drivers share one executor, so
    ``fail`` / ``heal`` through any of them holds for every client.
    Inspection (``blob_nodes``, ``total_pages_stored``, ...) reads the
    actors directly, in zero simulated time."""

    def __init__(
        self,
        spec: DeploymentSpec | None = None,
        cluster: ClusterSpec | None = None,
    ) -> None:
        spec = spec or DeploymentSpec()
        self.sim = Simulator()
        self.network = Network(self.sim, cluster)
        self.executor = SimRpcExecutor(self.sim, self.network)

        vm, pm = build_control_plane(spec)
        self.executor.register("vm", vm, self.network.add_node("vm-node"))
        self.executor.register("pm", pm, self.network.add_node("pm-node"))

        data: dict[int, DataProvider] = {}
        meta: dict[int, MetadataProvider] = {}
        stores = {"data": data, "meta": meta}
        # colocated, node ``prov-i`` hosts data provider i and metadata
        # provider i (the layout of every experiment in the paper)
        for i, names in enumerate(plan_loopback_nodes(spec)):
            node = self.network.add_node(
                f"prov-{i}" if spec.colocate else names[0].replace("/", "-")
            )
            for name in names:
                address, actor = build_actor(name, checksum=spec.page_checksums)
                stores[address[0]][address[1]] = actor
                self.executor.register(address, actor, node)

        self.client_nodes: list[SimNode] = [
            self.network.add_node(f"client-{i}", role="client")
            for i in range(spec.n_clients)
        ]
        self.drivers = [SimDriver(self.executor, node) for node in self.client_nodes]
        router = StaticRouter(sorted(meta), spec.replication, spec.meta_subtree_bytes)
        super().__init__(
            spec=spec, driver=self.drivers[0], router=router, vm=vm, pm=pm,
            data=data, meta=meta, source="simulated",
        )

    # -- clients ----------------------------------------------------------

    def client(
        self, name: str | None = None, *, index: int = 0, cached: bool | None = None
    ) -> BlobClient:
        """A blocking client on client node ``index``'s driver: each call
        runs the simulation until its op ends. ``name`` defaults to
        ``sim-client-<index>`` (write uids derive from it).

        ``cached`` overrides the spec: True gives the client a metadata
        cache (the "Read (cached metadata)" series), False disables it
        (the paper's worst-case uncached experiment). A client learns a
        blob's geometry with one ``vm.stat`` on first use: open the blob
        (or alloc through the client) before any measured window.
        """
        return self._sim_client(BlobClient, name, index, cached)

    def async_client(
        self, name: str | None = None, *, index: int = 0, cached: bool | None = None
    ) -> AsyncBlobClient:
        """:meth:`client` whose methods return process bodies, to
        ``yield from`` inside simulated processes (concurrent clients)."""
        return self._sim_client(AsyncBlobClient, name, index, cached)

    def _sim_client(
        self, cls: type[BlobClient], name: str | None, index: int, cached: bool | None
    ) -> BlobClient:
        capacity = self.spec.cache_capacity
        if cached is True and capacity == 0:
            capacity = 1 << 20
        if cached is False:
            capacity = 0
        name = name or f"sim-client-{index}"
        return self._client(cls, name, self.drivers[index], capacity)

    def add_data_provider(self) -> int:
        raise ConfigError("the simulator's providers are fixed by its DeploymentSpec")

    def traced(self, name: str = "op") -> ContextManager[int]:
        """Trace the ops run inside the block on the simulated clock (a
        context manager yielding the trace id): every wire group records
        its modeled rpc + server spans and the block its op span, so
        :meth:`spans` afterwards holds the ops' complete modeled timeline.
        Recording schedules no events: tracing never moves the model."""
        sim = self.sim
        return operation_scope(
            name,
            collector=self.executor.spans.append,
            covered=False,
            clock=lambda: int(sim.now * 1e9),
            domain=SIM_DOMAIN,
        )

    # -- setup conveniences (zero simulated time) ---------------------------

    def alloc_blob(self, total_size: int, pagesize: int) -> str:
        """Allocate a blob directly on the version manager (setup step —
        not part of any timed experiment)."""
        return self.vm.alloc(total_size, pagesize)

    def warm_client_cache(self, client: BlobClient, blob_id: str) -> int:
        """Fill a client's metadata cache with every stored node of a blob.

        Setup helper for the "Read (cached metadata)" series: the paper
        measures steady-state cached reads, so how the cache got warm is
        outside the measured window. Runs in zero simulated time. Returns
        the number of nodes cached.
        """
        if client.cache is None:
            raise ValueError("client has no metadata cache to warm")
        nodes = self.blob_nodes(blob_id)
        put = client.cache.put
        for node in nodes:
            put(node)
        return len(nodes)

    @property
    def now(self) -> float:
        return self.sim.now

    def counters(self) -> dict[str, int]:
        """Engine-load counters for the perf-regression harness."""
        return {
            "events_processed": self.sim.events_processed,
            "processes_started": self.sim._processes_started,
            "wire_rpcs": self.executor.wire_rpcs,
            "sub_calls": self.executor.sub_calls,
            "messages_sent": self.network.messages_sent,
            "bytes_sent": self.network.bytes_sent,
        }

    def metrics(self) -> dict:
        """:meth:`Deployment.metrics` plus a ``nodes`` section re-exporting
        the simulator's per-node cpu/tx/rx lane utilization. Service times
        are *host* nanoseconds around handler bodies (hot handlers),
        utilization is *simulated* (modelled contention)."""
        from repro.obs.metrics import sim_node_entries

        doc = super().metrics()
        doc["nodes"] = sim_node_entries(self.network)
        return doc

    def spans(self) -> list[dict]:
        """The modeled-timeline spans recorded while traces were open
        (``repro.spans/1`` dicts in simulated-time nanoseconds, clock
        domain :data:`~repro.obs.spans.SIM_DOMAIN` — born aligned), in
        exactly the schema the real drivers' scrape produces, so a
        modeled timeline diffs directly against a measured one through
        :mod:`repro.obs.export`."""
        return list(self.executor.spans)

    def clear_spans(self) -> None:
        """Drop recorded simulated spans (between traced experiments)."""
        self.executor.spans.clear()
