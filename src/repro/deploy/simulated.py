"""Simulated deployment: the benchmark substrate.

Builds the paper's topology on the discrete-event cluster: N provider
nodes (each hosting one data provider and one metadata provider, colocated
exactly like the paper's experiments), dedicated version-manager and
provider-manager nodes, and a set of client nodes, each with its own
:class:`~repro.net.simdriver.SimDriver`. Clients are the
:class:`~repro.core.client.BlobClient` of every deployment; protocols run
as simulated processes; all times are simulated seconds.
"""

from __future__ import annotations

from typing import Any, ContextManager

from repro.core.client import AsyncBlobClient, BlobClient
from repro.core.config import DeploymentSpec
from repro.deploy.inproc import _Inspection, build_control_plane, plan_loopback_nodes
from repro.metadata.provider import MetadataProvider
from repro.metadata.router import StaticRouter
from repro.net.node import build_actor
from repro.net.simdriver import SimDriver, SimRpcExecutor
from repro.obs.spans import SIM_DOMAIN, operation_scope
from repro.providers.data_provider import DataProvider
from repro.sim.engine import Simulator
from repro.sim.network import ClusterSpec, Network, SimNode


class SimDeployment(_Inspection):
    """Actors placed on simulated nodes, and one driver per client node
    (``driver`` is client node 0's, so ``dep.driver.run(proto)`` works as
    on every deployment). Inspection (``blob_nodes``,
    ``total_pages_stored``, ...) reads the actors directly, in zero
    simulated time."""

    def __init__(
        self,
        spec: DeploymentSpec | None = None,
        cluster: ClusterSpec | None = None,
    ) -> None:
        self.spec = spec or DeploymentSpec()
        self.sim = Simulator()
        self.network = Network(self.sim, cluster)
        self.executor = SimRpcExecutor(self.sim, self.network)

        self.vm, self.pm = build_control_plane(self.spec)
        self.executor.register("vm", self.vm, self.network.add_node("vm-node"))
        self.executor.register("pm", self.pm, self.network.add_node("pm-node"))

        self.data: dict[int, DataProvider] = {}
        self.meta: dict[int, MetadataProvider] = {}
        stores = {"data": self.data, "meta": self.meta}
        # colocated, node ``prov-i`` hosts data provider i and metadata
        # provider i (the layout of every experiment in the paper)
        for i, names in enumerate(plan_loopback_nodes(self.spec)):
            node = self.network.add_node(
                f"prov-{i}" if self.spec.colocate else names[0].replace("/", "-")
            )
            for name in names:
                address, actor = build_actor(
                    name, checksum=self.spec.page_checksums
                )
                stores[address[0]][address[1]] = actor
                self.executor.register(address, actor, node)

        self.router = StaticRouter(
            sorted(self.meta), self.spec.replication, self.spec.meta_subtree_bytes
        )
        self.client_nodes: list[SimNode] = [
            self.network.add_node(f"client-{i}", role="client")
            for i in range(self.spec.n_clients)
        ]
        self.drivers = [SimDriver(self.executor, node) for node in self.client_nodes]
        self.driver = self.drivers[0]

    # -- clients ----------------------------------------------------------

    def client(
        self, index: int = 0, *, cached: bool | None = None, name: str | None = None
    ) -> BlobClient:
        """A blocking client on client node ``index``'s driver: each call
        runs the simulation until its op ends.

        ``cached`` overrides the spec: True gives the client a metadata
        cache (the "Read (cached metadata)" series), False disables it
        (the paper's worst-case uncached experiment). A client learns a
        blob's geometry with one ``vm.stat`` on first use: open the blob
        (or alloc through the client) before any measured window.
        """
        return self._client(BlobClient, index, cached, name)

    def async_client(
        self, index: int = 0, *, cached: bool | None = None, name: str | None = None
    ) -> AsyncBlobClient:
        """:meth:`client` whose methods return process bodies, to
        ``yield from`` inside simulated processes (concurrent clients)."""
        return self._client(AsyncBlobClient, index, cached, name)

    def _client(
        self, cls: type[BlobClient], index: int, cached: bool | None, name: str | None
    ) -> BlobClient:
        capacity = self.spec.cache_capacity
        if cached is True and capacity == 0:
            capacity = 1 << 20
        if cached is False:
            capacity = 0
        return cls(
            self.drivers[index],
            self.router,
            name=name or f"sim-client-{index}",
            cache_capacity=capacity,
            elastic=self.spec.strategy == "hash_ring",
        )

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

    def run(self, until: Any = None) -> Any:
        return self.sim.run(until)

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
        """The unified telemetry document (``repro.metrics/1``) for a
        finished simulation: the same per-actor/per-method quantile shape
        the live drivers scrape, plus a ``nodes`` section re-exporting
        the simulator's per-node cpu/tx/rx lane utilization.
        Service times are *host* nanoseconds around handler bodies (hot
        handlers), utilization is *simulated* (modelled contention)."""
        from repro.obs.metrics import scrape_driver, sim_node_entries

        doc = scrape_driver(self.executor, source="simulated")
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
