"""Simulated deployment: the benchmark substrate.

Builds the paper's topology on the discrete-event cluster: N provider
nodes (each hosting one data provider and one metadata provider, colocated
exactly like the paper's experiments), dedicated version-manager and
provider-manager nodes, and a set of client nodes. Protocols run as
simulated processes; all times are simulated seconds.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.config import DeploymentSpec
from repro.core.protocol import (
    LATEST,
    alloc_protocol,
    fresh_write_uid,
    read_protocol,
    virtual_pages,
    write_protocol,
)
from repro.deploy.inproc import _Inspection, build_control_plane, plan_loopback_nodes
from repro.metadata.cache import MetadataCache
from repro.metadata.provider import MetadataProvider
from repro.metadata.router import StaticRouter
from repro.metadata.tree import TreeGeometry
from repro.net.node import build_actor
from repro.net.simdriver import SimRpcExecutor
from repro.providers.data_provider import DataProvider
from repro.sim.engine import Process, Simulator
from repro.sim.network import ClusterSpec, Network, SimNode


class SimDeployment(_Inspection):
    """Actors placed on simulated nodes; spawn clients and run protocols.
    Inspection (``blob_nodes``, ``total_pages_stored``, ...) reads the
    actors directly, in zero simulated time."""

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

    # -- clients ----------------------------------------------------------

    def client(
        self, index: int = 0, *, cached: bool | None = None, name: str | None = None
    ) -> "SimClient":
        """A logical client bound to client node ``index``.

        ``cached`` overrides the spec: True gives the client a metadata
        cache (the "Read (cached metadata)" series), False disables it
        (the paper's worst-case uncached experiment).
        """
        capacity = self.spec.cache_capacity
        if cached is True and capacity == 0:
            capacity = 1 << 20
        if cached is False:
            capacity = 0
        return SimClient(
            self,
            self.client_nodes[index],
            name=name or f"sim-client-{index}",
            cache_capacity=capacity,
        )

    # -- setup conveniences (zero simulated time) ---------------------------

    def alloc_blob(self, total_size: int, pagesize: int) -> str:
        """Allocate a blob directly on the version manager (setup step —
        not part of any timed experiment)."""
        return self.vm.alloc(total_size, pagesize)

    def geometry(self, blob_id: str) -> TreeGeometry:
        total_size, pagesize, _ = self.vm.stat(blob_id)
        return TreeGeometry(total_size, pagesize)

    def warm_client_cache(self, client: "SimClient", blob_id: str) -> int:
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


class SimClient:
    """Client facade over the simulated executor.

    ``*_proto`` methods build protocol generators for spawning as
    concurrent processes; the plain methods run one protocol to completion
    synchronously (advancing the simulation).
    """

    def __init__(
        self,
        deployment: SimDeployment,
        node: SimNode,
        name: str,
        cache_capacity: int,
    ) -> None:
        self.dep = deployment
        self.node = node
        self.name = name
        self.cache: MetadataCache | None = (
            MetadataCache(cache_capacity) if cache_capacity > 0 else None
        )

    # -- protocol factories ------------------------------------------------

    def write_virtual_proto(
        self,
        blob_id: str,
        offset: int,
        size: int,
        trace: dict[str, float] | None = None,
    ):
        geom = self.dep.geometry(blob_id)
        return write_protocol(
            blob_id, geom, offset, virtual_pages(size, geom.pagesize),
            self.dep.router, fresh_write_uid(self.name), trace=trace,
        )

    def read_virtual_proto(
        self,
        blob_id: str,
        offset: int,
        size: int,
        version: int = LATEST,
        trace: dict[str, float] | None = None,
    ):
        geom = self.dep.geometry(blob_id)
        return read_protocol(
            blob_id, geom, offset, size, self.dep.router,
            version=version, cache=self.cache, with_data=False, trace=trace,
        )

    # -- process spawning ---------------------------------------------------

    def spawn(self, proto) -> Process:
        """Run a protocol as a concurrent simulated process."""
        return self.dep.sim.process(
            self.dep.executor.run_protocol(proto, self.node), name=self.name
        )

    def spawn_timed(self, proto) -> Process:
        """Like :meth:`spawn`; the process returns ``(value, duration)``."""

        def timed() -> Generator:
            start = self.dep.sim.now
            value = yield from self.dep.executor.run_protocol(proto, self.node)
            return value, self.dep.sim.now - start

        return self.dep.sim.process(timed(), name=f"{self.name}-timed")

    # -- synchronous helpers ---------------------------------------------------

    def run(self, proto) -> Any:
        proc = self.spawn(proto)
        return self.dep.sim.run(until=proc)

    def alloc(self, total_size: int, pagesize: int) -> str:
        return self.run(alloc_protocol(total_size, pagesize))

    def write_virtual(self, blob_id: str, offset: int, size: int):
        return self.run(self.write_virtual_proto(blob_id, offset, size))

    def read_virtual(self, blob_id: str, offset: int, size: int, version: int = LATEST):
        return self.run(self.read_virtual_proto(blob_id, offset, size, version))

    def timed(self, proto) -> tuple[Any, float]:
        """Run a protocol synchronously; returns ``(value, sim_duration)``."""
        proc = self.spawn_timed(proto)
        return self.dep.sim.run(until=proc)

    def traced(self, proto, name: str = "op") -> tuple[Any, int]:
        """Run a protocol synchronously under a trace; returns
        ``(value, trace_id)``.

        The executor records every wire group's rpc + serving spans in
        simulated time, and this helper adds the operation's own root
        span, so :meth:`SimDeployment.spans` afterwards holds a complete
        modeled timeline for the operation.
        """
        from repro.obs.spans import SIM_DOMAIN, operation_scope

        sim = self.dep.sim
        with operation_scope(
            name,
            collector=self.dep.executor.spans.append,
            covered=False,
            clock=lambda: int(sim.now * 1e9),
            domain=SIM_DOMAIN,
        ) as tid:
            return self.run(proto), tid
