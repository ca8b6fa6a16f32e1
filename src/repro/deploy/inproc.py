"""The deployment assembly every builder shares, and the in-process builder.

``build_inproc``, ``build_threaded`` and ``build_tcp`` all return a
:class:`Deployment`, and ``SimDeployment`` is one.
:func:`build_control_plane` (the vm and pm) and
:func:`plan_loopback_nodes` (which actors share a node) serve every
builder, the simulator included.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.core.client import BlobClient
from repro.core.config import DeploymentSpec
from repro.metadata.provider import MetadataProvider, blob_nodes
from repro.metadata.router import StaticRouter
from repro.net.address import format_actor
from repro.net.inproc import InprocDriver
from repro.net.node import build_actor
from repro.net.sansio import Driver, served_counts
from repro.providers.data_provider import DataProvider
from repro.providers.manager import ProviderManager
from repro.version.manager import VersionManager


@dataclass
class Deployment:
    """All actors plus the driver that reaches them and the router clients
    plan with. ``data``/``meta`` (and ``vm``/``pm``) are the live actors,
    or on a TCP cluster proxies with the same inspection surface, which
    reads them directly."""

    spec: DeploymentSpec
    #: InprocDriver, ThreadedDriver, AioDriver or SimDriver
    driver: Driver
    router: StaticRouter
    vm: Any
    pm: Any
    data: dict[int, Any]
    meta: dict[int, Any]
    #: ``metrics()["source"]``: which builder assembled the deployment
    source: str = "inproc"
    #: :func:`~repro.net.sansio.served_counts` when the build returned —
    #: the deployment's own setup traffic, which :meth:`workload_stats`
    #: subtracts from the incarnation it was read of (empty if none)
    stats_base: dict = field(default_factory=dict)
    #: caller-side transport counters at build time (the builder's own
    #: calls); subtract from ``transport_stats()`` for workload-only counts
    transport_base: dict = field(default_factory=dict)

    @property
    def data_ids(self) -> list[int]:
        return sorted(self.data)

    @property
    def meta_ids(self) -> list[int]:
        return sorted(self.meta)

    def total_pages_stored(self) -> int:
        return sum(p.page_count for p in self.data.values())

    def total_nodes_stored(self) -> int:
        return sum(p.node_count for p in self.meta.values())

    def blob_nodes(self, blob_id: str) -> list:
        """Every stored tree node of a blob across all metadata providers
        (the cross-driver conformance suite compares these)."""
        return blob_nodes(self.meta.values(), blob_id)

    def client(self, name: str | None = None) -> BlobClient:
        """A blocking client sharing the deployment's driver."""
        return self._client(BlobClient, name)

    def _client(
        self, cls: type[BlobClient], name: str | None, driver: Any = None,
        capacity: int | None = None,
    ) -> BlobClient:
        # the one constructor body: the aio deployment's async_client and
        # the simulator's clients (one driver per client node) too
        return cls(
            driver or self.driver,
            self.router,
            name=name,
            cache_capacity=self.spec.cache_capacity if capacity is None else capacity,
        )

    def transport_stats(self) -> dict[str, int] | None:
        """Caller-side transport counters
        (:meth:`~repro.net.threaded.PeerRegistry.transport_stats`);
        ``None`` on inproc and the simulator, which have none."""
        return self.driver.transport_stats()

    def workload_stats(self) -> dict | None:
        """Per-actor ``(wire_rpcs, sub_calls)`` with the deployment's own
        setup traffic (:attr:`stats_base`) subtracted — the counts the
        *workload* generated; ``None`` on inproc, which has no wire layer.
        A base is subtracted only from the incarnation it was read of (a
        restarted agent counts from zero). Scrapes travel as controls,
        invisible to these counters, so one between two reads of this
        never perturbs the difference."""
        stats = {}
        for address, (rpcs, calls, domain) in served_counts(self.driver).items():
            if rpcs is None:
                return None
            base = self.stats_base.get(address)
            if base is not None and base[2] == domain:
                rpcs, calls = rpcs - base[0], calls - base[1]
            stats[address] = (rpcs, calls)
        return stats

    def metrics(self) -> dict:
        """The unified telemetry document (``repro.metrics/1``): per-actor
        per-method latency quantiles plus wire counters (``None`` on
        inproc); see :mod:`repro.obs.metrics`."""
        from repro.obs.metrics import scrape_driver

        return scrape_driver(self.driver, source=self.source)

    def add_data_provider(self) -> int:
        """A provider joining the running system in this process (paper:
        providers may dynamically join); pair with
        :mod:`repro.providers.rebalance` to migrate pages to it."""
        new_id = max(self.data, default=-1) + 1
        dp = DataProvider(new_id, checksum=self.spec.page_checksums)
        self.data[new_id] = dp
        self.driver.register(("data", new_id), dp)
        # through the driver: an in-parent pm is served (and its journal
        # appended) by one thread only
        self.driver.call("pm", "pm.register", (new_id,))
        return new_id

    def close(self) -> None:
        """Close the driver (its peers and in-parent actors), then close
        the vm and pm: journaled ones compact, as on a node agent's
        shutdown control, so the next incarnation replays nothing."""
        self.driver.close()
        self.vm.close()
        self.pm.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def build_control_plane(
    spec: DeploymentSpec, state_dir: str | os.PathLike | None = None
) -> tuple[VersionManager, ProviderManager]:
    """The version manager and provider manager for ``spec``
    (:func:`~repro.net.node.build_actor` builds both), the pm already
    knowing data providers ``0 .. n_data-1``. With ``state_dir`` both are
    durable: the vm journals under ``<state_dir>/vm``, the pm under
    ``<state_dir>/pm``."""
    _, vm = build_actor("vm", state_dir=state_dir)
    _, pm = build_actor(
        "pm",
        strategy=spec.strategy,
        replication=spec.replication,
        state_dir=state_dir,
    )
    for i in range(spec.n_data):
        pm.register(i)
    return vm, pm


def plan_loopback_nodes(spec: DeploymentSpec) -> list[list[str]]:
    """Actor names per cluster node, the paper's colocated layout: node
    ``i`` hosts ``data/i`` and ``meta/i`` (``spec.colocate``), or one node
    per actor when colocation is off. The launched TCP cluster starts one
    agent per entry; the simulator places one simulated node per entry."""
    data = [format_actor(("data", i)) for i in range(spec.n_data)]
    meta = [format_actor(("meta", i)) for i in range(spec.n_meta)]
    if not spec.colocate:
        return [[name] for name in data + meta]
    nodes = []
    for i in range(max(spec.n_data, spec.n_meta)):
        node = []
        if i < spec.n_data:
            node.append(data[i])
        if i < spec.n_meta:
            node.append(meta[i])
        nodes.append(node)
    return nodes


def assemble(spec: DeploymentSpec | None, driver: Any, source: str) -> Deployment:
    """Every actor of ``spec`` registered with one in-process ``driver``
    (the body ``build_inproc`` and ``build_threaded`` share)."""
    spec = spec or DeploymentSpec()
    vm, pm = build_control_plane(spec)
    driver.register("vm", vm)
    driver.register("pm", pm)
    data = {
        i: DataProvider(i, checksum=spec.page_checksums) for i in range(spec.n_data)
    }
    meta = {i: MetadataProvider(i) for i in range(spec.n_meta)}
    for i, dp in data.items():
        driver.register(("data", i), dp)
    for i, mp in meta.items():
        driver.register(("meta", i), mp)
    router = StaticRouter(sorted(meta), spec.replication, spec.meta_subtree_bytes)
    return Deployment(
        spec=spec, driver=driver, router=router, vm=vm, pm=pm,
        data=data, meta=meta, source=source,
    )


def build_inproc(spec: DeploymentSpec | None = None) -> Deployment:
    """Assemble an in-process deployment from a topology spec: every actor
    dispatched directly on the caller's thread (the functional substrate
    for tests, examples and the sky pipeline)."""
    return assemble(spec, InprocDriver(), "inproc")
