"""The deployment assembly every builder shares, and the in-process builder.

``build_inproc``, ``build_threaded`` and ``build_tcp`` all return a
:class:`Deployment`. :func:`build_control_plane` (the vm and pm) and
:func:`plan_loopback_nodes` (which actors share a node) serve every
builder, the simulator included.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.client import BlobClient
from repro.core.config import DeploymentSpec
from repro.metadata.provider import MetadataProvider, blob_nodes
from repro.metadata.router import StaticRouter
from repro.net.address import format_actor
from repro.net.inproc import InprocDriver
from repro.providers.data_provider import DataProvider
from repro.providers.manager import ProviderManager
from repro.providers.strategies import make_strategy
from repro.version.manager import VersionManager


class _Inspection:
    """Read-only views over the ``data`` and ``meta`` providers, shared by
    every deployment (simulated ones included)."""

    data: dict[int, Any]
    meta: dict[int, Any]

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


@dataclass
class Deployment(_Inspection):
    """All actors plus the driver that reaches them and the router clients
    plan with. ``data``/``meta`` (and ``vm``/``pm``) are the live actors,
    or on a TCP cluster proxies with the same inspection surface."""

    spec: DeploymentSpec
    #: InprocDriver, ThreadedDriver (threaded and TCP deployments) or
    #: AioDriver
    driver: Any
    router: StaticRouter
    vm: Any
    pm: Any
    data: dict[int, Any]
    meta: dict[int, Any]
    #: ``metrics()["source"]``: which builder assembled the deployment
    source: str = "inproc"
    #: per-actor ``(wire_rpcs, sub_calls)`` already served when the build
    #: returned — the deployment's own setup traffic, which
    #: :meth:`workload_stats` subtracts (empty where there was none)
    stats_base: dict = field(default_factory=dict)
    #: caller-side transport counters at build time (the builder's own
    #: calls); subtract from ``transport_stats()`` for workload-only counts
    transport_base: dict = field(default_factory=dict)

    def client(self, name: str | None = None) -> BlobClient:
        """A blocking client sharing the deployment's driver."""
        return self._client(BlobClient, name)

    def _client(self, cls: type[BlobClient], name: str | None) -> BlobClient:
        # the one constructor body: the aio deployment's async_client too
        return cls(
            self.driver,
            self.router,
            name=name,
            cache_capacity=self.spec.cache_capacity,
            elastic=self.spec.strategy == "hash_ring",
        )

    def transport_stats(self) -> dict[str, int] | None:
        """Caller-side transport counters
        (:meth:`~repro.net.threaded.PeerRegistry.transport_stats`, one
        implementation for every real driver); ``None`` on inproc, which
        has no wire layer."""
        if not hasattr(self.driver, "transport_stats"):
            return None
        return self.driver.transport_stats()

    def workload_stats(self) -> dict | None:
        """Per-actor ``(wire_rpcs, sub_calls)`` with the deployment's own
        setup traffic (:attr:`stats_base`) subtracted — the counts the
        *workload* generated; ``None`` on inproc, which has no wire layer.
        Telemetry/stats scrapes travel as controls and are invisible to
        these counters, so scraping between two reads of this never
        perturbs the difference."""
        if not hasattr(self.driver, "server_stats"):
            return None
        return {
            a: (
                r - self.stats_base.get(a, (0, 0))[0],
                c - self.stats_base.get(a, (0, 0))[1],
            )
            for a, (r, c) in self.driver.server_stats().items()
        }

    def metrics(self) -> dict:
        """The unified telemetry document (``repro.metrics/1``): per-actor
        per-method latency quantiles plus wire counters (``None`` on
        inproc); see :mod:`repro.obs.metrics`."""
        from repro.obs.metrics import scrape_driver

        return scrape_driver(self.driver, source=self.source)

    def add_data_provider(self, spill=None) -> int:
        """A provider joining the running system in this process (paper:
        providers may dynamically join); pair with
        :mod:`repro.providers.rebalance` to migrate pages to it."""
        new_id = max(self.data, default=-1) + 1
        dp = DataProvider(new_id, spill=spill, checksum=self.spec.page_checksums)
        self.data[new_id] = dp
        self.driver.register(("data", new_id), dp)
        self.pm.register(new_id)
        return new_id

    def close(self) -> None:
        """Stop the driver's service threads (inproc has none), then close
        the vm and pm: journaled ones compact, as on a node agent's
        shutdown control, so the next incarnation replays nothing."""
        if hasattr(self.driver, "close"):
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
    """The version manager and provider manager for ``spec``, the pm
    already knowing data providers ``0 .. n_data-1``. With ``state_dir``
    both are durable: the vm journals under ``<state_dir>/vm``, the pm
    under ``<state_dir>/pm``."""
    vm_journal = pm_journal = None
    if state_dir is not None:
        from repro.core.journal import Journal

        vm_journal = Journal(Path(state_dir) / "vm")
        pm_journal = Journal(Path(state_dir) / "pm")
    vm = VersionManager(journal=vm_journal)
    pm = ProviderManager(
        make_strategy(spec.strategy, **spec.strategy_kwargs),
        replication=spec.replication,
        journal=pm_journal,
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


def assemble(
    spec: DeploymentSpec | None,
    driver: Any,
    source: str,
    spills: dict[int, object] | None = None,
) -> Deployment:
    """Every actor of ``spec`` registered with one in-process ``driver``
    (the body ``build_inproc`` and ``build_threaded`` share)."""
    spec = spec or DeploymentSpec()
    spills = spills or {}
    vm, pm = build_control_plane(spec)
    driver.register("vm", vm)
    driver.register("pm", pm)
    data = {
        i: DataProvider(i, spill=spills.get(i), checksum=spec.page_checksums)
        for i in range(spec.n_data)
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


def build_inproc(
    spec: DeploymentSpec | None = None, spills: dict[int, object] | None = None
) -> Deployment:
    """Assemble an in-process deployment from a topology spec: every actor
    dispatched directly on the caller's thread (the functional substrate
    for tests, examples and the sky pipeline)."""
    return assemble(spec, InprocDriver(), "inproc", spills)
