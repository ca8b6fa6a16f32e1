"""Threaded deployment: real concurrency, one service thread per actor.

This is the deployment used to *demonstrate* (not time — see DESIGN.md on
the GIL) the paper's concurrency properties: readers and writers in
arbitrary interleavings, writers completing out of order, in-order
publication, and the absence of any shared lock on the data path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.client import BlobClient
from repro.core.config import DeploymentSpec
from repro.metadata.provider import MetadataProvider, blob_nodes
from repro.metadata.router import StaticRouter
from repro.net.threaded import ThreadedDriver
from repro.providers.data_provider import DataProvider
from repro.providers.manager import ProviderManager
from repro.providers.strategies import make_strategy
from repro.version.manager import VersionManager


@dataclass
class ThreadedDeployment:
    spec: DeploymentSpec
    driver: ThreadedDriver
    router: StaticRouter
    vm: VersionManager
    pm: ProviderManager
    data: dict[int, DataProvider]
    meta: dict[int, MetadataProvider]
    _clients: list[BlobClient] = field(default_factory=list)

    def client(self, name: str | None = None) -> BlobClient:
        c = BlobClient(
            self.driver,
            self.router,
            name=name,
            cache_capacity=self.spec.cache_capacity,
            elastic=self.spec.strategy == "hash_ring",
        )
        self._clients.append(c)
        return c

    @property
    def data_ids(self) -> list[int]:
        return sorted(self.data)

    @property
    def meta_ids(self) -> list[int]:
        return sorted(self.meta)

    def total_pages_stored(self) -> int:
        return sum(p.page_count for p in self.data.values())

    def blob_nodes(self, blob_id: str) -> list:
        """Every stored tree node of a blob across all metadata providers
        (inspection surface shared with the other deployments; the
        cross-driver conformance suite compares these)."""
        return blob_nodes(self.meta.values(), blob_id)

    def transport_stats(self) -> dict[str, int]:
        """Batched-transport counters (see ThreadedDriver.transport_stats)."""
        return self.driver.transport_stats()

    def metrics(self) -> dict:
        """The unified telemetry document (``repro.metrics/1``): per-actor
        per-method service-time quantiles plus wire counters, read from
        the service threads' accumulators (see :mod:`repro.obs.metrics`)."""
        from repro.obs.metrics import scrape_driver

        return scrape_driver(self.driver, source="threaded")

    def add_data_provider(self) -> int:
        """A provider joining the running system on its own service thread
        (paper: providers may dynamically join). Mirrors
        ``InprocDeployment.add_data_provider``; pair with
        :mod:`repro.providers.rebalance` to migrate pages to it."""
        new_id = max(self.data, default=-1) + 1
        dp = DataProvider(new_id, checksum=self.spec.page_checksums)
        self.data[new_id] = dp
        self.driver.register(("data", new_id), dp)
        self.pm.register(new_id)
        return new_id

    def close(self) -> None:
        self.driver.close()

    def __enter__(self) -> "ThreadedDeployment":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def build_threaded(spec: DeploymentSpec | None = None) -> ThreadedDeployment:
    """Assemble a threaded deployment (context-manage it to stop threads)."""
    spec = spec or DeploymentSpec()
    vm = VersionManager()
    pm = ProviderManager(
        make_strategy(spec.strategy, **spec.strategy_kwargs),
        replication=spec.replication,
    )
    data: dict[int, DataProvider] = {
        i: DataProvider(i, checksum=spec.page_checksums) for i in range(spec.n_data)
    }
    meta: dict[int, MetadataProvider] = {
        i: MetadataProvider(i) for i in range(spec.n_meta)
    }
    for i in data:
        pm.register(i)
    driver = ThreadedDriver()
    driver.register("vm", vm)
    driver.register("pm", pm)
    for i, dp in data.items():
        driver.register(("data", i), dp)
    for i, mp in meta.items():
        driver.register(("meta", i), mp)
    router = StaticRouter(sorted(meta), spec.replication, spec.meta_subtree_bytes)
    return ThreadedDeployment(
        spec=spec, driver=driver, router=router, vm=vm, pm=pm, data=data, meta=meta
    )
