"""Single-threaded functional deployment."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.client import BlobClient
from repro.core.config import DeploymentSpec
from repro.metadata.provider import MetadataProvider, blob_nodes
from repro.metadata.router import StaticRouter
from repro.net.inproc import InprocDriver
from repro.providers.data_provider import DataProvider
from repro.providers.manager import ProviderManager
from repro.providers.strategies import make_strategy
from repro.version.manager import VersionManager


@dataclass
class InprocDeployment:
    """All actors plus the driver and router, in one process."""

    spec: DeploymentSpec
    driver: InprocDriver
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

    def total_nodes_stored(self) -> int:
        return sum(p.node_count for p in self.meta.values())

    def blob_nodes(self, blob_id: str) -> list:
        """Every stored tree node of a blob across all metadata providers
        (inspection surface shared with the other deployments; the
        cross-driver conformance suite compares these)."""
        return blob_nodes(self.meta.values(), blob_id)

    def metrics(self) -> dict:
        """The unified telemetry document (``repro.metrics/1``): per-actor
        per-method latency quantiles recorded at the dispatch point (see
        :mod:`repro.obs.metrics`). No wire layer here, so the wire
        counters are ``None``."""
        from repro.obs.metrics import scrape_driver

        return scrape_driver(self.driver, source="inproc")

    def add_data_provider(self, spill=None) -> int:
        """A provider joining the running system (paper: providers may
        dynamically join)."""
        new_id = max(self.data, default=-1) + 1
        dp = DataProvider(new_id, spill=spill, checksum=self.spec.page_checksums)
        self.data[new_id] = dp
        self.driver.register(("data", new_id), dp)
        self.pm.register(new_id)
        return new_id


def build_inproc(spec: DeploymentSpec | None = None, spills: dict[int, object] | None = None) -> InprocDeployment:
    """Assemble an in-process deployment from a topology spec."""
    spec = spec or DeploymentSpec()
    driver = InprocDriver()
    vm = VersionManager()
    pm = ProviderManager(
        make_strategy(spec.strategy, **spec.strategy_kwargs),
        replication=spec.replication,
    )
    driver.register("vm", vm)
    driver.register("pm", pm)
    data: dict[int, DataProvider] = {}
    spills = spills or {}
    for i in range(spec.n_data):
        dp = DataProvider(i, spill=spills.get(i), checksum=spec.page_checksums)
        data[i] = dp
        driver.register(("data", i), dp)
        pm.register(i)
    meta: dict[int, MetadataProvider] = {}
    for i in range(spec.n_meta):
        mp = MetadataProvider(i)
        meta[i] = mp
        driver.register(("meta", i), mp)
    router = StaticRouter(sorted(meta), spec.replication, spec.meta_subtree_bytes)
    return InprocDeployment(
        spec=spec, driver=driver, router=router, vm=vm, pm=pm, data=data, meta=meta
    )
