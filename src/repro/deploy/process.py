"""Process deployment: every provider actor in its own OS process.

The real-concurrency deployment whose timing numbers finally *mean*
something: data and metadata providers run as spawned worker processes
(no shared GIL with clients or with each other), while the version manager
and provider manager — the system's intentional serialization points,
whose RPCs are a few dozen bytes — stay in the parent on dedicated
service threads exactly as in the threaded deployment.

The inspection surface is deployment-parity by construction: ``data`` and
``meta`` are dicts of *proxies* that satisfy the same ``iter_pages`` /
``iter_nodes`` / ``stats`` / ``page_count`` contracts the in-process
deployments expose from live actor objects, fetched over the wire via the
``data.dump_pages`` / ``meta.dump_nodes`` RPCs. The cross-driver
conformance suite reads these to prove bit-identical pages, trees and
version chains against inproc/threaded/simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.client import BlobClient
from repro.core.config import DeploymentSpec
from repro.metadata.provider import MetadataProvider
from repro.metadata.router import StaticRouter
from repro.net.process import ProcessDriver
from repro.providers.data_provider import DataProvider
from repro.providers.manager import ProviderManager
from repro.providers.strategies import make_strategy
from repro.version.manager import VersionManager


class DataProviderProxy:
    """Parent-side view of a data provider living in a worker process."""

    def __init__(self, driver: ProcessDriver, provider_id: int) -> None:
        self._driver = driver
        self.provider_id = provider_id
        self._address = ("data", provider_id)

    def iter_pages(self, blob_id: str) -> Iterable[tuple]:
        return iter(self._driver.call(self._address, "data.dump_pages", (blob_id,)))

    def stats(self) -> dict[str, int]:
        return self._driver.call(self._address, "data.stats")

    @property
    def page_count(self) -> int:
        return self.stats()["pages"]


class MetadataProviderProxy:
    """Parent-side view of a metadata provider living in a worker process."""

    def __init__(self, driver: ProcessDriver, provider_id: int) -> None:
        self._driver = driver
        self.provider_id = provider_id
        self._address = ("meta", provider_id)

    def iter_nodes(self, blob_id: str) -> Iterable:
        return iter(self._driver.call(self._address, "meta.dump_nodes", (blob_id,)))

    def stats(self) -> dict[str, int]:
        return self._driver.call(self._address, "meta.stats")

    @property
    def node_count(self) -> int:
        return self.stats()["nodes"]


@dataclass
class ProcessDeployment:
    spec: DeploymentSpec
    driver: ProcessDriver
    router: StaticRouter
    vm: VersionManager
    pm: ProviderManager
    data: dict[int, DataProviderProxy]
    meta: dict[int, MetadataProviderProxy]
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
        cross-driver conformance suite compares these). Fetched over the
        wire, one ``meta.dump_nodes`` RPC per provider."""
        return [
            node
            for proxy in self.meta.values()
            for node in proxy.iter_nodes(blob_id)
        ]

    def transport_stats(self) -> dict[str, int]:
        """Batched-transport counters (see ThreadedDriver.transport_stats)."""
        return self.driver.transport_stats()

    def metrics(self) -> dict:
        """The unified telemetry document (``repro.metrics/1``), worker
        actors scraped over their socketpairs via the ``telemetry``
        control (see :mod:`repro.obs.metrics`)."""
        from repro.obs.metrics import scrape_driver

        return scrape_driver(self.driver, source="process")

    def close(self) -> None:
        self.driver.close()

    def __enter__(self) -> "ProcessDeployment":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def build_process(
    spec: DeploymentSpec | None = None, *, mp_context: str | None = None
) -> ProcessDeployment:
    """Assemble a process deployment (context-manage it to stop workers).

    Provider actors are *constructed inside their workers* from spec
    alone; the parent never holds provider state. ``spec.page_checksums``
    travels with the constructor spec, so integrity work runs on worker
    CPUs.
    """
    spec = spec or DeploymentSpec()
    vm = VersionManager()
    pm = ProviderManager(
        make_strategy(spec.strategy, **spec.strategy_kwargs),
        replication=spec.replication,
    )
    for i in range(spec.n_data):
        pm.register(i)
    driver = ProcessDriver(mp_context=mp_context)
    driver.register("vm", vm)
    driver.register("pm", pm)
    for i in range(spec.n_data):
        driver.register_process(
            ("data", i), DataProvider, i, checksum=spec.page_checksums
        )
    for i in range(spec.n_meta):
        driver.register_process(("meta", i), MetadataProvider, i)
    router = StaticRouter(
        list(range(spec.n_meta)), spec.replication, spec.meta_subtree_bytes
    )
    data = {i: DataProviderProxy(driver, i) for i in range(spec.n_data)}
    meta = {i: MetadataProviderProxy(driver, i) for i in range(spec.n_meta)}
    return ProcessDeployment(
        spec=spec, driver=driver, router=router, vm=vm, pm=pm, data=data, meta=meta
    )
