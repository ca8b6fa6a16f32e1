"""Configuration objects: blob geometry and deployment topology."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.metadata.router import SUBTREE_BYTES
from repro.metadata.tree import TreeGeometry
from repro.providers.strategies import STRATEGIES
from repro.util.bits import is_pow2
from repro.util.sizes import human_size


@dataclass(frozen=True)
class BlobConfig:
    """Geometry of one blob: fixed logical size and page size.

    Both are powers of two by the paper's convention (§II). The paper's
    headline configuration is ``BlobConfig(total_size=1 * TB,
    pagesize=64 * KB)``; storage is allocated on write, so a huge logical
    size costs nothing until data arrives.
    """

    total_size: int
    pagesize: int

    def __post_init__(self) -> None:
        if not is_pow2(self.total_size) or not is_pow2(self.pagesize):
            raise ConfigError(
                "total_size and pagesize must be powers of two, got "
                f"{self.total_size} / {self.pagesize}"
            )
        if self.pagesize > self.total_size:
            raise ConfigError("pagesize cannot exceed total_size")

    def geometry(self) -> TreeGeometry:
        return TreeGeometry(self.total_size, self.pagesize)

    def __str__(self) -> str:
        return f"Blob({human_size(self.total_size)}, pages of {human_size(self.pagesize)})"


@dataclass(frozen=True)
class DeploymentSpec:
    """Topology of a deployment.

    The paper's setups: N nodes each hosting one data provider and one
    metadata provider (colocated), plus dedicated nodes for the version
    manager and the provider manager, plus client nodes.
    """

    n_data: int = 20
    n_meta: int = 20
    n_clients: int = 1
    #: copies of each page / metadata node (1 = the paper's setting)
    replication: int = 1
    #: page placement rule, one of repro.providers.strategies.STRATEGIES
    strategy: str = "round_robin"
    #: client metadata cache capacity in nodes; 0 disables caching
    cache_capacity: int = 1 << 20
    #: host data+meta provider i on the same simulated node (paper's layout)
    colocate: bool = True
    #: data providers checksum real pages on put and verify on get
    #: (integrity mode: provider-side CPU work, see providers.page)
    page_checksums: bool = False
    #: metadata routing cut ``S`` (0 or a power of two): tree nodes spanning
    #: at most S bytes are placed by S-aligned region, all versions together,
    #: so a READ walks a region in one RPC (see repro.metadata.router);
    #: 0 = the paper's per-node DHT dispersal (the simulated figures).
    #: A deployment property like ``n_meta``: all clients must agree on it.
    meta_subtree_bytes: int = SUBTREE_BYTES
    #: TCP deployment only: actor name -> "host:port" of the node agent
    #: serving it (e.g. {"data/0": "10.0.0.5:7000"}). Empty = the builder
    #: launches a loopback cluster of agents itself; non-empty = connect
    #: to agents an operator already runs (real hosts, same code path).
    endpoints: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_data < 1 or self.n_meta < 1 or self.n_clients < 1:
            raise ConfigError("deployment needs at least one of each node kind")
        if self.replication < 1:
            raise ConfigError("replication must be >= 1")
        if self.replication > min(self.n_data, self.n_meta):
            raise ConfigError("replication exceeds provider count")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.cache_capacity < 0:
            raise ConfigError("cache_capacity must be >= 0")
        if self.meta_subtree_bytes and not is_pow2(self.meta_subtree_bytes):
            raise ConfigError(
                "meta_subtree_bytes must be 0 or a power of two, got "
                f"{self.meta_subtree_bytes}"
            )
        for name, endpoint in self.endpoints.items():
            if not isinstance(name, str) or not isinstance(endpoint, str):
                raise ConfigError(
                    "endpoints must map actor names ('data/0') to "
                    f"'host:port' strings, got {name!r}: {endpoint!r}"
                )
