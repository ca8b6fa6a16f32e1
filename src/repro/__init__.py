"""repro — lock-free concurrent fine-grain access to massive distributed data.

A faithful, self-contained Python reproduction of Nicolae, Antoniu & Bougé,
"Enabling Lock-Free Concurrent Fine-Grain Access to Massive Distributed
Data: Application to Supernovae Detection" (IEEE CLUSTER 2008) — the
BlobSeer precursor: versioned terabyte-scale blobs striped into immutable
pages, distributed segment-tree metadata over a DHT, a version manager as
the single serialization point, and full read/read, read/write and
write/write concurrency.

Quickstart::

    from repro import build_inproc, DeploymentSpec, KB, MB

    dep = build_inproc(DeploymentSpec(n_data=8, n_meta=8))
    client = dep.client()
    blob = client.alloc(total_size=64 * MB, pagesize=64 * KB)
    v1 = client.write(blob, b"x" * 128 * KB, offset=0).version
    print(client.read_bytes(blob, 0, 16, version=v1))

See README.md for the architecture tour and the paper-figure
reproductions (its "Benchmarks" section; the tables land in
``benchmarks/out/``).
"""

from repro.core.blobfile import BlobFile, open_blob
from repro.core.client import BlobClient
from repro.core.config import BlobConfig, DeploymentSpec
from repro.core.gc import GCStats
from repro.core.protocol import ReadResult, WriteResult
from repro.metadata.inspect import TreeInspector
from repro.version.diff import changed_ranges
from repro.deploy.inproc import Deployment, build_inproc
from repro.deploy.simulated import SimClient, SimDeployment
from repro.deploy.tcp import TcpDeployment, build_tcp
from repro.deploy.threaded import build_threaded
from repro.errors import (
    BlobNotFound,
    ConfigError,
    ImmutabilityViolation,
    NodeMissing,
    NotEnoughProviders,
    OutOfBounds,
    PageMissing,
    ProviderUnavailable,
    RemoteError,
    ReproError,
    StaleWrite,
    VersionNotPublished,
)
from repro.sim.network import ClusterSpec
from repro.util.sizes import GB, KB, MB, TB
from repro.version.manager import LATEST

__version__ = "1.0.0"

__all__ = [
    "BlobClient",
    "BlobConfig",
    "BlobFile",
    "open_blob",
    "TreeInspector",
    "changed_ranges",
    "DeploymentSpec",
    "GCStats",
    "ReadResult",
    "WriteResult",
    "Deployment",
    "build_inproc",
    "SimClient",
    "SimDeployment",
    "build_threaded",
    "TcpDeployment",
    "build_tcp",
    "ClusterSpec",
    "LATEST",
    "KB",
    "MB",
    "GB",
    "TB",
    "ReproError",
    "ConfigError",
    "BlobNotFound",
    "VersionNotPublished",
    "OutOfBounds",
    "ImmutabilityViolation",
    "PageMissing",
    "NodeMissing",
    "ProviderUnavailable",
    "NotEnoughProviders",
    "StaleWrite",
    "RemoteError",
    "__version__",
]
