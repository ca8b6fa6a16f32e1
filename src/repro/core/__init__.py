"""Core blob API: the paper's primary contribution, assembled.

:mod:`repro.core.protocol` holds the sans-io READ / WRITE / ALLOC / GC
protocol generators — the algorithms of paper §III.B, executable on any
driver. :mod:`repro.core.client` wraps them in the blocking
:class:`~repro.core.client.BlobClient` facade used by applications;
:mod:`repro.core.gc` implements client-ordered garbage collection and
:mod:`repro.core.journal` the write-ahead log that makes the vm and pm
durable.
"""

from repro.core.config import BlobConfig, DeploymentSpec
from repro.core.client import BlobClient
from repro.core.protocol import ReadResult, WriteResult
from repro.core.gc import GCStats

__all__ = [
    "BlobConfig",
    "DeploymentSpec",
    "BlobClient",
    "ReadResult",
    "WriteResult",
    "GCStats",
]
