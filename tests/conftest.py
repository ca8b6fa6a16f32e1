"""Shared fixtures: small deployments and blob geometries.

Tests default to small blobs (a few MB, 4 KB pages) so trees stay shallow
and failures readable; scale-sensitive behaviour (1 TB geometry) is tested
explicitly where it matters.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import build_inproc
from repro.deploy.simulated import SimDeployment
from repro.deploy.tcp import build_tcp
from repro.deploy.threaded import build_threaded
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.tree import TreeGeometry
from repro.util.sizes import KB, MB

SMALL_TOTAL = 4 * MB
SMALL_PAGE = 4 * KB

#: The deployment configurations the conformance suite certifies, by
#: name: ``BUILDERS[name](spec)`` builds one, and every entry is a
#: context-managed ``Deployment``.
BUILDERS = {
    "inproc": build_inproc,
    "threaded": build_threaded,
    "tcp": build_tcp,
    "aio": partial(build_tcp, client="aio"),
    "tcp-remote": partial(build_tcp, control_plane="agents"),
    "simulated": SimDeployment,
}


@pytest.fixture
def small_geom() -> TreeGeometry:
    """4 MB blob with 4 KB pages: depth 10, 1024 pages."""
    return TreeGeometry(SMALL_TOTAL, SMALL_PAGE)


@pytest.fixture
def dep():
    """In-process deployment: 4 data + 4 metadata providers."""
    return build_inproc(DeploymentSpec(n_data=4, n_meta=4))


@pytest.fixture
def client(dep):
    return dep.client("test-client")


@pytest.fixture
def blob(dep, client):
    """A freshly allocated small blob id."""
    return client.alloc(SMALL_TOTAL, SMALL_PAGE)


@pytest.fixture
def threaded_dep():
    d = build_threaded(DeploymentSpec(n_data=4, n_meta=4))
    yield d
    d.close()


def pages(n: int, fill: bytes = b"x", pagesize: int = SMALL_PAGE) -> bytes:
    """n pages of repeated fill bytes."""
    unit = (fill * (pagesize // len(fill) + 1))[:pagesize]
    return unit * n


def forged_leaf() -> TreeNode:
    """A leaf without its page reference, built behind the constructor's
    back: it pickles, and the receiving side's ``TreeNode(...)`` refuses it."""
    forged = object.__new__(TreeNode)
    object.__setattr__(forged, "key", NodeKey("b", 1, 0, SMALL_PAGE))
    for field in ("left_version", "right_version", "write_uid"):
        object.__setattr__(forged, field, None)
    object.__setattr__(forged, "providers", ())
    return forged
