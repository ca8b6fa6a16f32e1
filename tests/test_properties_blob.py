"""Property-based acceptance: the blob behaves exactly like the paper's
specification, checked against an independent reference model.

The reference model materializes every snapshot as a flat byte array built
by successively applying patches — the definition in §II ("the segment
(offset, size) obtained by successively applying the first v patches to
the initial string"). Any divergence between the distributed system and
this model is a bug in striping, weaving, versioning or assembly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import build_inproc
from repro.util.sizes import KB

TOTAL = 256 * KB
PAGE = 4 * KB
NPAGES = TOTAL // PAGE


class ReferenceModel:
    """Flat snapshots-by-copy implementation of the §II specification."""

    def __init__(self) -> None:
        self.snapshots: list[bytes] = [bytes(TOTAL)]  # version 0

    def write(self, data: bytes, offset: int) -> int:
        latest = bytearray(self.snapshots[-1])
        latest[offset : offset + len(data)] = data
        self.snapshots.append(bytes(latest))
        return len(self.snapshots) - 1

    def read(self, version: int, offset: int, size: int) -> bytes:
        return self.snapshots[version][offset : offset + size]


def fill_for(version: int, first_page: int, npages: int) -> bytes:
    """Deterministic distinctive content per write."""
    rng = np.random.default_rng(version * 1_000_003 + first_page * 97 + npages)
    return rng.integers(0, 256, size=npages * PAGE, dtype=np.uint8).tobytes()


write_strategy = st.tuples(
    st.integers(min_value=0, max_value=NPAGES - 1),  # first page
    st.integers(min_value=1, max_value=8),  # page count
)

read_strategy = st.tuples(
    st.integers(min_value=0, max_value=TOTAL - 1),  # offset
    st.integers(min_value=1, max_value=6 * PAGE),  # size
)


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(write_strategy, min_size=1, max_size=10),
    reads=st.lists(read_strategy, min_size=1, max_size=12),
)
def test_reads_match_reference_model(writes, reads):
    dep = build_inproc(DeploymentSpec(n_data=3, n_meta=3))
    client = dep.client()
    blob = client.alloc(TOTAL, PAGE)
    model = ReferenceModel()

    for first, npages in writes:
        npages = min(npages, NPAGES - first)
        data = fill_for(len(model.snapshots), first, npages)
        result = client.write(blob, data, first * PAGE)
        expected_version = model.write(data, first * PAGE)
        assert result.version == expected_version

    latest = len(model.snapshots) - 1
    for offset, size in reads:
        size = min(size, TOTAL - offset)
        for version in {0, latest, max(0, latest // 2)}:
            got = client.read_bytes(blob, offset, size, version=version)
            assert got == model.read(version, offset, size), (
                f"divergence at v{version} [{offset}, +{size})"
            )


@settings(max_examples=25, deadline=None)
@given(writes=st.lists(write_strategy, min_size=2, max_size=8), data=st.data())
def test_every_snapshot_immutable_after_later_writes(writes, data):
    """Snapshot v's content never changes as later versions appear."""
    dep = build_inproc(DeploymentSpec(n_data=2, n_meta=2))
    client = dep.client()
    blob = client.alloc(TOTAL, PAGE)
    model = ReferenceModel()

    observed: dict[int, bytes] = {}
    probe = data.draw(read_strategy, label="probe")
    offset, size = probe
    size = min(size, TOTAL - offset)

    for first, npages in writes:
        npages = min(npages, NPAGES - first)
        payload = fill_for(len(model.snapshots), first, npages)
        client.write(blob, payload, first * PAGE)
        v = model.write(payload, first * PAGE)
        # sample this and every earlier snapshot at the probe range
        for version in range(v + 1):
            got = client.read_bytes(blob, offset, size, version=version)
            if version in observed:
                assert got == observed[version], f"snapshot v{version} mutated"
            else:
                observed[version] = got
            assert got == model.read(version, offset, size)


@settings(max_examples=25, deadline=None)
@given(
    writes=st.lists(write_strategy, min_size=1, max_size=10),
    replication=st.integers(min_value=1, max_value=3),
)
def test_replication_transparent_to_semantics(writes, replication):
    """Page/metadata replication must not change any observable value."""
    dep = build_inproc(
        DeploymentSpec(n_data=4, n_meta=4, replication=replication)
    )
    client = dep.client()
    blob = client.alloc(TOTAL, PAGE)
    model = ReferenceModel()
    for first, npages in writes:
        npages = min(npages, NPAGES - first)
        payload = fill_for(len(model.snapshots), first, npages)
        client.write(blob, payload, first * PAGE)
        model.write(payload, first * PAGE)
    latest = len(model.snapshots) - 1
    got = client.read_bytes(blob, 0, TOTAL, version=latest)
    assert got == model.read(latest, 0, TOTAL)


@settings(max_examples=20, deadline=None)
@given(
    writes=st.lists(write_strategy, min_size=1, max_size=6),
    strategy=st.sampled_from(["round_robin", "hash_ring"]),
)
def test_allocation_strategy_transparent_to_semantics(writes, strategy):
    dep = build_inproc(
        DeploymentSpec(n_data=5, n_meta=3, strategy=strategy)
    )
    client = dep.client()
    blob = client.alloc(TOTAL, PAGE)
    model = ReferenceModel()
    for first, npages in writes:
        npages = min(npages, NPAGES - first)
        payload = fill_for(len(model.snapshots), first, npages)
        client.write(blob, payload, first * PAGE)
        model.write(payload, first * PAGE)
    latest = len(model.snapshots) - 1
    assert client.read_bytes(blob, 0, TOTAL, version=latest) == model.read(
        latest, 0, TOTAL
    )
