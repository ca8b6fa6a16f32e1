"""Stateful property testing: the blob service vs a model, under random
operation sequences (writes, versioned reads, GC, provider churn).

Hypothesis drives arbitrary interleavings of API calls and checks after
every step that the distributed implementation is indistinguishable from
the flat reference model — including after garbage collection removed
history and after data providers joined mid-run.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import build_inproc
from repro.errors import NodeMissing, VersionNotPublished
from repro.util.sizes import KB

TOTAL = 128 * KB
PAGE = 4 * KB
NPAGES = TOTAL // PAGE


class BlobMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dep = build_inproc(DeploymentSpec(n_data=3, n_meta=3))
        self.client = self.dep.client("machine")
        self.blob = self.client.alloc(TOTAL, PAGE)
        self.snapshots: list[bytes] = [bytes(TOTAL)]  # version 0
        self.live: set[int] = {0}
        self.counter = 0

    # -- rules -----------------------------------------------------------

    @rule(
        first=st.integers(min_value=0, max_value=NPAGES - 1),
        npages=st.integers(min_value=1, max_value=6),
    )
    def write(self, first: int, npages: int) -> None:
        npages = min(npages, NPAGES - first)
        self.counter += 1
        data = bytes([self.counter % 251 + 1]) * (npages * PAGE)
        result = self.client.write(self.blob, data, first * PAGE)
        latest = bytearray(self.snapshots[-1])
        latest[first * PAGE : first * PAGE + len(data)] = data
        self.snapshots.append(bytes(latest))
        assert result.version == len(self.snapshots) - 1
        self.live.add(result.version)

    @rule(
        offset=st.integers(min_value=0, max_value=TOTAL - 1),
        size=st.integers(min_value=1, max_value=3 * PAGE),
        pick=st.randoms(use_true_random=False),
    )
    def read_live_version(self, offset: int, size: int, pick) -> None:
        size = min(size, TOTAL - offset)
        version = pick.choice(sorted(self.live))
        got = self.client.read_bytes(self.blob, offset, size, version=version)
        assert got == self.snapshots[version][offset : offset + size]

    @rule(
        offset=st.integers(min_value=0, max_value=TOTAL - 1),
        pick=st.randoms(use_true_random=False),
    )
    def read_collected_version_fails(self, offset: int, pick) -> None:
        collected = [
            v for v in range(1, len(self.snapshots)) if v not in self.live
        ]
        if not collected:
            return
        version = pick.choice(collected)
        # a fresh client (empty cache) must fail to traverse a collected
        # tree, and so must the machine's own: its GCs purged what they freed
        fresh = self.dep.client(f"fresh-{self.counter}-{version}")
        for reader in (fresh, self.client):
            try:
                reader.read(self.blob, offset, 1, version=version)
            except NodeMissing:
                continue
            raise AssertionError(
                f"collected version {version} still readable by {reader.name}"
            )

    @rule()
    def read_future_version_fails(self) -> None:
        try:
            self.client.read(self.blob, 0, 1, version=len(self.snapshots) + 3)
        except VersionNotPublished:
            return
        raise AssertionError("unpublished version readable")

    @precondition(lambda self: len(self.live) > 2)
    @rule(keep_count=st.integers(min_value=1, max_value=2))
    def collect_garbage(self, keep_count: int) -> None:
        versions = sorted(v for v in self.live if v >= 1)
        keep = versions[-keep_count:]
        self.client.gc(self.blob, keep, self.dep.data_ids, self.dep.meta_ids)
        self.live = {0, *keep}

    @precondition(lambda self: len(self.dep.data) < 6)
    @rule()
    def provider_joins(self) -> None:
        self.dep.add_data_provider()

    # -- invariants ---------------------------------------------------------

    @invariant()
    def latest_matches_model(self) -> None:
        assert self.client.latest(self.blob) == len(self.snapshots) - 1

    @invariant()
    def no_writes_in_flight(self) -> None:
        assert self.dep.vm.in_flight_versions(self.blob) == []


TestBlobStateMachine = BlobMachine.TestCase
TestBlobStateMachine.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
