"""Subtree-local metadata routing + one-RPC tree descent.

- equivalence as a property: whatever the routing cut ``S``, a READ returns
  what the paper's per-node descent (``S = 0``) returns, in exactly
  ``2 + levels above the cut + 1`` batches;
- failure paths of ``meta.get_subtree``: replica fail-over costs one extra
  batch, a node freed under a reader is a typed ``NodeMissing`` on every
  driver;
- the three other tree walkers (GC mark, inspect, diff) share the READ's
  fetch helper: they survive a crashed primary, and a GC mark of a
  depth-18 blob is 5 batches, not 19;
- ``subtree_gets`` / ``nodes_served`` reach ``meta.stats`` and the scrape.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import DeploymentSpec
from repro.core.gc import gc_protocol
from repro.core.protocol import read_protocol
from repro.deploy.inproc import build_inproc
from repro.deploy.simulated import SimDeployment
from repro.deploy.tcp import build_tcp
from repro.deploy.threaded import build_threaded
from repro.errors import ConfigError, NodeMissing
from repro.metadata.cache import MetadataCache
from repro.metadata.inspect import TreeInspector
from repro.metadata.node import NodeKey
from repro.metadata.router import SUBTREE_BYTES
from repro.net.sansio import Batch, Call
from repro.obs.metrics import render_metrics, scrape_driver
from repro.util.sizes import GB, KB, MB
from repro.version.diff import changed_ranges
from tests.conftest import SMALL_PAGE, SMALL_TOTAL, pages

META_READS = ("meta.get_node", "meta.get_subtree")


def observed(proto, on_batch=None):
    """Wrap a protocol: count its batches and metadata-read batches, note
    the page indices it fetches, and let a test act before a batch runs."""
    seen = {"batches": 0, "meta_batches": 0, "pages": set()}

    def wrapper():
        try:
            op = next(proto)
            while True:
                if isinstance(op, Batch):
                    if on_batch is not None:
                        on_batch(op)
                    seen["batches"] += 1
                    methods = {c.method for c in op.calls}
                    seen["meta_batches"] += bool(methods & set(META_READS))
                    seen["pages"].update(
                        c.args[0].index
                        for c in op.calls
                        if c.method == "data.get_page"
                    )
                op = proto.send((yield op))
        except StopIteration as stop:
            return stop.value

    return wrapper(), seen


def call(dep, address, method, args=()):
    def proto():
        (result,) = yield Batch([Call(address, method, args)])
        return result

    return dep.driver.run(proto())


# ---------------------------------------------------------------------------
# equivalence as a property
# ---------------------------------------------------------------------------


def _history(seed: int):
    """A seeded write history on the small blob: overlapping page-aligned
    patches, several versions, and pages [512, 1024) never written."""
    rng = random.Random(f"subtree-routing/{seed}")
    writes = []
    for step in range(rng.randint(4, 9)):
        npages = rng.choice((1, 2, 3, 8, 40))
        first = rng.randrange(0, 512 - npages)
        writes.append((first * SMALL_PAGE, pages(npages, bytes([65 + step]))))
    return rng, writes


def _levels_above(cut: int) -> int:
    """Tree levels of the small blob whose nodes span more than ``cut``."""
    levels, size = 0, SMALL_TOTAL
    while size >= SMALL_PAGE and size > cut:
        levels, size = levels + 1, size // 2
    return levels


@pytest.mark.parametrize("cut", [SMALL_PAGE, 1 * MB, SMALL_TOTAL])
@pytest.mark.parametrize("seed", range(6))
def test_reads_equal_the_per_node_descent(seed, cut):
    rng, writes = _history(seed)
    deps = []
    for subtree_bytes in (0, cut):
        dep = build_inproc(
            DeploymentSpec(n_data=4, n_meta=4, meta_subtree_bytes=subtree_bytes)
        )
        client = dep.client()
        blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
        for offset, data in writes:
            client.write(blob, data, offset)
        deps.append((dep, blob, client.open(blob), MetadataCache()))
    latest = len(writes)
    for _ in range(40):
        offset = rng.randrange(0, SMALL_TOTAL - 1)
        size = rng.randint(1, min(SMALL_TOTAL - offset, 96 * KB))
        version = rng.randint(1, latest)
        for cached in (False, True):
            results = []
            for dep, blob, geom, cache in deps:
                proto, seen = observed(read_protocol(
                    blob, geom, offset, size, dep.router, version=version,
                    cache=cache if cached else None,
                ))
                results.append((dep.driver.run(proto), seen))
            (ref, ref_seen), (got, got_seen) = results
            assert bytes(got.data) == bytes(ref.data)
            assert got.zero_bytes == ref.zero_bytes
            assert got.pages_fetched == ref.pages_fetched
            assert got_seen["pages"] == ref_seen["pages"]
            assert (got.nodes_fetched + got.cache_hits
                    == ref.nodes_fetched + ref.cache_hits)
            if not cached:
                assert got.cache_hits == 0
                assert got.nodes_fetched == ref.nodes_fetched
                if got.pages_fetched:  # the descent reached the leaves
                    assert ref_seen["batches"] == 2 + _levels_above(0)
                    assert got_seen["batches"] == 2 + _levels_above(cut) + 1


def test_spec_validates_the_cut():
    assert DeploymentSpec().meta_subtree_bytes == SUBTREE_BYTES
    for bad in (-1, 3, 48 * KB):
        with pytest.raises(ConfigError):
            DeploymentSpec(meta_subtree_bytes=bad)


def test_no_cut_never_issues_get_subtree():
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, meta_subtree_bytes=0))
    client = dep.client()
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    client.write(blob, pages(8), 0)
    client.read(blob, 0, 8 * SMALL_PAGE)
    assert all(m.subtree_gets == 0 for m in dep.meta.values())
    assert sum(m.gets for m in dep.meta.values()) > 0


# ---------------------------------------------------------------------------
# failure paths of meta.get_subtree
# ---------------------------------------------------------------------------


def test_subtree_primary_crashed_mid_read_costs_one_extra_batch():
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, replication=2,
                                      cache_capacity=0))
    client = dep.client()
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    client.write(blob, pages(8, b"S"), 0)
    geom = client.open(blob)

    def read(on_batch=None):
        proto, seen = observed(
            read_protocol(blob, geom, 0, 8 * SMALL_PAGE, dep.router), on_batch
        )
        return dep.driver.run(proto), seen

    healthy, healthy_seen = read()

    def crash_the_owner(batch):
        # the READ is under way (vm already answered) when the subtree's
        # primary owner dies, just before its get_subtree is sent
        for c in batch.calls:
            if c.method == "meta.get_subtree" and not any(
                m.failed for m in dep.meta.values()
            ):
                dep.meta[c.dest[1]].crash()

    got, seen = read(crash_the_owner)
    assert bytes(got.data) == bytes(healthy.data) == pages(8, b"S")
    assert got.nodes_fetched == healthy.nodes_fetched
    assert seen["batches"] == healthy_seen["batches"] + 1
    assert sum(m.failed for m in dep.meta.values()) == 1


def _node_missing_on(dep):
    """Free one below-the-cut node on all its owners, then READ through it."""
    client = dep.client()
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    client.write(blob, pages(8, b"F"), 0)
    key = NodeKey(blob, 1, 0, 2 * SMALL_PAGE)
    assert dep.router.colocated(key)
    for owner in dep.router.route(key):
        assert call(dep, owner, "meta.free_nodes", ([key],)) == 1
    with pytest.raises(NodeMissing):
        client.read(blob, 0, 8 * SMALL_PAGE)
    # the provider and the connection keep serving
    assert client.read_bytes(blob, 4 * SMALL_PAGE, SMALL_PAGE) == pages(1, b"F")


@pytest.mark.parametrize("driver", ["inproc", "threaded", "tcp", "aio"])
def test_node_freed_under_a_reader_is_node_missing(driver):
    spec = DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0)
    if driver == "inproc":
        _node_missing_on(build_inproc(spec))
    elif driver == "threaded":
        with build_threaded(spec) as dep:
            _node_missing_on(dep)
    else:
        client = "aio" if driver == "aio" else "threaded"
        with build_tcp(spec, client=client) as dep:
            _node_missing_on(dep)


# ---------------------------------------------------------------------------
# the other walkers: shared fetch helper, replica fail-over, fewer batches
# ---------------------------------------------------------------------------


@pytest.fixture(params=[0, SUBTREE_BYTES], ids=["per-node", "subtree-local"])
def crashed_primary(request):
    """replication = 2, three versions written, then the primary owner of
    the latest root crashes: a live replica still holds every node."""
    dep = build_inproc(DeploymentSpec(
        n_data=4, n_meta=4, replication=2, cache_capacity=0,
        meta_subtree_bytes=request.param,
    ))
    client = dep.client()
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    client.write(blob, pages(8, b"1"), 0)
    client.write(blob, pages(2, b"2"), 2 * SMALL_PAGE)
    client.write(blob, pages(1, b"3"), 16 * SMALL_PAGE)
    primary = dep.router.primary(NodeKey(blob, 3, 0, SMALL_TOTAL))
    dep.meta[primary[1]].crash()
    return dep, client, blob, primary[1]


def test_gc_marks_through_a_crashed_primary(crashed_primary):
    dep, client, blob, down = crashed_primary
    live_meta = [m for m in dep.meta if m != down]
    stats = client.gc(blob, [3], sorted(dep.data), live_meta)
    assert stats.nodes_freed > 0
    expected = pages(2, b"1") + pages(2, b"2") + pages(4, b"1")
    assert client.read_bytes(blob, 0, 8 * SMALL_PAGE) == expected
    assert client.read_bytes(blob, 16 * SMALL_PAGE, SMALL_PAGE) == pages(1, b"3")


def test_inspect_walks_through_a_crashed_primary(crashed_primary):
    _dep, client, blob, _down = crashed_primary
    inspector = TreeInspector(client)
    assert "segment tree" in inspector.dump(blob, 3)
    assert "segment tree" in inspector.dump(blob, 3, max_depth=2)
    stats = inspector.sharing_stats(blob, 3)
    assert stats.shared_nodes > 0 and stats.own_nodes > 0


def test_diff_walks_through_a_crashed_primary(crashed_primary):
    _dep, client, blob, _down = crashed_primary
    ranges = changed_ranges(client, blob, 1, 3)
    assert [(iv.offset, iv.size) for iv in ranges] == [
        (2 * SMALL_PAGE, 2 * SMALL_PAGE), (16 * SMALL_PAGE, SMALL_PAGE),
    ]


def test_gc_mark_of_a_depth_18_blob_is_5_batches_not_19():
    marks = {}
    for cut in (0, SUBTREE_BYTES):
        dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4,
                                          meta_subtree_bytes=cut))
        client = dep.client()
        blob = client.alloc(1 * GB, SMALL_PAGE)
        geom = client.open(blob)
        assert geom.depth == 18
        client.write(blob, pages(4), 0)
        client.write(blob, pages(2), 40 * MB)
        proto, seen = observed(gc_protocol(
            blob, geom, (2,), dep.router, tuple(dep.data), tuple(dep.meta)
        ))
        stats = dep.driver.run(proto)
        # the same mark either way: v2's tree, v1's nodes only where woven in
        assert (stats.nodes_live, stats.pages_live, stats.nodes_freed) == (38, 6, 5)
        marks[cut] = seen["meta_batches"]
    # 4 hashed levels above the 64 MiB cut + one get_subtree batch
    assert marks == {0: 19, SUBTREE_BYTES: 5}
    assert marks[SUBTREE_BYTES] <= 7


def test_simulator_prices_a_subtree_reply_per_node_returned():
    """One RPC is not one node's worth of work: the model charges service
    and client reply CPU for every node a subtree reply carries."""
    dep = SimDeployment(DeploymentSpec(
        n_data=2, n_meta=2, n_clients=1, cache_capacity=0,
        meta_subtree_bytes=SMALL_TOTAL,
    ))
    blob = dep.alloc_blob(SMALL_TOTAL, SMALL_PAGE)
    client = dep.client(0)
    client.write_virtual(blob, 0, 64 * SMALL_PAGE)
    spec = dep.network.spec
    per_node = spec.service_time("meta.get_node") + spec.reply_cpu("meta.get_node")
    points = []
    for npages in (1, 64):
        trace: dict[str, float] = {}
        result = client.run(
            client.read_virtual_proto(blob, 0, npages * SMALL_PAGE, trace=trace)
        )
        elapsed = trace["metadata_read"] - trace["version_resolved"]
        assert elapsed >= result.nodes_fetched * per_node
        points.append((elapsed, result.nodes_fetched))
    (t_small, n_small), (t_big, n_big) = points
    assert n_big > 10 * n_small
    assert t_big - t_small >= (n_big - n_small) * per_node
    assert sum(m.subtree_gets for m in dep.meta.values()) == 2


# ---------------------------------------------------------------------------
# observability of the hot spot
# ---------------------------------------------------------------------------


def test_subtree_counters_reach_stats_and_the_scrape():
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, cache_capacity=0))
    client = dep.client()
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    client.write(blob, pages(8), 0)
    result = client.read(blob, 0, 8 * SMALL_PAGE)
    owner = dep.router.primary(NodeKey(blob, 1, 0, SMALL_TOTAL))
    # a blob no larger than S lives on one metadata provider, by design
    stats = call(dep, owner, "meta.stats")
    assert stats["subtree_gets"] == 1
    assert stats["nodes_served"] == stats["gets"] == result.nodes_fetched
    assert stats["nodes"] == sum(m.node_count for m in dep.meta.values())
    doc = scrape_driver(dep.driver, source="inproc")
    name = f"meta/{owner[1]}"
    assert doc["actors"][name]["stats"] == stats
    assert doc["actors"][name]["methods"]["meta.get_subtree"]["count"] == 1
    table = render_metrics(doc)
    assert f"nodes {stats['nodes']}" in table
    assert f"subtree_gets 1, nodes_served {result.nodes_fetched}" in table
