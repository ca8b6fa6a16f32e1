"""Subtree-local metadata routing: every metadata operation pays per
shard, not per tree level and not per node.

- equivalence as a property: whatever the routing cut ``S``, a READ returns
  what the paper's per-node descent (``S = 0``) returns — in 3 batches when
  the vm names the region roots, in ``2 + levels above the cut + 1`` when
  it declines or is not asked;
- the vm's answer as a property: for every region and published version it
  equals the label reached by per-node descent from the root, or is
  ``None`` — never ``None`` at the latest published version;
- the budget pinned as counts on inproc / threaded / tcp / aio: a cold READ
  of a depth-18 blob is 3 batches, a WRITE's metadata batch one
  ``meta.put_nodes`` per region owner plus one ``meta.put_node`` per node
  above the cut;
- failure paths of ``meta.get_subtree``: replica fail-over costs one extra
  batch, a node freed under a reader is a typed ``NodeMissing`` on every
  driver; a collected version reads as ``NodeMissing`` or its exact bytes;
- the three other tree walkers (GC mark, inspect, diff) share the READ's
  fetch helper: they survive a crashed primary, a GC mark or an inspect of
  a depth-18 blob is 5 batches, not 19, and a diff one per level;
- the counters reach ``meta.stats`` / ``vm.stats`` and the scrape.
"""

from __future__ import annotations

import random
import shutil

import pytest

from repro.bench.figures import traced_phase
from repro.core.config import DeploymentSpec
from repro.core.gc import gc_protocol
from repro.core.journal import Journal
from repro.core.protocol import read_protocol, split_pages, write_protocol
from repro.deploy.inproc import build_inproc
from repro.deploy.simulated import SimDeployment
from repro.deploy.tcp import build_tcp
from repro.errors import ConfigError, NodeMissing, RemoteError
from repro.metadata.cache import MetadataCache
from repro.metadata.inspect import TreeInspector
from repro.metadata.node import NodeKey
from repro.metadata.provider import MetadataProvider
from repro.metadata.router import SUBTREE_BYTES
from repro.net.sansio import Batch, Call, Compute
from repro.obs.metrics import render_metrics, scrape_driver
from repro.util.intervals import Interval
from repro.util.sizes import GB, KB, MB
from repro.version.diff import changed_ranges, diff_protocol
from repro.version.manager import LATEST, VersionManager
from tests.conftest import BUILDERS, SMALL_PAGE, SMALL_TOTAL, pages

META_READS = ("meta.get_node", "meta.get_subtree", "meta.get_leaves")
META_WRITES = ("meta.put_node", "meta.put_nodes")


def observed(proto, on_batch=None):
    """Wrap a protocol: count its batches and metadata-read batches, note
    the page indices it fetches, the sizes of the nodes it asks for one by
    one, the subtree walks it asks for, whether it asked the vm for region
    roots and what its metadata store batches hold — and let a test act
    before a batch runs."""
    seen = {"batches": 0, "meta_batches": 0, "pages": set(), "node_sizes": [],
            "asked": False, "meta_puts": [], "walks": []}

    def wrapper():
        try:
            op = next(proto)
            while True:
                if isinstance(op, Batch):
                    if on_batch is not None:
                        on_batch(op)
                    seen["batches"] += 1
                    methods = [c.method for c in op.calls]
                    seen["meta_batches"] += bool(set(methods) & set(META_READS))
                    puts = {m: methods.count(m) for m in META_WRITES if m in methods}
                    if puts:
                        seen["meta_puts"].append(puts)
                    for c in op.calls:
                        if c.method == "data.get_page":
                            seen["pages"].add(c.args[0].index)
                        elif c.method == "meta.get_node":
                            seen["node_sizes"].append(c.args[0].size)
                        elif c.method == "vm.resolve_read":
                            seen["asked"] = len(c.args) == 3
                        elif c.method in ("meta.get_subtree", "meta.get_leaves"):
                            seen["walks"].append(c.method)
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
    vm = deps[1][0].vm
    outcomes = set()
    for _ in range(40):
        offset = rng.randrange(0, SMALL_TOTAL - 1)
        size = rng.randint(1, min(SMALL_TOTAL - offset, 96 * KB))
        version = rng.choice((latest, rng.randint(1, latest)))
        above = None
        for cached in (False, True):
            results = []
            answered = vm.roots_answered
            for dep, blob, geom, cache in deps:
                proto, seen = observed(read_protocol(
                    blob, geom, offset, size, dep.router, version=version,
                    cache=cache if cached else None,
                ))
                results.append((dep.driver.run(proto), seen))
            (ref, ref_seen), (got, got_seen) = results
            answered = vm.roots_answered - answered
            assert not ref_seen["asked"] and answered <= got_seen["asked"]
            assert bytes(got.data) == bytes(ref.data)
            assert got.zero_bytes == ref.zero_bytes
            assert got.pages_fetched == ref.pages_fetched
            assert got_seen["pages"] == ref_seen["pages"]
            if not cached:
                # an answered READ starts below the cut: it is short by
                # exactly the nodes the per-node descent visits above it;
                # below the cut a READ with no cache receives the leaves only
                ref_above = sum(s > cut for s in ref_seen["node_sizes"])
                above = ref_above * answered
                outcomes.add((got_seen["asked"], bool(answered)))
                assert got.cache_hits == 0
                assert got.nodes_fetched == ref_above - above + got.pages_fetched
                assert set(got_seen["walks"]) <= {"meta.get_leaves"}
                if got.pages_fetched:  # the descent reached the leaves
                    assert ref_seen["batches"] == 2 + _levels_above(0)
                    assert got_seen["batches"] == (
                        3 if answered else 2 + _levels_above(cut) + 1
                    )
            else:
                assert (got.nodes_fetched + got.cache_hits
                        == ref.nodes_fetched + ref.cache_hits - above)
                assert set(got_seen["walks"]) <= {"meta.get_subtree"}
        if version == latest and got_seen["asked"]:
            assert answered  # never declined at the latest published version
    # the vm is asked only where it can pay: never when the root itself is
    # co-located, nor when a request spans more regions than levels saved
    # (possible here only with one-page regions)
    if cut == SMALL_TOTAL:
        assert outcomes == {(False, False)}
    else:
        assert (True, True) in outcomes
        assert ((False, False) in outcomes) == (cut == SMALL_PAGE)
        assert (True, False) in outcomes or cut == SMALL_PAGE


def _descend(provider, key, offset, size):
    """The reference walk: level by level, one ``get_node`` per wanted
    node, booked as one subtree read — what ``get_subtree`` must equal."""
    provider.subtree_gets += 1
    end = offset + size
    out, frontier = [], [key]
    while frontier:
        level = [provider.get_node(k) for k in frontier]
        out += level
        frontier = [
            child
            for node in level if not node.is_leaf
            for child in node.child_keys()
            if child.version and child.offset < end
            and offset < child.offset + child.size
        ]
    return out


def _descend_to_leaves(provider, key, offset, size):
    """The reference walk, keeping its leaves: what ``get_leaves`` must
    equal (the same lookups, so the same counters)."""
    return [node for node in _descend(provider, key, offset, size) if node.is_leaf]


def _walked(walk, provider, key, offset, size):
    """``walk``'s nodes (or its ``NodeMissing``) and counter deltas."""
    before = provider.stats()
    try:
        outcome = walk(provider, key, offset, size)
    except NodeMissing as exc:
        outcome = ("NodeMissing", str(exc))
    after = provider.stats()
    deltas = {k: after[k] - before[k] for k in ("gets", "nodes_served", "subtree_gets")}
    return outcome, deltas


WALK_CASES = pytest.mark.parametrize(
    "version, first, npages, drop",
    [
        ("latest", 0, 1024, None),  # the whole blob, zero children included
        ("latest", 100, 1, None),  # one written page
        ("latest", 600, 3, None),  # inside pages never written: a version-0 child
        ("latest", 500, 40, None),  # straddles written and never-written pages
        (1, 0, 1024, None),  # an older version's tree
        ("latest", 7, 0, None),  # an empty interval: the root alone
        ("latest", 0, 1024, 5),  # the sixth node in level order is missing
        ("latest", 100, 1, -1),  # the leaf is missing
        (99, 0, 1024, None),  # no such version: the root is missing
    ],
)


@WALK_CASES
def test_get_subtree_equals_the_level_by_level_descent(version, first, npages, drop):
    """The one-loop ``get_subtree`` against the ``get_node`` descent over
    the same store: the same nodes in the same order, the same counter
    deltas and the same ``NodeMissing``."""
    _walk_equals(MetadataProvider.get_subtree, _descend, version, first, npages, drop)


@WALK_CASES
def test_get_leaves_equals_the_leaves_of_the_level_by_level_descent(
    version, first, npages, drop
):
    """``get_leaves`` runs ``get_subtree``'s walk: the descent's leaves in
    the same order, the same counter deltas for every node walked, the
    same ``NodeMissing`` for an absent descendant."""
    _walk_equals(
        MetadataProvider.get_leaves, _descend_to_leaves, version, first, npages, drop
    )


def _walk_equals(walk, reference, version, first, npages, drop):
    _, writes = _history(0)
    dep = build_inproc(DeploymentSpec(n_data=2, n_meta=1))
    client = dep.client()
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    for offset, data in writes:
        client.write(blob, data, offset)
    (provider,) = dep.meta.values()
    version = len(writes) if version == "latest" else version
    args = (NodeKey(blob, version, 0, SMALL_TOTAL), first * SMALL_PAGE,
            npages * SMALL_PAGE)
    if drop is not None:
        victim = _descend(provider, *args)[drop]
        assert provider.free_nodes([victim.key]) == 1
    got = _walked(walk, provider, *args)
    want = _walked(reference, provider, *args)
    assert got == want
    nodes, deltas = got
    assert deltas["subtree_gets"] == 1
    if drop is None and version != 99:
        # every node walked is booked, whichever of them the reply keeps
        walked = len(_descend(provider, *args))
        assert deltas["gets"] == deltas["nodes_served"] == walked >= len(nodes)
        assert walk is MetadataProvider.get_leaves or walked == len(nodes)
    else:
        assert nodes[0] == "NodeMissing"
        assert deltas["gets"] == deltas["nodes_served"] + 1


# ---------------------------------------------------------------------------
# the vm's answer as a property
# ---------------------------------------------------------------------------


class SteppedWrite:
    """A WRITE driven by hand, so it can sit between two of its batches
    (``vm.assign`` done, metadata not stored, ``vm.complete`` not sent)."""

    def __init__(self, dep, blob, geom, offset, data, uid):
        self.dep = dep
        self.proto = write_protocol(
            blob, geom, offset, split_pages(data, geom.pagesize), dep.router, uid
        )
        self.op = next(self.proto)
        self.result = None

    def advance(self, until: str | None = None):
        """Run on; stop right after the batch calling ``until`` (else finish)."""
        while self.result is None:
            op, reply = self.op, None
            if isinstance(op, Batch):
                reply = self.dep.driver.run(_one_batch(op))
            else:
                assert isinstance(op, Compute)
            try:
                self.op = self.proto.send(reply)
            except StopIteration as stop:
                self.result = stop.value
            if until and isinstance(op, Batch) and op.calls[0].method == until:
                break
        return self.result


def _one_batch(batch):
    return (yield batch)


def _descent_label(dep, blob, version, region):
    """The version label of the node covering ``region`` in snapshot
    ``version``, reached the paper's way: ``meta.get_node`` by
    ``meta.get_node`` from the blob root."""
    lo, span = region
    key = NodeKey(blob, version, 0, SMALL_TOTAL)
    while key.size > span:
        node = dep.meta[dep.router.primary(key)[1]].get_node(key)
        left, right = node.child_keys()
        key = left if lo < right.offset else right
        if key.version == 0:
            return 0
    return key.version


#: canonical intervals of the small blob at several depths, written part
#: (pages 0..511) and never-written part alike
REGIONS = [
    (index * span, span)
    for span in (SMALL_PAGE, 64 * KB, 1 * MB, 2 * MB)
    for index in range(0, SMALL_TOTAL // span, max(1, SMALL_TOTAL // span // 16))
]


@pytest.mark.parametrize("seed", range(5))
def test_the_vm_names_exactly_the_node_a_descent_from_the_root_reaches(seed, tmp_path):
    rng = random.Random(f"region-roots/{seed}")
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, cache_capacity=0))
    vm = dep.vm = VersionManager(Journal(tmp_path / "vm", snapshot_every=5))
    dep.driver.unregister("vm")
    dep.driver.register("vm", vm)
    client = dep.client()
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    geom = client.open(blob)
    parked: list[SteppedWrite] = []
    declined = checked = 0

    def check(manager):
        nonlocal declined, checked
        latest = manager.get_latest(blob)
        for version in range(1, latest + 1):
            for region in REGIONS:
                asked = LATEST if version == latest and rng.random() < 0.5 else version
                effective, seen_latest, roots = manager.resolve_read(
                    blob, asked, (region,)
                )
                assert (effective, seen_latest) == (version, latest)
                checked += 1
                if roots is None:
                    declined += 1
                    assert version < latest  # only history is ever declined
                else:
                    assert roots == (_descent_label(dep, blob, version, region),)
        return latest

    for step in range(24):
        npages = rng.choice((1, 2, 3, 8, 40, 130))
        offset = rng.randrange(0, 512 - npages) * SMALL_PAGE
        write = SteppedWrite(
            dep, blob, geom, offset, pages(npages, bytes([65 + step])), f"w#{step}"
        )
        fate = rng.random()
        if fate < 0.35:
            write.advance(until="vm.assign")
            parked.append(write)  # holds its version: later ones cannot publish
        elif fate < 0.5:
            write.advance(until="vm.assign")
            vm.abandon(blob, vm.in_flight_versions(blob)[-1])
        else:
            write.advance()
        if parked and rng.random() < 0.4:
            parked.pop(rng.randrange(len(parked))).advance()
        check(vm)

    # one last writer stays in flight for good: a vm rebuilt from the
    # journal rolls that tail back, and answers every question the live
    # one answers, identically
    SteppedWrite(dep, blob, geom, 0, pages(3, b"z"), "w#last").advance("vm.assign")
    check(vm)
    shutil.copytree(tmp_path / "vm", tmp_path / "recovered")
    recovered = VersionManager(Journal(tmp_path / "recovered"))
    assert recovered.rolled_back > 0
    latest = check(recovered)
    for version in range(1, latest + 1):
        for region in REGIONS:
            assert (recovered.resolve_read(blob, version, (region,))
                    == vm.resolve_read(blob, version, (region,)))
    assert checked > 1000 and 0 < declined < checked // 2


# ---------------------------------------------------------------------------
# the round-trip budget, pinned as counts
# ---------------------------------------------------------------------------


def _budget_on(dep):
    """Depth-18 blob, default cut (64 MiB: 4 levels above it), no cache."""
    client = dep.client()
    blob = client.alloc(1 * GB, SMALL_PAGE)
    geom = client.open(blob)
    assert geom.depth == 18
    proto, seen = observed(write_protocol(
        blob, geom, 40 * MB, split_pages(pages(4, b"B"), SMALL_PAGE),
        dep.router, "budget#1",
    ))
    written = dep.driver.run(proto)
    # one metadata batch: the region's owner gets its shard in one call,
    # each of the 4 nodes above the cut stays one put
    assert seen["meta_puts"] == [{"meta.put_node": 4, "meta.put_nodes": 1}]
    proto, seen = observed(
        read_protocol(blob, geom, 40 * MB, 4 * SMALL_PAGE, dep.router)
    )
    got = dep.driver.run(proto)
    assert bytes(got.data) == pages(4, b"B")
    # version -> one get_leaves for the region -> pages
    assert (seen["batches"], seen["meta_batches"], seen["asked"]) == (3, 1, True)
    assert seen["node_sizes"] == []  # nothing above the cut was fetched
    assert seen["walks"] == ["meta.get_leaves"]
    # no cache keeps the region's inner nodes: only its 4 leaves come back
    assert got.nodes_fetched == got.pages_fetched == 4
    assert written.nodes_written > 4 + got.nodes_fetched
    # a request spanning two regions: still 3 batches, one walk per region
    client.write(blob, pages(2, b"C"), 64 * MB - SMALL_PAGE)
    proto, seen = observed(read_protocol(
        blob, geom, 64 * MB - SMALL_PAGE, 2 * SMALL_PAGE, dep.router
    ))
    assert bytes(dep.driver.run(proto).data) == pages(2, b"C")
    assert (seen["batches"], seen["meta_batches"]) == (3, 1)
    stats = call(dep, "vm", "vm.stats")
    assert (stats["roots_answered"], stats["roots_declined"]) == (2, 0)
    # a one-page READ: one get_leaves, one node received
    proto, seen = observed(
        read_protocol(blob, geom, 40 * MB + SMALL_PAGE, SMALL_PAGE, dep.router)
    )
    got = dep.driver.run(proto)
    assert bytes(got.data) == pages(1, b"B")
    assert seen["walks"] == ["meta.get_leaves"] and seen["batches"] == 3
    assert got.nodes_fetched == got.pages_fetched == 1


@pytest.mark.parametrize("driver", ["inproc", "threaded", "tcp", "aio"])
def test_cold_read_is_three_batches_and_a_write_one_put_per_shard(driver):
    with BUILDERS[driver](DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0)) as dep:
        _budget_on(dep)


def test_every_replica_owner_gets_its_shard():
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, replication=2,
                                      cache_capacity=0))
    client = dep.client()
    blob = client.alloc(1 * GB, SMALL_PAGE)
    geom = client.open(blob)
    proto, seen = observed(write_protocol(
        blob, geom, 40 * MB, split_pages(pages(4, b"R"), SMALL_PAGE),
        dep.router, "replicated#1",
    ))
    written = dep.driver.run(proto)
    assert seen["meta_puts"] == [{"meta.put_node": 8, "meta.put_nodes": 2}]
    owners = dep.router.route(NodeKey(blob, 1, 40 * MB, SMALL_PAGE))
    shards = [
        {n.key for n in dep.meta[m].iter_nodes(blob) if dep.router.colocated(n.key)}
        for _, m in owners
    ]
    assert len(owners) == 2 and shards[0] == shards[1]
    assert len(shards[0]) == written.nodes_written - 4
    assert [dep.meta[m].put_batches for _, m in owners] == [1, 1]
    assert sum(m.puts for m in dep.meta.values()) == 2 * written.nodes_written
    # and either copy serves the READ
    dep.driver.fail(owners[0])
    assert client.read_bytes(blob, 40 * MB, 4 * SMALL_PAGE) == pages(4, b"R")


def test_read_at_latest_beside_an_in_flight_writer_is_three_batches():
    """A writer sitting between ``vm.assign`` and ``vm.complete`` on the
    same region has stamped the vm's index with an unpublished version;
    the vm walks back through its undo record instead of declining."""
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, cache_capacity=0))
    client = dep.client()
    blob = client.alloc(1 * GB, SMALL_PAGE)
    geom = client.open(blob)
    client.write(blob, pages(4, b"P"), 40 * MB)
    writer = SteppedWrite(dep, blob, geom, 40 * MB, pages(4, b"Q"), "parked#1")
    writer.advance(until="vm.assign")
    assert dep.vm.in_flight_versions(blob) == [2]
    for _ in range(2):  # ...and again after the writer stored its metadata
        proto, seen = observed(
            read_protocol(blob, geom, 40 * MB, 4 * SMALL_PAGE, dep.router)
        )
        got = dep.driver.run(proto)
        assert (got.version, bytes(got.data)) == (1, pages(4, b"P"))
        assert (seen["batches"], seen["asked"]) == (3, True)
        writer.advance(until="meta.put_node")
    assert writer.advance().version == 2
    assert client.read_bytes(blob, 40 * MB, 4 * SMALL_PAGE) == pages(4, b"Q")
    assert (dep.vm.roots_answered, dep.vm.roots_declined) == (3, 0)


def test_a_collected_version_reads_node_missing_or_its_exact_bytes():
    """A hinted READ never touches the blob root, so after a GC a collected
    version is the typed error it always was — or, where a kept version
    still shares the whole region subtree, that snapshot's bytes."""
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, cache_capacity=0))
    client = dep.client()
    blob = client.alloc(1 * GB, SMALL_PAGE)
    client.write(blob, pages(4, b"1"), 40 * MB)    # v1, region 0
    client.write(blob, pages(4, b"2"), 200 * MB)   # v2, region 3
    client.write(blob, pages(2, b"3"), 200 * MB)   # v3 overwrites half of it
    client.gc(blob, [3], sorted(dep.data), sorted(dep.meta))
    # v2's region 0 is v1's subtree, which v3 still shares: exact bytes
    assert client.read_bytes(blob, 40 * MB, 4 * SMALL_PAGE, version=2) == pages(4, b"1")
    # v2's region 3 was overwritten by a published version: the vm declines,
    # the READ starts at v2's root, and that was collected
    with pytest.raises(NodeMissing):
        client.read(blob, 200 * MB, 4 * SMALL_PAGE, version=2)
    # a region no version ever wrote: zeros, without fetching anything
    got = client.read(blob, 512 * MB, 4 * SMALL_PAGE, version=1)
    assert (bytes(got.data), got.nodes_fetched) == (bytes(4 * SMALL_PAGE), 0)
    assert client.read_bytes(blob, 200 * MB, 4 * SMALL_PAGE) == (
        pages(2, b"3") + pages(2, b"2")
    )


def test_malformed_regions_are_typed_errors_and_the_vm_keeps_serving():
    spec = DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0)
    with build_tcp(spec, control_plane="agents") as dep:
        client = dep.client()
        blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
        client.write(blob, pages(2, b"V"), 0)
        page = (0, SMALL_PAGE)
        for regions in (
            [page],                                   # not a tuple
            (page,) * 12,                             # more than depth + 1
            ((0, 3 * SMALL_PAGE),),                   # not a power of two
            ((SMALL_PAGE, 2 * SMALL_PAGE),),          # not aligned to its size
            ((0, SMALL_PAGE // 2),),                  # below the page size
            ((SMALL_TOTAL, SMALL_PAGE),),             # out of bounds
            ((0, 2 * SMALL_TOTAL),),
            ((-SMALL_PAGE, SMALL_PAGE),),
            ((0.0, SMALL_PAGE),), ("ab",), (page + (1,),), 7,
        ):
            with pytest.raises(RemoteError) as refused:
                call(dep, "vm", "vm.resolve_read", (blob, LATEST, regions))
            assert refused.value.error_type == "ValueError", regions
        # same connection, next call: served
        assert call(dep, "vm", "vm.resolve_read", (blob, LATEST, (page,))) == (1, 1, (1,))
        assert call(dep, "vm", "vm.resolve_read", (blob, LATEST)) == (1, 1)
        assert dep.driver.peer_status()["vm"] == "connected"


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
    # a cold reader: the writer's cache already holds what it wrote
    dep.client().read(blob, 0, 8 * SMALL_PAGE)
    assert all(m.subtree_gets == 0 for m in dep.meta.values())
    assert sum(m.gets for m in dep.meta.values()) > 0


# ---------------------------------------------------------------------------
# failure paths of meta.get_subtree
# ---------------------------------------------------------------------------


def test_subtree_primary_crashed_mid_read_costs_one_extra_batch():
    """A READ with a cache walks with ``get_subtree``: a dead primary
    costs one extra batch."""
    _primary_crashed_mid_read("meta.get_subtree")


def test_leaves_primary_crashed_mid_read_costs_one_extra_batch():
    """A READ with no cache walks with ``get_leaves``: a dead primary
    costs one extra batch too."""
    _primary_crashed_mid_read("meta.get_leaves")


def _primary_crashed_mid_read(walk):
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, replication=2,
                                      cache_capacity=0))
    client = dep.client()
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    client.write(blob, pages(8, b"S"), 0)
    geom = client.open(blob)

    def read(on_batch=None):
        cache = MetadataCache() if walk == "meta.get_subtree" else None
        proto, seen = observed(
            read_protocol(blob, geom, 0, 8 * SMALL_PAGE, dep.router, cache=cache),
            on_batch,
        )
        return dep.driver.run(proto), seen

    healthy, healthy_seen = read()

    failed = []

    def crash_the_owner(batch):
        # the READ is under way (vm already answered) when the subtree's
        # primary owner dies, just before its walk is sent
        for c in batch.calls:
            if c.method == walk and not failed:
                dep.driver.fail(c.dest)
                failed.append(c.dest)

    got, seen = read(crash_the_owner)
    assert bytes(got.data) == bytes(healthy.data) == pages(8, b"S")
    assert got.nodes_fetched == healthy.nodes_fetched
    assert seen["batches"] == healthy_seen["batches"] + 1
    assert len(failed) == 1
    assert set(seen["walks"]) == set(healthy_seen["walks"]) == {walk}


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
    with BUILDERS[driver](DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0)) as dep:
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
    dep.driver.fail(primary)
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


def test_inspect_and_diff_of_a_depth_18_blob_keep_their_batch_counts(monkeypatch):
    """The walkers' traffic, pinned on GC's depth-18 blob with no cache:
    an unbounded inspect is one batch per level, or 4 hashed levels + one
    ``get_subtree`` batch below the cut; ``max_depth=2`` is 3 levels; a
    diff is the vm's reply + one batch per internal level, either way."""
    counts = {}
    for cut in (0, SUBTREE_BYTES):
        dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, cache_capacity=0,
                                          meta_subtree_bytes=cut))
        client = dep.client()
        blob = client.alloc(1 * GB, SMALL_PAGE)
        geom = client.open(blob)
        assert geom.depth == 18
        client.write(blob, pages(4), 0)
        client.write(blob, pages(2), 40 * MB)
        inspector = TreeInspector(client)
        run = client.driver.run
        runs = []

        def observed_run(proto):
            proto, seen = observed(proto)
            runs.append(seen)
            return run(proto)

        def meta_batches(action):
            runs.clear()
            with monkeypatch.context() as m:
                m.setattr(client.driver, "run", observed_run)
                action()
            return sum(seen["meta_batches"] for seen in runs)

        unbounded = meta_batches(lambda: inspector.sharing_stats(blob, 2))
        bounded = meta_batches(lambda: inspector.dump(blob, 2, max_depth=2))
        proto, seen = observed(diff_protocol(blob, geom, 1, 2, dep.router))
        assert run(proto) == [Interval(40 * MB, 2 * SMALL_PAGE)]
        counts[cut] = (unbounded, bounded, seen["batches"], seen["meta_batches"])
    assert counts == {0: (19, 3, 19, 18), SUBTREE_BYTES: (5, 3, 19, 18)}


def test_simulator_prices_a_subtree_reply_per_node_returned():
    """One RPC is not one node's worth of work: the model charges service
    and client reply CPU for every node a subtree reply carries."""
    dep = SimDeployment(DeploymentSpec(
        n_data=2, n_meta=2, n_clients=1, cache_capacity=0,
        meta_subtree_bytes=SMALL_TOTAL,
    ))
    client = dep.client()
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    client.write_virtual(blob, 0, 64 * SMALL_PAGE)
    spec = dep.network.spec
    service, reply, _ = spec.method_costs("meta.get_node")
    per_node = service + reply
    points = []
    for npages in (1, 64):
        result, elapsed = traced_phase(
            dep, lambda: client.read_virtual(blob, 0, npages * SMALL_PAGE)
        )
        assert elapsed >= result.nodes_fetched * per_node
        points.append((elapsed, result.nodes_fetched))
    (t_small, n_small), (t_big, n_big) = points
    assert n_big > 10 * n_small
    assert t_big - t_small >= (n_big - n_small) * per_node
    assert sum(m.subtree_gets for m in dep.meta.values()) == 2


def test_simulator_prices_a_leaves_reply_per_node_walked_and_per_leaf_returned():
    """``meta.get_leaves`` walks what ``meta.get_subtree`` walks: the
    model charges the provider the service row for every node visited,
    the client the reply row only for the leaves it receives."""
    spec = None
    phases = {}
    for cached in (True, False):
        dep = SimDeployment(DeploymentSpec(
            n_data=2, n_meta=2, n_clients=1, cache_capacity=0,
            meta_subtree_bytes=SMALL_TOTAL,
        ))
        spec = dep.network.spec
        writer = dep.client(cached=cached)
        blob = writer.alloc(SMALL_TOTAL, SMALL_PAGE)
        writer.write_virtual(blob, 0, 64 * SMALL_PAGE)
        # a cold reader: the writer's cache already holds what it wrote
        client = dep.client("reader", cached=cached)
        served = sum(m.nodes_served for m in dep.meta.values())
        proto, seen = observed(read_protocol(
            blob, client.open(blob), 0, 64 * SMALL_PAGE, dep.router,
            cache=client.cache, with_data=False,
        ))
        result, elapsed = traced_phase(dep, lambda: dep.driver.run(proto))
        walked = sum(m.nodes_served for m in dep.meta.values()) - served
        phases[cached] = (elapsed, walked, result.nodes_fetched, seen["walks"])
    (t_sub, walked, n_sub, walks_sub) = phases[True]
    (t_leaves, walked_leaves, n_leaves, walks_leaves) = phases[False]
    assert (walks_sub, walks_leaves) == (["meta.get_subtree"], ["meta.get_leaves"])
    assert walked == walked_leaves == n_sub > n_leaves == 64
    service, reply, _ = spec.method_costs("meta.get_node")
    assert t_leaves >= walked * service + n_leaves * reply
    assert t_sub - t_leaves >= (n_sub - n_leaves) * reply


def test_simulator_one_page_cacheless_read_receives_one_node():
    dep = SimDeployment(DeploymentSpec(
        n_data=2, n_meta=2, n_clients=1, cache_capacity=0,
    ))
    client = dep.client()
    blob = client.alloc(1 * GB, SMALL_PAGE)
    client.write_virtual(blob, 40 * MB, 4 * SMALL_PAGE)
    proto, seen = observed(read_protocol(
        blob, client.open(blob), 40 * MB, SMALL_PAGE, dep.router, with_data=False
    ))
    result = dep.driver.run(proto)
    assert seen["walks"] == ["meta.get_leaves"] and seen["batches"] == 3
    assert result.nodes_fetched == result.pages_fetched == 1


def test_simulator_prices_a_shard_per_node_and_its_dht_latency_once():
    """``meta.put_nodes`` is never cheaper than the service time of the
    nodes it carries; what it saves is the per-put asynchronous latency
    (one metadata provider, so both layouts queue on the same lane)."""
    elapsed = {}
    for cut in (0, SMALL_TOTAL):
        dep = SimDeployment(DeploymentSpec(
            n_data=1, n_meta=1, n_clients=1, cache_capacity=0,
            meta_subtree_bytes=cut,
        ))
        client = dep.client()
        blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
        result, elapsed[cut] = traced_phase(
            dep, lambda: client.write_virtual(blob, 0, 64 * SMALL_PAGE)
        )
        (provider,) = dep.meta.values()
        assert provider.put_batches == (1 if cut else 0)
        assert provider.puts == result.nodes_written
    spec = dep.network.spec
    n = result.nodes_written
    service, _, async_latency = spec.method_costs("meta.put_node")
    assert elapsed[SMALL_TOTAL] >= n * service
    assert elapsed[0] - elapsed[SMALL_TOTAL] >= (n - 1) * async_latency


# ---------------------------------------------------------------------------
# observability of the hot spot
# ---------------------------------------------------------------------------


def test_subtree_counters_reach_stats_and_the_scrape():
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, cache_capacity=0))
    client = dep.client()
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    written = client.write(blob, pages(8), 0)
    result = client.read(blob, 0, 8 * SMALL_PAGE)
    owner = dep.router.primary(NodeKey(blob, 1, 0, SMALL_TOTAL))
    # a blob no larger than S lives on one metadata provider, by design
    stats = call(dep, owner, "meta.stats")
    assert stats["subtree_gets"] == 1
    # the leaves-only walk visits the whole written tree, returns its leaves
    assert stats["nodes_served"] == stats["gets"] == written.nodes_written
    assert result.nodes_fetched == result.pages_fetched == 8
    assert stats["nodes"] == sum(m.node_count for m in dep.meta.values())
    assert (stats["puts"], stats["put_batches"]) == (stats["nodes"], 1)
    doc = scrape_driver(dep.driver, source="inproc")
    name = f"meta/{owner[1]}"
    assert doc["actors"][name]["stats"] == stats
    assert doc["actors"][name]["methods"]["meta.get_leaves"]["count"] == 1
    table = render_metrics(doc)
    assert f"nodes {stats['nodes']}" in table
    assert "put_batches 1" in table
    assert f"subtree_gets 1, nodes_served {written.nodes_written}" in table


def test_vm_counters_say_why_a_read_was_slow():
    """``roots_declined`` counts the READs that paid the descent from the
    root: snapshots older than a published overwrite of their region."""
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, cache_capacity=0))
    client = dep.client()
    blob = client.alloc(1 * GB, SMALL_PAGE)
    client.write(blob, pages(2, b"1"), 0)
    client.write(blob, pages(2, b"2"), 0)
    client.read(blob, 0, SMALL_PAGE)                 # LATEST: answered
    client.read(blob, 0, SMALL_PAGE, version=1)      # overwritten since: declined
    client.read(blob, 128 * MB, SMALL_PAGE, version=1)  # untouched region: answered
    small = client.alloc(SMALL_TOTAL, SMALL_PAGE)    # no larger than S: not asked
    client.write(small, pages(1), 0)
    client.read(small, 0, SMALL_PAGE)
    stats = call(dep, "vm", "vm.stats")
    assert stats == {"assigns": 3, "completions": 3, "resolves": 4,
                     "roots_answered": 2, "roots_declined": 1}
    doc = scrape_driver(dep.driver, source="inproc")
    assert doc["actors"]["vm"]["stats"] == stats
    assert "roots_answered 2, roots_declined 1" in render_metrics(doc)
