"""The READ descent on plain ints against the level-by-level walker it
replaced.

``reference_read`` keeps that walker (with ``meta.get_subtree`` below the
cut even when no cache keeps its inner nodes): every level is filtered for
version-0 keys, resolved from the nodes received, the cache or a fetch,
and expanded through ``TreeNode.child_keys``, and each page key comes from
``geom.page_index(leaf.interval)``. Both READs are driven with the same
canned replies (a version manager and one metadata store holding the
trees of random writes) and must yield the same batches, visit the leaves
in the same order and return the same result — a READ with no cache
asks for the leaves only (``meta.get_leaves``), so there it receives only
the nodes above the cut and the leaves.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.protocol import ReadResult, WriteResult, read_protocol
from repro.metadata.build import plan_write_tree
from repro.metadata.cache import MetadataCache
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.provider import MetadataProvider
from repro.metadata.router import StaticRouter, fetch_nodes
from repro.metadata.tree import TreeGeometry
from repro.net.sansio import Batch, Call, Compute, gather_with_failover, step
from repro.providers.page import PageKey, PagePayload
from repro.version.manager import LATEST, VersionManager


def reference_read(blob_id, geom, offset, size, router, version=LATEST, cache=None):
    """The level-by-level READ (metadata descent and page keys as they
    were), assembling its bytes through a zero-filled buffer."""
    req = geom.check_bounds(offset, size)
    regions = router.regions_worth_asking(geom, offset, size)
    (resolved,) = yield Batch([Call(
        "vm", "vm.resolve_read",
        (blob_id, version, regions) if regions else (blob_id, version),
    )])
    effective, latest = resolved[:2]
    if effective == 0:
        return ReadResult(blob_id, 0, latest, offset, size, bytes(size),
                          nodes_fetched=0, cache_hits=0, pages_fetched=0,
                          zero_bytes=size)
    nodes_fetched = 0
    cache_hits = 0
    zero_bytes = 0
    leaves: list[TreeNode] = []
    known: dict[NodeKey, TreeNode] = {}
    roots = resolved[2] if regions else None
    if roots is None:
        wanted = [NodeKey(blob_id, effective, 0, geom.total_size)]
    else:
        wanted = [
            NodeKey(blob_id, label, lo, span)
            for (lo, span), label in zip(regions, roots)
        ]
    req_end = offset + size
    while wanted:
        frontier: list[NodeKey] = []
        for key in wanted:
            if key.version:
                frontier.append(key)
            else:
                zero_bytes += (
                    min(key.offset + key.size, req_end) - max(key.offset, offset)
                )
        to_fetch: list[NodeKey] = []
        for key in frontier:
            if key in known:
                continue
            node = cache.get(key) if cache is not None else None
            if node is not None:
                cache_hits += 1
                known[key] = node
            else:
                to_fetch.append(key)
        if to_fetch:
            fetched = yield from fetch_nodes(router, to_fetch, within=req)
            nodes_fetched += len(fetched)
            for node in fetched:
                known[node.key] = node
                if cache is not None:
                    cache.put(node)
        wanted = []
        for key in frontier:
            node = known[key]
            if node.is_leaf:
                leaves.append(node)
                continue
            for child in node.child_keys():
                if child.offset < req_end and offset < child.offset + child.size:
                    wanted.append(child)

    def key_for(leaf):
        return PageKey(leaf.key.blob_id, leaf.write_uid, geom.page_index(leaf.interval))

    payloads = yield from gather_with_failover(
        leaves,
        lambda leaf: tuple(("data", p) for p in leaf.providers),
        lambda leaf, owner, last: Call(owner, "data.get_page", (key_for(leaf),),
                                       allow_error=not last),
    )
    if leaves:
        yield Compute("client.touch_page", len(leaves))
    buf = bytearray(size)
    for leaf, payload in zip(leaves, payloads):
        iv = leaf.interval
        lo = max(iv.offset, offset)
        hi = min(iv.end, req_end)
        buf[lo - offset : hi - offset] = payload.view()[lo - iv.offset : hi - iv.offset]
    return ReadResult(blob_id, effective, latest, offset, size, bytes(buf),
                      nodes_fetched=nodes_fetched, cache_hits=cache_hits,
                      pages_fetched=len(leaves), zero_bytes=zero_bytes)


def page_bytes(key: PageKey, pagesize: int) -> bytes:
    return f"{key.write_uid}/{key.index};".encode().ljust(pagesize, b".")[:pagesize]


class Canned:
    """A version manager, one metadata store and computed pages: the
    replies both READs are driven with."""

    def __init__(self, geom: TreeGeometry, writes: list[tuple[int, int]]):
        self.geom = geom
        self.vm = VersionManager()
        self.meta = MetadataProvider(0)
        self.blob = self.vm.alloc(geom.total_size, geom.pagesize)
        for i, (first, npages) in enumerate(writes):
            offset, size = first * geom.pagesize, npages * geom.pagesize
            ticket = self.vm.assign(self.blob, offset, size)
            self.meta.put_nodes(plan_write_tree(
                geom, self.blob, ticket.version, geom.check_aligned(offset, size),
                ticket.refs_as_dict(), [(i % 3,)] * npages, f"w{i}",
            ))
            self.vm.complete(self.blob, ticket.version)

    def answer(self, call: Call):
        if call.dest == "vm":
            return self.vm.handle(call.method, call.args)
        if call.dest[0] == "meta":
            return self.meta.handle(call.method, call.args)
        assert call.method == "data.get_page"
        return PagePayload.real(page_bytes(call.args[0], self.geom.pagesize))

    def run(self, proto):
        """Drive ``proto``; returns its batches, as ``(dest, method, args)``
        per call, and its result."""
        batches = []
        try:
            batch = step(proto)
            while True:
                batches.append([(c.dest, c.method, c.args) for c in batch.calls])
                batch = step(proto, [self.answer(c) for c in batch.calls])
        except StopIteration as stop:
            return batches, stop.value


@st.composite
def cases(draw):
    pagesize = 1 << draw(st.integers(2, 5))
    depth = draw(st.integers(0, 6))
    geom = TreeGeometry(pagesize << depth, pagesize)
    npages = geom.page_count
    # the cut: below every node (nothing co-located), at a level inside
    # the tree, or at or above the blob root (everything co-located)
    cut = draw(st.sampled_from(
        [0, pagesize >> 1] + [pagesize << k for k in range(depth + 2)]
    ))
    writes = draw(st.lists(
        st.integers(0, npages - 1).flatmap(
            lambda first: st.tuples(st.just(first), st.integers(1, npages - first))
        ),
        max_size=6,
    ))
    offset = draw(st.integers(0, geom.total_size - 1))
    size = draw(st.integers(1, geom.total_size - offset))
    version = draw(st.sampled_from([LATEST] + list(range(len(writes) + 1))))
    cache = draw(st.sampled_from(["none", "cold", "warm"]))
    return geom, cut, writes, offset, size, version, cache, draw(st.randoms())


def compare(geom, cut, writes, offset, size, version, cache_kind, rnd):
    """Drive both READs on the same canned replies and caches; assert
    they agree and return the one under test and its batches."""
    canned = Canned(geom, writes)
    router = StaticRouter(range(3), subtree_bytes=cut)
    caches = [None, None]
    if cache_kind != "none":
        caches = [MetadataCache(), MetadataCache()]
        if cache_kind == "warm":  # the same random part of the store in both
            stored = canned.meta.dump_nodes(canned.blob)
            for node in rnd.sample(stored, len(stored) // 2):
                for cache in caches:
                    cache.put(node)
    ref_batches, ref = canned.run(reference_read(
        canned.blob, geom, offset, size, router, version=version, cache=caches[0]
    ))
    batches, result = canned.run(read_protocol(
        canned.blob, geom, offset, size, router, version=version, cache=caches[1]
    ))
    if cache_kind == "none":
        # a READ with no cache asks the co-located keys' owners for their
        # leaves only: the walker's batches with that verb, and of the
        # nodes it received, those above the cut and the leaves below it
        ref_batches = [
            [(dest, "meta.get_leaves" if method == "meta.get_subtree" else method,
              args) for dest, method, args in batch]
            for batch in ref_batches
        ]
        above = sum(
            call[1] == "meta.get_node" for batch in ref_batches for call in batch
        )
        leaves_below = router.colocated(NodeKey("", 0, 0, geom.pagesize))
        below = ref.pages_fetched if leaves_below else 0
        ref = dataclasses.replace(ref, nodes_fetched=above + below)
    assert batches == ref_batches  # the page batch is the leaf order
    assert result == ref
    if cache_kind != "none":
        # hits are in the results; a miss is a fetch, so in the batches
        stored = canned.meta.dump_nodes(canned.blob)
        assert len(caches[1]) == len(caches[0])
        assert [n.key in caches[1] for n in stored] == [
            n.key in caches[0] for n in stored
        ]
    return batches, result


@settings(max_examples=300, deadline=None)
@given(cases())
def test_the_int_descent_reads_as_the_level_walker_did(case):
    compare(*case)


GEOM = TreeGeometry(64 * 16, 16)  # 64 pages of 16 B, depth 6


def test_named_shapes_read_as_the_level_walker_did():
    """Shapes the random cases must not miss, each pinned once: the blob
    root fetched level by level, region roots the vm names (and one
    it declines: an older snapshot overwritten since), version-0
    children, a request over several regions, a partly warm cache."""
    rnd = random.Random(5)
    # no cut: one get_node per level, from the blob root
    batches, result = compare(GEOM, 0, [(0, 64)], 0, 1024, LATEST, "cold", rnd)
    assert len(batches) == 1 + GEOM.depth + 1 + 1 and result.zero_bytes == 0
    # cut inside: the vm names three region roots; two are version 0
    batches, result = compare(GEOM, 128, [(9, 2)], 100, 250, LATEST, "none", rnd)
    assert len(batches[0][0][2][2]) == 3 and result.zero_bytes == 250 - 32
    assert [call[1] for call in batches[1]] == ["meta.get_leaves"]
    assert result.nodes_fetched == result.pages_fetched == 2
    # the vm declines: version 1 was overwritten by version 2
    batches, result = compare(GEOM, 128, [(0, 64), (0, 64)], 0, 300, 1, "cold", rnd)
    assert batches[1][0][1] == "meta.get_node"
    # cut above the blob: one get_subtree from the root
    batches, result = compare(GEOM, 4096, [(0, 40), (7, 30)], 5, 900, LATEST,
                              "cold", rnd)
    assert [call[1] for call in batches[1]] == ["meta.get_subtree"]
    # no cut, half the tree cached: the walk mixes hits and fetches
    batches, result = compare(GEOM, 0, [(0, 40), (7, 30)], 5, 900, LATEST,
                              "warm", rnd)
    assert result.cache_hits and result.nodes_fetched


def test_result_records_built_by_slot_stay_frozen_and_equal():
    """READ and WRITE build their records through the slot setters, not
    ``__init__``: a built record still refuses a field assignment, and
    equals, hashes and prints as the constructor-built one."""
    _, read = compare(GEOM, 0, [(0, 64)], 0, 1024, LATEST, "cold", random.Random(5))
    write = protocol._write_result("b", 3, 2, 0, 64, 4, 9)
    for built, cls in ((read, ReadResult), (write, WriteResult)):
        assert type(built) is cls
        constructed = cls(**{f.name: getattr(built, f.name)
                             for f in dataclasses.fields(cls)})
        assert built == constructed and hash(built) == hash(constructed)
        assert repr(built) == repr(constructed)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.version = 7
    assert write == WriteResult("b", 3, 2, 0, 64, 4, 9) and not write.published
