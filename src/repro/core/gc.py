"""Client-ordered garbage collection (paper §III: "the previous version of
the pages remain available ... until some garbage collection is ordered by
the client"; §VI lists a full design as future work).

Mark-and-sweep over the metadata graph:

1. **guard** — refuse to run while writes are in flight (the paper's model
   orders GC from a quiescent client);
2. **mark** — walk the segment trees of every kept version (shared subtrees
   visited once), collecting reachable node keys and page keys; below the
   router's cut a whole subtree arrives in one ``meta.get_subtree`` reply,
   so the mark is one batch per level *above* the cut plus one;
3. **sweep** — ask every provider for its key inventory for the blob and
   free everything unreachable.

Versions other than the kept ones become unreadable; kept versions are
bit-for-bit unaffected (asserted by tests). "Unreadable" means a READ of a
collected version is a typed ``NodeMissing`` — or, when the vm names the
region root for it (``vm.resolve_read``) and a kept version still shares
that whole subtree, that snapshot's exact bytes: such a READ never touches
the collected blob root. Never wrong bytes, since nodes are immutable and
version-addressed (another client whose warm cache still holds collected
nodes can do the same). The collecting client's own metadata cache drops
every node key the sweep frees, so it reads a collected version exactly as
a cold client does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import StaleWrite
from repro.metadata.cache import MetadataCache
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.router import StaticRouter, fetch_nodes
from repro.metadata.tree import TreeGeometry
from repro.net.sansio import Batch, Call
from repro.providers.page import PageKey


@dataclass(frozen=True, slots=True)
class GCStats:
    """Outcome of one collection."""

    blob_id: str
    kept_versions: tuple[int, ...]
    nodes_live: int
    pages_live: int
    nodes_freed: int
    pages_freed: int


def gc_protocol(
    blob_id: str,
    geom: TreeGeometry,
    keep_versions: tuple[int, ...],
    router: StaticRouter,
    data_ids: tuple[int, ...],
    meta_ids: tuple[int, ...],
    cache: MetadataCache | None = None,
):
    """Sans-io GC protocol; returns :class:`GCStats`. Every node key it
    frees leaves ``cache`` before the free is sent."""
    # -- guard: no writes may be in flight, and kept versions must exist --
    (stat,) = yield Batch([Call("vm", "vm.stat", (blob_id,))])
    _, _, latest = stat
    (in_flight,) = yield Batch([Call("vm", "vm.in_flight", (blob_id,))])
    if in_flight:
        raise StaleWrite(
            f"blob {blob_id}: GC ordered while writes {in_flight} are in flight"
        )
    keep = tuple(sorted({v for v in keep_versions if v >= 1}))
    for v in keep:
        if v > latest:
            raise StaleWrite(
                f"blob {blob_id}: cannot keep unpublished version {v} "
                f"(latest is {latest})"
            )

    # -- mark: BFS over the union of kept trees, shared subtrees once -----
    live_nodes: dict[NodeKey, TreeNode] = {}
    frontier = [NodeKey(blob_id, v, 0, geom.total_size) for v in keep]
    while frontier:
        for node in (yield from fetch_nodes(router, frontier, within=geom.root)):
            live_nodes[node.key] = node
        next_frontier: dict[NodeKey, None] = {}  # ordered, deduplicated
        for key in frontier:
            node = live_nodes[key]
            if node.is_leaf:
                continue
            for child in node.child_keys():
                # version 0 is the implicit zero subtree: nothing stored. A
                # child already live was either expanded in an earlier
                # round or arrived in a subtree reply — which is complete
                # below its key, so its descendants are live too.
                if child.version and child not in live_nodes:
                    next_frontier[child] = None
        frontier = list(next_frontier)
    live_pages = {
        PageKey(blob_id, node.write_uid, geom.page_index(node.interval))
        for node in live_nodes.values()
        if node.is_leaf
    }

    # -- sweep metadata -----------------------------------------------------
    meta_lists = yield Batch(
        [Call(("meta", m), "meta.list_nodes", (blob_id,)) for m in meta_ids]
    )
    nodes_freed = 0
    free_calls = []
    for m, keys in zip(meta_ids, meta_lists):
        doomed = [k for k in keys if k not in live_nodes]
        if doomed:
            nodes_freed += len(doomed)
            free_calls.append(Call(("meta", m), "meta.free_nodes", (doomed,)))
            if cache is not None:
                cache.discard(doomed)
    if free_calls:
        yield Batch(free_calls)

    # -- sweep data ---------------------------------------------------------
    data_lists = yield Batch(
        [Call(("data", d), "data.list_pages", (blob_id,)) for d in data_ids]
    )
    pages_freed = 0
    free_calls = []
    for d, keys in zip(data_ids, data_lists):
        doomed = [k for k in keys if k not in live_pages]
        if doomed:
            pages_freed += len(doomed)
            free_calls.append(Call(("data", d), "data.free_pages", (doomed,)))
    if free_calls:
        yield Batch(free_calls)

    return GCStats(
        blob_id=blob_id,
        kept_versions=keep,
        nodes_live=len(live_nodes),
        pages_live=len(live_pages),
        nodes_freed=nodes_freed,
        pages_freed=pages_freed,
    )
