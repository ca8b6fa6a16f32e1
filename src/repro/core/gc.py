"""Client-ordered garbage collection (paper §III: "the previous version of
the pages remain available ... until some garbage collection is ordered by
the client"; §VI lists a full design as future work).

Mark-and-sweep over the metadata graph:

1. **guard** — refuse to run while writes are in flight (the paper's model
   orders GC from a quiescent client);
2. **mark** — one :func:`~repro.metadata.router.walk_tree` over the roots
   of every kept version (shared subtrees visited once), collecting
   reachable node keys and page keys; below the router's cut a whole
   subtree arrives in one ``meta.get_subtree`` reply, so the mark is one
   batch per level *above* the cut plus one;
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

from repro.errors import StaleWrite
from repro.metadata.cache import MetadataCache
from repro.metadata.node import NodeKey
from repro.metadata.router import StaticRouter, walk_tree
from repro.metadata.tree import TreeGeometry
from repro.net.sansio import Batch, Call
from repro.providers.page import PageKey
from repro.version.manager import LATEST


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
    """Sans-io GC protocol; returns :class:`GCStats`. ``LATEST`` among
    ``keep_versions`` keeps the newest published version; any other
    negative version is a ``ValueError`` before anything is freed. Every
    node key it frees leaves ``cache`` before the free is sent."""
    # -- guard: no writes may be in flight, and kept versions must exist --
    (stat,) = yield Batch([Call("vm", "vm.stat", (blob_id,))])
    _, _, latest = stat
    (in_flight,) = yield Batch([Call("vm", "vm.in_flight", (blob_id,))])
    if in_flight:
        raise StaleWrite(
            f"blob {blob_id}: GC ordered while writes {in_flight} are in flight"
        )
    keep = tuple(sorted({latest if v == LATEST else v for v in keep_versions} - {0}))
    for v in keep:
        if v < 0:
            raise ValueError(f"blob {blob_id}: cannot keep negative version {v}")
        if v > latest:
            raise StaleWrite(
                f"blob {blob_id}: cannot keep unpublished version {v} "
                f"(latest is {latest})"
            )

    # -- mark: the union of kept trees, shared subtrees once ---------------
    live_nodes = yield from walk_tree(
        router, [NodeKey(blob_id, v, 0, geom.total_size) for v in keep], geom.root
    )
    live_pages = {
        PageKey(blob_id, node.write_uid, geom.page_index(node.interval))
        for node in live_nodes.values()
        if node.is_leaf
    }

    # -- sweep metadata, then data -----------------------------------------
    nodes_freed = yield from _sweep(
        blob_id, [("meta", m) for m in meta_ids], "meta.list_nodes",
        "meta.free_nodes", live_nodes, cache,
    )
    pages_freed = yield from _sweep(
        blob_id, [("data", d) for d in data_ids], "data.list_pages",
        "data.free_pages", live_pages,
    )

    return GCStats(
        blob_id=blob_id,
        kept_versions=keep,
        nodes_live=len(live_nodes),
        pages_live=len(live_pages),
        nodes_freed=nodes_freed,
        pages_freed=pages_freed,
    )


def _sweep(blob_id, owners, list_method, free_method, live, cache=None):
    """List the blob's keys on every owner in one batch and free, in one
    more, those not in ``live``; returns how many were freed. Freed keys
    leave ``cache`` before the free is sent."""
    listed = yield Batch([Call(owner, list_method, (blob_id,)) for owner in owners])
    freed = 0
    free_calls = []
    for owner, keys in zip(owners, listed):
        doomed = [k for k in keys if k not in live]
        if doomed:
            freed += len(doomed)
            free_calls.append(Call(owner, free_method, (doomed,)))
            if cache is not None:
                cache.discard(doomed)
    if free_calls:
        yield Batch(free_calls)
    return freed
