"""Key → metadata-provider routing (the DHT's dispersal role).

The paper stores tree nodes in BambooDHT, whose job in the protocol is
simply to spread keys uniformly over the metadata providers and locate them
without coordination. :class:`StaticRouter` reproduces that contract for a
fixed provider set — matching the paper's deployments, where the provider
set never changes during an experiment — with a deterministic 64-bit
digest of the node key (SHA-1 seeds a per-blob salt, echoing the
Bamboo/Pastry key space; the per-key fold is integer mixing, because this
digest runs for every node of every WRITE). The routing contract is
:meth:`route` returning ``replication`` distinct owner addresses.

**The cut (extension beyond the paper).** Per-node dispersal makes a READ
pay one dependent round trip per tree level. With ``subtree_bytes = S`` a
node spanning *at most* ``S`` bytes is routed by the S-aligned region it
lies in — ``(blob, offset // S)``; ``version`` and ``size`` leave the
digest — so every version of one S-aligned subtree lives on the same
``replication`` owners, who can then walk it locally in one RPC
(``meta.get_subtree``, or ``meta.get_leaves`` for a reader that keeps
only the leaves, see :func:`fetch_nodes`) and receive a WRITE's nodes
for it in one (``meta.put_nodes``, see :func:`store_nodes`). Nodes above the
cut keep the per-node digest. ``S = 0`` co-locates nothing: that *is* the
paper's BambooDHT dispersal, bit-for-bit, and what the simulated figures
use. ``S`` is a deployment property like the provider set: every client
(and GC) of one deployment must route with the same value.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.tree import TreeGeometry
from repro.net.message import estimate_size
from repro.net.sansio import Address, Batch, Call, Protocol, gather_with_failover
from repro.util.bits import is_pow2
from repro.util.intervals import Interval

#: Default ``S``: a depth-18 READ is 4 hashed levels + 1 RPC while a 1 GB
#: working set still spans 16 regions. ``bench.figures.ablation_metadata``
#: sweeps it: fine-grain readers gain up to here and collapse onto one
#: provider at ``S`` = whole blob; writers confined to one region pay.
SUBTREE_BYTES = 64 << 20

# Request footprints, precomputed once from the estimator the drivers would
# otherwise invoke per call (key wire sizes are type-constant).
_GET_NODE_REQ_BYTES = estimate_size((NodeKey("", 0, 0, 0),))
_GET_SUBTREE_REQ_BYTES = estimate_size((NodeKey("", 0, 0, 0), 0, 0))
_PUT_NODE_REQ_BYTES = estimate_size((TreeNode(NodeKey("", 0, 0, 2), 0, 0),))


_MASK64 = (1 << 64) - 1

#: SHA-1-derived 64-bit salt per blob id (one hash per blob; bounded and
#: cleared wholesale on overflow like every other cache in this module —
#: recomputing a salt is cheap and the digest stays deterministic)
_BLOB_SALT_LIMIT = 1 << 16
_blob_salts: dict[str, int] = {}


def _digest(key: NodeKey) -> int:
    """Deterministic 64-bit dispersal digest of a node key.

    The blob id goes through SHA-1 once (cached, per blob); the numeric
    key fields are folded in with inlined SplitMix64 finalizer rounds —
    pure 64-bit integer arithmetic, so the digest (and therefore every
    simulated series) is identical across processes, hash seeds, and
    interpreter builds. (Python's C-speed tuple hash was measurably
    faster but varies between 64-bit/32-bit/PyPy builds, which would make
    benchmark baselines non-portable.) Hashing a digest per key was the
    single hottest line of the WRITE path — every published node resolves
    its owners, and every write mints fresh keys — so the per-key cost
    must stay a handful of integer ops rather than SHA-1 per key.
    """
    salt = _blob_salts.get(key.blob_id)
    if salt is None:
        if len(_blob_salts) >= _BLOB_SALT_LIMIT:
            _blob_salts.clear()
        salt = int.from_bytes(hashlib.sha1(key.blob_id.encode()).digest()[:8], "big")
        _blob_salts[key.blob_id] = salt
    z = salt ^ (key.version * 0x9E3779B97F4A7C15 & _MASK64)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    z = (z ^ (z >> 31)) ^ (key.offset * 0xC2B2AE3D27D4EB4F & _MASK64)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    z = (z ^ (z >> 31)) ^ (key.size * 0x165667B19E3779F9 & _MASK64)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class StaticRouter:
    """Deterministic key dispersal over a fixed metadata-provider set.

    Routes are memoized — per key above the cut, per S-aligned region
    below it (so the fresh keys every WRITE mints inside a region share one
    entry): the same keys recur across operations, clients and replicas,
    while the dispersal digest is deterministic, so a cached answer never
    goes stale (the provider set is fixed for the router's lifetime).
    """

    def __init__(
        self,
        meta_ids: Sequence[int],
        replication: int = 1,
        subtree_bytes: int = SUBTREE_BYTES,
    ) -> None:
        if not meta_ids:
            raise ValueError("need at least one metadata provider")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if subtree_bytes and not is_pow2(subtree_bytes):
            raise ValueError(
                f"subtree_bytes must be 0 or a power of two, got {subtree_bytes}"
            )
        if replication > len(meta_ids):
            raise ValueError(
                f"replication {replication} exceeds provider count {len(meta_ids)}"
            )
        self.meta_ids = tuple(meta_ids)
        self.replication = replication
        self.subtree_bytes = subtree_bytes
        self._route_cache: dict[NodeKey, tuple[Address, ...]] = {}

    def primary(self, key: NodeKey) -> Address:
        return self.route(key)[0]

    def colocated(self, key: NodeKey) -> bool:
        """True iff ``key`` lies below the cut: its owners also hold every
        version of every node inside its interval."""
        return key.size <= self.subtree_bytes

    def regions_worth_asking(
        self, geom: TreeGeometry, offset: int, size: int
    ) -> tuple[tuple[int, int], ...]:
        """The S-aligned regions, as ``(offset, S)``, that a READ of
        ``[offset, offset + size)`` touches — when asking the vm for their
        roots (``vm.resolve_read``) can pay, else ``()``.

        It can pay only when some but not all of the tree is co-located
        (``pagesize <= S < total_size``: otherwise the blob root is itself
        co-located, or nothing is), and only while the request touches no
        more regions than there are levels above the cut: the vm then does
        at most as many lookups as the READ saves round trips.
        """
        cut = self.subtree_bytes
        if not geom.pagesize <= cut < geom.total_size:
            return ()
        first = offset // cut
        last = (offset + size - 1) // cut
        if last - first >= (geom.total_size // cut).bit_length() - 1:
            return ()
        return tuple((index * cut, cut) for index in range(first, last + 1))

    #: route-cache entry bound; on overflow the cache is wholesale-cleared
    #: (writes mint fresh keys forever, so an unbounded cache would be a
    #: slow leak on long-lived clients; clearing is cheaper than LRU here)
    ROUTE_CACHE_LIMIT = 1 << 20

    def route(self, key: NodeKey) -> tuple[Address, ...]:
        """All owner addresses for a key: primary plus ring successors."""
        if key.size <= self.subtree_bytes:
            # below the cut: every node of the region routes as the region
            key = NodeKey(key.blob_id, 0, key.offset // self.subtree_bytes, 0)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if len(self._route_cache) >= self.ROUTE_CACHE_LIMIT:
            self._route_cache.clear()
        ids = self.meta_ids
        start = _digest(key) % len(ids)
        if self.replication == 1:  # the paper's setting; skip the genexp
            routes: tuple[Address, ...] = (("meta", ids[start]),)
        else:
            routes = tuple(
                ("meta", ids[(start + i) % len(ids)])
                for i in range(self.replication)
            )
        self._route_cache[key] = routes
        return routes


def fetch_nodes(
    router: StaticRouter,
    keys: list[NodeKey],
    within: Interval | None = None,
    leaves_only: bool = False,
) -> Protocol[list[TreeNode]]:
    """Fetch tree nodes, falling back across replicas on failure — the one
    node-fetch step of every tree walker (READ, :func:`walk_tree`, diff).

    Returns every node received, in ``keys`` order. With ``within``, a key
    below the router's cut is fetched with ``meta.get_subtree``: its owner
    walks its own store and the reply carries, in level order, the node
    and every stored descendant whose interval intersects ``within`` — the
    walker's next levels, without their round trips. A walker that keeps
    only the leaves (a READ with no metadata cache) passes ``leaves_only``
    and such a key is ``meta.get_leaves`` instead: the same walk, whose
    reply carries only the leaves that meet ``within``, in ascending offset
    order. Above the cut (and for ``within=None``, a walker that prunes by
    something other than an interval) each key is one ``meta.get_node``.
    """
    walk = "meta.get_leaves" if leaves_only else "meta.get_subtree"

    def call_for(key: NodeKey, owner: Address, last: bool) -> Call:
        if within is not None and router.colocated(key):
            return Call(
                owner,
                walk,
                (key, within.offset, within.size),
                request_bytes=_GET_SUBTREE_REQ_BYTES,
                allow_error=not last,
            )
        return Call(
            owner,
            "meta.get_node",
            (key,),
            request_bytes=_GET_NODE_REQ_BYTES,
            allow_error=not last,
        )

    replies = yield from gather_with_failover(keys, router.route, call_for)
    nodes: list[TreeNode] = []
    for reply in replies:
        if reply.__class__ is list:
            nodes.extend(reply)
        else:
            nodes.append(reply)
    return nodes


def walk_tree(
    router: StaticRouter,
    roots: list[NodeKey],
    within: Interval | None,
    floor: int = 0,
) -> Protocol[dict[NodeKey, TreeNode]]:
    """Every stored node reachable from ``roots``, each fetched once — the
    level-order walk behind GC's mark and ``inspect``.

    One :func:`fetch_nodes` batch per level (with ``within``, a whole
    co-located subtree per key, which is complete below its key, so what it
    brought is not fetched again). Keys of size ``<= floor`` are not
    expanded, and a version-0 key — the implicit zero subtree — is never
    fetched: nothing is stored for it.
    """
    nodes: dict[NodeKey, TreeNode] = {}
    frontier = [key for key in roots if key.version]
    while frontier:
        for node in (yield from fetch_nodes(router, frontier, within)):
            nodes[node.key] = node
        next_frontier: dict[NodeKey, None] = {}  # ordered, deduplicated
        for key in frontier:
            node = nodes[key]
            if node.is_leaf or key.size <= floor:
                continue
            for child in node.child_keys():
                if child.version and child not in nodes:
                    next_frontier[child] = None
        frontier = list(next_frontier)
    return nodes


def store_nodes(router: StaticRouter, nodes: list[TreeNode]) -> Protocol[None]:
    """Store a WRITE's tree nodes on all their owners, in one parallel
    batch — the write-side twin of :func:`fetch_nodes`, and with it the
    only place that chooses between the per-node and the per-shard verb.

    Nodes below the router's cut share their region's owners, so each
    owner gets its shard as one ``meta.put_nodes`` (all-or-nothing on the
    provider; priced in the simulator as the nodes it carries); a node
    above the cut is one ``meta.put_node`` per owner, as in the paper. With
    ``subtree_bytes = 0`` nothing is co-located and the batch is exactly
    the paper's one put per node per replica.
    """
    calls: list[Call] = []
    shards: dict[Address, list[TreeNode]] = {}
    # region index -> the shards of its owners (each region routed once)
    regions: dict[int, list[list[TreeNode]]] = {}
    cut = router.subtree_bytes
    for node in nodes:
        key = node.key
        if key.size <= cut:
            region = regions.get(key.offset // cut)
            if region is None:
                region = regions[key.offset // cut] = [
                    shards.setdefault(owner, []) for owner in router.route(key)
                ]
            for shard in region:
                shard.append(node)
        else:
            calls.extend(
                Call(owner, "meta.put_node", (node,), request_bytes=_PUT_NODE_REQ_BYTES)
                for owner in router.route(key)
            )
    for owner, shard in shards.items():
        nbytes = len(shard) * _PUT_NODE_REQ_BYTES
        calls.append(Call(owner, "meta.put_nodes", (shard,), request_bytes=nbytes))
    yield Batch(calls)
