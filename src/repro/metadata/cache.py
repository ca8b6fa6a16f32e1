"""Client-side metadata cache.

Tree nodes are immutable and version-addressed, so a cache entry can never
go stale — the cache needs no invalidation protocol, only an eviction
policy. This is a direct payoff of the versioning design and the mechanism
behind the "Read (cached metadata)" series of Figure 3(c): once a client has
walked a subtree, re-reads within the same (or any sharing) version skip the
metadata providers entirely. A cache also learns from its own client's
completed WRITEs: the nodes a WRITE wove are exactly the ones the metadata
providers now store (:meth:`MetadataCache.put_many`), so a read-your-write
fetches no node. A GC ordered by the client drops the keys it frees
(:meth:`MetadataCache.discard`), so the cache holds only live trees. The
paper's prototype accommodates 2**20 nodes; we default to the same capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.metadata.node import NodeKey, TreeNode

DEFAULT_CAPACITY = 1 << 20


class MetadataCache:
    """LRU cache of tree nodes keyed by :class:`NodeKey`.

    Not thread-safe by itself: a client's cache is private to it, and
    ``ReadResult.cache_hits`` counts its hits per READ.
    """

    __slots__ = ("_capacity", "_nodes")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._nodes: OrderedDict[NodeKey, TreeNode] = OrderedDict()

    def get(self, key: NodeKey) -> TreeNode | None:
        """The cached node (refreshing its recency), or ``None``."""
        node = self._nodes.get(key)
        if node is not None:
            self._nodes.move_to_end(key)
        return node

    def put(self, node: TreeNode) -> None:
        """Insert or refresh a node, evicting the least recently used one
        if full."""
        nodes = self._nodes
        key = node.key
        if key in nodes:
            nodes.move_to_end(key)
        elif len(nodes) >= self._capacity:
            nodes.popitem(last=False)
        nodes[key] = node

    def put_many(self, new: Iterable[TreeNode]) -> None:
        """Insert a WRITE's freshly built nodes in one bulk update, then
        evict the least recently used ones if over capacity. Keys already
        cached keep their recency (a WRITE's keys are new versions)."""
        nodes = self._nodes
        nodes.update((node.key, node) for node in new)
        while len(nodes) > self._capacity:
            nodes.popitem(last=False)

    def discard(self, keys: Iterable[NodeKey]) -> None:
        """Drop ``keys`` (those not cached are ignored): what a GC freed."""
        pop = self._nodes.pop
        for key in keys:
            pop(key, None)

    def preload_from(self, other: "MetadataCache") -> None:
        """Bulk-adopt another cache's nodes: one C-level dict update — a
        warmed template stamped onto many fresh clients. Into an empty
        cache this keeps the source's recency order; overflow evicts the
        least recent first."""
        nodes = self._nodes
        nodes.update(other._nodes)
        while len(nodes) > self._capacity:
            nodes.popitem(last=False)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, key: NodeKey) -> bool:
        return key in self._nodes

    def clear(self) -> None:
        self._nodes.clear()
