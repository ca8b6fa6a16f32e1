"""Metadata provider: the node store behind the DHT abstraction.

The paper stores tree nodes on BambooDHT; here a metadata provider is the
storage end of that abstraction (one per node in the paper's deployment),
and the :class:`~repro.metadata.router.StaticRouter` plays the DHT's
key-dispersal role. Nodes are write-once; duplicate puts of an *identical*
record are idempotent (replication retries), conflicting puts are protocol
bugs and rejected loudly.

RPC surface: the ``handle`` table at the end of :class:`MetadataProvider`.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ImmutabilityViolation, NodeMissing
from repro.metadata.node import NodeKey, TreeNode
from repro.net.sansio import rpc_handler


class MetadataProvider:
    """One metadata-provider process."""

    def __init__(self, provider_id: int) -> None:
        self.provider_id = provider_id
        self._nodes: dict[NodeKey, TreeNode] = {}
        self.puts = 0
        self.put_batches = 0
        self.gets = 0
        self.subtree_gets = 0
        self.nodes_served = 0

    def put_node(self, node: TreeNode) -> bool:
        """Store one node, write-once; returns ``True``."""
        existing = self._nodes.get(node.key)
        if existing is not None:
            if existing == node:
                return True  # idempotent replay
            raise ImmutabilityViolation(
                f"metadata provider {self.provider_id}: conflicting put for "
                f"{node.key}"
            )
        self._nodes[node.key] = node
        self.puts += 1
        return True

    def put_nodes(self, nodes: list[TreeNode]) -> bool:
        """Store a batch of nodes, all or nothing; returns ``True``.

        The per-shard form of :meth:`put_node` (a WRITE sends each owner
        its co-located nodes in one call; the provider knows nothing about
        routing and stores whatever batch it is given). Every element must
        be a :class:`TreeNode` whose key is absent or already holds an
        identical record (idempotent replay, not counted again in
        ``puts``); one conflicting element is
        :class:`ImmutabilityViolation`, one foreign element ``ValueError``,
        and in both cases nothing of the batch is stored.
        """
        if not isinstance(nodes, list):
            raise ValueError(f"put_nodes needs a list of nodes, got {nodes!r:.80}")
        store = self._nodes
        fresh: dict[NodeKey, TreeNode] = {}
        for node in nodes:
            if not isinstance(node, TreeNode):
                raise ValueError(f"put_nodes element is not a TreeNode: {node!r:.80}")
            existing = store.get(node.key)
            if existing is None:
                existing = fresh.setdefault(node.key, node)
            if existing is not node and existing != node:
                raise ImmutabilityViolation(
                    f"metadata provider {self.provider_id}: conflicting put "
                    f"for {node.key}"
                )
        store.update(fresh)
        self.puts += len(fresh)
        self.put_batches += 1
        return True

    def get_node(self, key: NodeKey) -> TreeNode:
        """The stored node at ``key``."""
        self.gets += 1
        try:
            node = self._nodes[key]
        except KeyError:
            raise NodeMissing(
                f"metadata provider {self.provider_id}: no node {key}"
            ) from None
        self.nodes_served += 1
        return node

    def get_subtree(self, key: NodeKey, offset: int, size: int) -> list[TreeNode]:
        """One-RPC tree descent over the local store.

        Walks from ``key`` through every non-zero child whose interval
        intersects ``[offset, offset + size)`` and returns the visited
        nodes in level order — what a client descending level by level
        would have fetched with one ``get_node`` each, and counted in
        ``gets`` / ``nodes_served`` (lookups / lookups that found their
        node) as such. The provider knows nothing about routing: a
        wanted child it does not hold is :class:`NodeMissing`, exactly as
        for ``get_node`` — clients only ask for subtrees their router
        co-locates here, so absence is a genuine loss (or a concurrent GC).
        """
        return self._walk(key, offset, size, True)

    def get_leaves(self, key: NodeKey, offset: int, size: int) -> list[TreeNode]:
        """:meth:`get_subtree`'s walk, replying with its leaves only.

        The same walk, booked the same way (one ``subtree_gets``, every
        visited node in ``gets`` / ``nodes_served``, an absent descendant
        :class:`NodeMissing`), but the reply keeps only the leaves that
        meet ``[offset, offset + size)``, in ascending offset order: all
        a reader with no metadata cache uses of the nodes it walks.
        """
        return self._walk(key, offset, size, False)

    def _walk(
        self, key: NodeKey, offset: int, size: int, inner: bool
    ) -> list[TreeNode]:
        """The walk both subtree verbs run; ``inner`` keeps the inner nodes
        in the reply (level order) besides the leaves."""
        if not isinstance(key, NodeKey) or offset < 0 or size < 0:
            raise ValueError(
                "a subtree walk needs a NodeKey and a non-negative interval, "
                f"got {key!r}, {offset!r}, {size!r}"
            )
        self.subtree_gets += 1
        nodes = self._nodes
        end = offset + size
        # one pass over a FIFO that grows behind the cursor: level order
        # (every leaf of a balanced tree sits on its last level, so the
        # leaves come out in ascending offset order)
        out: list[TreeNode] = []
        wanted = [key]
        served = 0
        try:
            for node_key in wanted:
                node = nodes[node_key]
                served += 1
                left = node.left_version
                if left is None:
                    out.append(node)
                    continue
                if inner:
                    out.append(node)
                blob_id, _, lo, span = node_key
                half = span >> 1
                mid = lo + half
                if left and lo < end and offset < mid:
                    wanted.append(tuple.__new__(NodeKey, (blob_id, left, lo, half)))
                right = node.right_version
                if right and mid < end and offset < mid + half:
                    wanted.append(tuple.__new__(NodeKey, (blob_id, right, mid, half)))
        except KeyError:
            raise NodeMissing(
                f"metadata provider {self.provider_id}: no node {node_key}"
            ) from None
        finally:
            # booked once: the lookups made (a failed one is the last of
            # them) and those that found their node
            self.gets += served + (served < len(wanted))
            self.nodes_served += served
        return out

    def has_node(self, key: NodeKey) -> bool:
        return key in self._nodes

    def iter_nodes(self, blob_id: str) -> Iterable[TreeNode]:
        """All stored nodes of a blob, without per-node key lookups.

        Local bulk access for setup/inspection helpers (cache warming, GC
        sweeps); it bypasses the ``gets`` counter.
        """
        return (
            node for key, node in self._nodes.items() if key.blob_id == blob_id
        )

    def dump_nodes(self, blob_id: str) -> list[TreeNode]:
        """:meth:`iter_nodes` as an RPC-shaped list, so out-of-process
        deployments expose the inspection surface the conformance suite
        compares."""
        return list(self.iter_nodes(blob_id))

    def free_nodes(self, keys: Iterable[NodeKey]) -> int:
        """Drop nodes (garbage collection); returns the number freed."""
        freed = 0
        for key in keys:
            if self._nodes.pop(key, None) is not None:
                freed += 1
        return freed

    def list_nodes(self, blob_id: str) -> list[NodeKey]:
        """Every key held for a blob (the GC sweep's input)."""
        return [k for k in self._nodes if k.blob_id == blob_id]

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def stats(self) -> dict[str, int]:
        """Storage counters."""
        return {
            "provider_id": self.provider_id,
            "nodes": len(self._nodes),
            "puts": self.puts,
            "put_batches": self.put_batches,
            "gets": self.gets,
            "subtree_gets": self.subtree_gets,
            "nodes_served": self.nodes_served,
        }

    handle = rpc_handler(
        "metadata provider",
        {
            "meta.put_node": put_node,
            "meta.put_nodes": put_nodes,
            "meta.get_node": get_node,
            "meta.get_subtree": get_subtree,
            "meta.get_leaves": get_leaves,
            "meta.free_nodes": free_nodes,
            "meta.list_nodes": list_nodes,
            "meta.dump_nodes": dump_nodes,
            "meta.stats": stats,
        },
    )


def blob_nodes(
    providers: Iterable[MetadataProvider], blob_id: str
) -> list[TreeNode]:
    """Every stored node of a blob across a set of metadata providers.

    The one definition of "the blob's metadata tree, as stored" shared by
    all three deployments' ``blob_nodes`` methods — the cross-driver
    conformance suite compares its output across deployments, so the
    iteration semantics must not be allowed to drift per deployment.
    """
    return [
        node for provider in providers for node in provider.iter_nodes(blob_id)
    ]
