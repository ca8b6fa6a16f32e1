"""Adapter: serve the blob system's metadata RPCs from the Chord ring.

Lets a deployment swap the fixed metadata-provider set for the dynamic DHT
without touching any protocol code: register one
:class:`DhtMetadataService` actor and route all ``meta.*`` traffic to it.
Tree nodes keep their write-once discipline (duplicate identical puts are
idempotent; conflicting puts are rejected), so versioned snapshots remain
immutable regardless of ring churn.
"""

from __future__ import annotations

from typing import Any

from repro.dht.ring import ChordRing
from repro.errors import ImmutabilityViolation, NodeMissing
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.router import StaticRouter
from repro.net.sansio import Address


class DhtMetadataService:
    """Actor bridging ``meta.*`` RPCs onto a :class:`ChordRing`."""

    def __init__(self, ring: ChordRing) -> None:
        self.ring = ring
        self.puts = 0
        self.gets = 0

    def put_node(self, node: TreeNode) -> bool:
        try:
            existing = self.ring.get(node.key)
        except NodeMissing:
            existing = None
        if existing is not None:
            if existing == node:
                return True
            raise ImmutabilityViolation(f"conflicting put for {node.key}")
        self.ring.put(node.key, node)
        self.puts += 1
        return True

    def get_node(self, key: NodeKey) -> TreeNode:
        self.gets += 1
        return self.ring.get(key)

    def free_nodes(self, keys: list[NodeKey]) -> int:
        freed = 0
        for key in keys:
            if self.ring.delete(key):
                freed += 1
        return freed

    def list_nodes(self, blob_id: str) -> list[NodeKey]:
        return [k for k in self.ring.keys() if k.blob_id == blob_id]

    def handle(self, method: str, args: tuple) -> Any:
        if method == "meta.put_node":
            return self.put_node(*args)
        if method == "meta.get_node":
            return self.get_node(*args)
        if method == "meta.free_nodes":
            return self.free_nodes(*args)
        if method == "meta.list_nodes":
            return self.list_nodes(*args)
        raise ValueError(f"dht metadata service: unknown method {method!r}")


class SingleServiceRouter(StaticRouter):
    """Router sending every metadata key to one service address.

    Used with :class:`DhtMetadataService`: the ring handles dispersal and
    replication internally, so the blob protocols see a single logical
    endpoint. ``replication`` reports the *ring's* factor (pass the
    ring's, or build via :meth:`for_ring`) so callers that size fail-over
    attempts off ``router.replication`` see the truth; the capacity check
    against the one visible address is relaxed via the
    :class:`StaticRouter` extension point, not by skipping base-class
    initialization.
    """

    def __init__(
        self, address: Address = ("meta", 0), replication: int = 1
    ) -> None:
        self._address = address
        # the ring disperses per key: nothing is co-located (meta.get_node)
        super().__init__((address[1],), replication=replication, subtree_bytes=0)

    @classmethod
    def for_ring(cls, ring: ChordRing, address: Address = ("meta", 0)) -> "SingleServiceRouter":
        """Router advertising the ring's actual replication factor."""
        return cls(address, replication=ring.replication)

    def _check_capacity(self, meta_ids, replication) -> None:
        # One visible endpoint fronts the whole ring: the ring validated
        # its own replication factor against live membership already.
        return

    def primary(self, key: NodeKey) -> Address:
        return self._address

    def route(self, key: NodeKey) -> tuple[Address, ...]:
        return (self._address,)
