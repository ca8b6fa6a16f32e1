"""Metadata introspection: tree dumps and structural-sharing statistics.

Operator tooling for the release: render a snapshot's segment tree as
ASCII (with weaving links made visible — a child whose version differs
from its parent's is a shared subtree), and quantify how much metadata
successive snapshots share (the space-efficiency claim of paper §III.C).
Both read one :func:`~repro.metadata.router.walk_tree` of the snapshot;
``LATEST`` costs one ``client.latest`` call first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.router import walk_tree
from repro.util.sizes import human_size
from repro.version.manager import LATEST


@dataclass(frozen=True)
class SharingStats:
    """Metadata economy of one snapshot relative to its predecessors."""

    blob_id: str
    version: int
    total_nodes: int  # nodes reachable from this snapshot's root
    own_nodes: int  # nodes labeled with this exact version
    shared_nodes: int  # nodes inherited from earlier versions

    @property
    def sharing_ratio(self) -> float:
        """Fraction of the snapshot's tree reused from earlier versions."""
        return self.shared_nodes / self.total_nodes if self.total_nodes else 0.0


class TreeInspector:
    """Blocking introspection facade over a client's driver."""

    def __init__(self, client) -> None:
        self.client = client

    def _walk(self, blob_id: str, version: int, max_depth: int | None):
        """``(version, entries)`` with ``LATEST`` resolved: a ``(depth,
        node, key)`` entry per reachable node down to ``max_depth``, and a
        ``(depth, None, key)`` one per implicit zero subtree. A bounded
        walk fetches level by level; an unbounded one takes whole
        co-located subtrees in one ``meta.get_subtree`` reply each."""
        client = self.client
        geom = client.open(blob_id)
        if version == LATEST:
            version = client.latest(blob_id)
        if max_depth is None:
            floor, within = 0, geom.root
        else:
            floor, within = geom.total_size >> max_depth, None
        root = NodeKey(blob_id, version, 0, geom.total_size)
        nodes = client.driver.run(walk_tree(client.router, [root], within, floor))
        entries: list[tuple[int, TreeNode | None, NodeKey]] = []
        for key, node in nodes.items():
            depth = geom.depth_of(key.interval)
            entries.append((depth, node, key))
            if not node.is_leaf and key.size > floor:
                entries.extend((depth + 1, None, child)
                               for child in node.child_keys() if not child.version)
        return version, entries

    def dump(
        self, blob_id: str, version: int, max_depth: int | None = None
    ) -> str:
        """ASCII rendering of a snapshot's tree.

        Shared subtrees (woven links into earlier versions) are annotated
        with the version they come from; zero subtrees render as ``(zeros)``.
        """
        version, entries = self._walk(blob_id, version, max_depth)
        if not entries:
            return f"{blob_id} v0: implicit all-zero string"
        lines = [f"{blob_id} v{version} segment tree:"]
        for depth, node, key in sorted(
            entries, key=lambda e: (e[2].offset, -e[2].size)
        ):
            indent = "  " * depth
            span = f"[{key.offset}, +{human_size(key.size)})"
            shared = "" if key.version == version else f"  <- v{key.version}"
            if node is None:
                lines.append(f"{indent}{span} (zeros)")
            elif node.is_leaf:
                lines.append(
                    f"{indent}{span} page@providers{node.providers} "
                    f"uid={node.write_uid}{shared}"
                )
            else:
                lines.append(
                    f"{indent}{span} children v{node.left_version}/"
                    f"v{node.right_version}{shared}"
                )
        return "\n".join(lines)

    def sharing_stats(self, blob_id: str, version: int) -> SharingStats:
        version, entries = self._walk(blob_id, version, None)
        real = [k for _, n, k in entries if n is not None]
        own = sum(1 for k in real if k.version == version)
        return SharingStats(
            blob_id=blob_id,
            version=version,
            total_nodes=len(real),
            own_nodes=own,
            shared_nodes=len(real) - own,
        )

    def reachable_nodes(self, blob_id: str, version: int) -> int:
        return self.sharing_stats(blob_id, version).total_nodes
