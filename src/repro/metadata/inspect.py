"""Metadata introspection: tree dumps and structural-sharing statistics.

Operator tooling for the release: render a snapshot's segment tree as
ASCII (with weaving links made visible — a child whose version differs
from its parent's is a shared subtree), and quantify how much metadata
successive snapshots share (the space-efficiency claim of paper §III.C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.router import StaticRouter, fetch_nodes
from repro.metadata.tree import TreeGeometry
from repro.net.sansio import Op
from repro.util.sizes import human_size

Proto = Generator[Op, Any, Any]


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


def walk_tree_protocol(
    blob_id: str,
    geom: TreeGeometry,
    version: int,
    router: StaticRouter,
    max_depth: int | None = None,
) -> Proto:
    """Fetch every reachable node of a snapshot (level order).

    Returns ``list[tuple[depth, TreeNode | None]]`` where ``None`` marks an
    implicit zero subtree. ``max_depth`` bounds the descent for huge blobs
    (a bounded walk fetches level by level; an unbounded one takes whole
    co-located subtrees in one ``meta.get_subtree`` reply each).
    """
    out: list[tuple[int, TreeNode | None, NodeKey | None]] = []
    if version == 0:
        return out
    frontier = [NodeKey(blob_id, version, 0, geom.total_size)]
    depth = 0
    limit = geom.depth if max_depth is None else min(max_depth, geom.depth)
    within = geom.root if max_depth is None else None
    known: dict[NodeKey, TreeNode] = {}
    while frontier and depth <= limit:
        missing = [k for k in frontier if k not in known]
        for node in (yield from fetch_nodes(router, missing, within=within)):
            known[node.key] = node
        next_frontier: list[NodeKey] = []
        for key in frontier:
            node = known[key]
            out.append((depth, node, key))
            if node.is_leaf or depth == limit:
                continue
            for child in node.child_keys():
                if child.version == 0:
                    out.append((depth + 1, None, child))
                else:
                    next_frontier.append(child)
        frontier = next_frontier
        depth += 1
    return out


class TreeInspector:
    """Blocking introspection facade over a client's driver."""

    def __init__(self, client) -> None:
        self.client = client

    def _walk(self, blob_id: str, version: int, max_depth: int | None):
        geom = self.client.open(blob_id)
        return self.client.driver.run(
            walk_tree_protocol(blob_id, geom, version, self.client.router, max_depth)
        )

    def dump(
        self, blob_id: str, version: int, max_depth: int | None = None
    ) -> str:
        """ASCII rendering of a snapshot's tree.

        Shared subtrees (woven links into earlier versions) are annotated
        with the version they come from; zero subtrees render as ``(zeros)``.
        """
        entries = self._walk(blob_id, version, max_depth)
        if not entries:
            return f"{blob_id} v0: implicit all-zero string"
        lines = [f"{blob_id} v{version} segment tree:"]
        for depth, node, key in sorted(
            entries, key=lambda e: (e[2].offset, -e[2].size)
        ):
            assert key is not None
            indent = "  " * depth
            span = f"[{key.offset}, +{human_size(key.size)})"
            if node is None:
                lines.append(f"{indent}{span} (zeros)")
            elif node.is_leaf:
                shared = "" if key.version == version else f"  <- v{key.version}"
                lines.append(
                    f"{indent}{span} page@providers{node.providers} "
                    f"uid={node.write_uid}{shared}"
                )
            else:
                shared = "" if key.version == version else f"  <- v{key.version}"
                lines.append(
                    f"{indent}{span} children v{node.left_version}/"
                    f"v{node.right_version}{shared}"
                )
        return "\n".join(lines)

    def sharing_stats(self, blob_id: str, version: int) -> SharingStats:
        entries = self._walk(blob_id, version, None)
        real = [(d, n, k) for d, n, k in entries if n is not None]
        own = sum(1 for _, _, k in real if k.version == version)
        return SharingStats(
            blob_id=blob_id,
            version=version,
            total_nodes=len(real),
            own_nodes=own,
            shared_nodes=len(real) - own,
        )

    def reachable_nodes(self, blob_id: str, version: int) -> int:
        return self.sharing_stats(blob_id, version).total_nodes
