"""Snapshot differencing: which byte ranges changed between two versions?

A direct payoff of version-labeled child references (paper §III.C): two
snapshots' trees share every subtree that no intervening patch touched, and
the child reference *is* the version label — so comparing references
prunes identical subtrees without fetching them. The walk costs
O(changed metadata), not O(blob size).

Semantics: a range is reported iff some patch in ``(v_old, v_new]``
intersects it — i.e. the resolved writer version of the range differs
between the snapshots. (A write of identical bytes still reports: this is
structural diff, the one applications want for incremental reprocessing.)

The walk is not :func:`~repro.metadata.router.walk_tree`, which fetches
everything reachable from its roots: it walks ``(old key, new key)`` pairs
level by level and expands only the pairs whose labels differ.
``diff_protocol`` is sans-io like every other protocol; ``changed_ranges``
is the blocking client helper.
"""

from __future__ import annotations

from repro.errors import VersionNotPublished
from repro.metadata.cache import MetadataCache
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.router import StaticRouter, fetch_nodes
from repro.metadata.tree import TreeGeometry
from repro.net.sansio import Batch, Call, Protocol
from repro.util.intervals import Interval
from repro.version.manager import LATEST

def diff_protocol(
    blob_id: str,
    geom: TreeGeometry,
    v_old: int,
    v_new: int,
    router: StaticRouter,
    cache: MetadataCache | None = None,
) -> Protocol[list[Interval]]:
    """Sans-io diff; returns a merged list of changed :class:`Interval`.

    Both versions must be published (either may be ``LATEST``); the vm's
    one ``vm.resolve_read`` reply checks ``v_new`` and names the latest
    version ``v_old`` is checked against. The result is symmetric, so
    ``v_old`` may exceed ``v_new``.
    """
    (resolved,) = yield Batch([Call("vm", "vm.resolve_read", (blob_id, v_new))])
    v_new, latest = resolved
    if v_old == LATEST:
        v_old = latest
    if not 0 <= v_old <= latest:
        raise VersionNotPublished(blob_id, v_old, latest)
    if v_old == v_new:
        return []

    changed: list[Interval] = []
    # (old key, new key) pairs over one interval, whose labels differ; a
    # version-0 key is the implicit zero tree, whose children are zeros too
    frontier = [(NodeKey(blob_id, v_old, 0, geom.total_size),
                 NodeKey(blob_id, v_new, 0, geom.total_size))]
    pagesize = geom.pagesize
    while frontier:
        if frontier[0][0].size == pagesize:  # one level at a time: leaves
            changed.extend(old.interval for old, _ in frontier)
            break
        # both sides' nodes (no key repeats: one pair per interval), from
        # the cache or node by node — no ``within``: the walk prunes by
        # comparing child labels, which a provider's interval descent cannot
        fetched: dict[NodeKey, TreeNode] = {}
        to_fetch: list[NodeKey] = []
        for key in (key for pair in frontier for key in pair if key.version):
            node = cache.get(key) if cache is not None else None
            if node is None:
                to_fetch.append(key)
            else:
                fetched[key] = node
        for node in (yield from fetch_nodes(router, to_fetch)):
            fetched[node.key] = node
            if cache is not None:
                cache.put(node)
        frontier = [
            (a, b)
            for old, new in frontier
            for a, b in zip(_children(fetched, old), _children(fetched, new))
            if a.version != b.version
        ]

    return merge_intervals(changed)


def _children(fetched: dict[NodeKey, TreeNode], key: NodeKey):
    """Both child keys of ``key``; those of the zero tree are zeros too."""
    node = fetched[key] if key.version else TreeNode(key, 0, 0)
    return node.child_keys()


def merge_intervals(parts: list[Interval]) -> list[Interval]:
    """Coalesce adjacent/overlapping intervals into maximal runs."""
    if not parts:
        return []
    parts = sorted(parts, key=lambda iv: iv.offset)
    out = [parts[0]]
    for iv in parts[1:]:
        last = out[-1]
        if iv.offset <= last.end:
            if iv.end > last.end:
                out[-1] = Interval(last.offset, iv.end - last.offset)
        else:
            out.append(iv)
    return out


def changed_ranges(
    client,
    blob_id: str,
    v_old: int,
    v_new: int,
) -> list[Interval]:
    """Blocking helper on a :class:`~repro.core.client.BlobClient`."""
    geom = client.open(blob_id)
    return client.driver.run(
        diff_protocol(
            blob_id, geom, v_old, v_new, client.router, cache=client.cache
        )
    )
