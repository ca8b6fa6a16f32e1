"""Immutable segment-tree node records.

A node is identified by ``(blob_id, version, offset, size)`` — the version
component is what makes snapshots immutable and caching trivially coherent.
Internal nodes store, for each child interval, the *version whose tree
contains that child* (the weaving links of paper Figure 2(b)); leaves store
where the page lives: the providers holding it and the ``write_uid`` needed
to reconstruct the page key.

A child version of ``0`` denotes the initial all-zero string: readers
zero-fill that subrange without fetching anything (the system "allocates on
write", paper §V.C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.net.message import NODE_WIRE_BYTES, estimate_size
from repro.util.intervals import Interval


class NodeKey(NamedTuple):
    """Globally unique tree-node address (hashes onto the DHT)."""

    blob_id: str
    version: int
    offset: int
    size: int

    @property
    def interval(self) -> Interval:
        return Interval(self.offset, self.size)


@dataclass(frozen=True, slots=True)
class TreeNode:
    """One tree node; either internal (child links) or leaf (page ref)."""

    key: NodeKey
    # internal nodes: version of the tree containing each child (0 = zeros)
    left_version: int | None = None
    right_version: int | None = None
    # leaves: where the page lives
    providers: tuple[int, ...] = ()
    write_uid: str | None = None

    def __post_init__(self) -> None:
        if self.left_version is None and self.right_version is None:  # a leaf
            if not self.providers or self.write_uid is None:
                raise ValueError(f"leaf {self.key} must carry a page reference")
        else:
            if self.left_version is None or self.right_version is None:
                raise ValueError(f"internal node {self.key} must link both children")
            if self.providers or self.write_uid is not None:
                raise ValueError(f"internal node {self.key} cannot carry a page ref")

    @property
    def is_leaf(self) -> bool:
        return self.left_version is None and self.right_version is None

    @property
    def interval(self) -> Interval:
        return self.key.interval

    def child_keys(self) -> tuple[NodeKey, NodeKey]:
        """Keys of both children (only meaningful for internal nodes).

        Integer arithmetic on the key, no :class:`Interval`: every tree
        walker (READ, ``get_subtree``, GC mark) calls this once per
        visited node."""
        if self.left_version is None:
            raise ValueError(f"leaf {self.key} has no children")
        blob_id, _, offset, size = self.key
        half = size >> 1
        return (
            NodeKey(blob_id, self.left_version, offset, half),
            NodeKey(blob_id, self.right_version, offset + half, half),
        )

    def __reduce__(self):
        # Flat, through a module-level restore: the key's four fields ride
        # inline (no nested NodeKey pickled through ``__getnewargs__``), and
        # the restore still runs ``__post_init__``, so a decoded node has
        # been validated like a constructed one.
        blob_id, version, offset, size = self.key
        return (_restore_node, (blob_id, version, offset, size,
                                self.left_version, self.right_version,
                                self.providers, self.write_uid))


#: the slots' own setters: no per-field attribute-name lookup on a frozen class
_set_key, _set_left, _set_right, _set_providers, _set_write_uid = (
    TreeNode.__dict__[name].__set__
    for name in ("key", "left_version", "right_version", "providers", "write_uid")
)


def _restore_node(blob_id, version, offset, size, left_version,
                  right_version, providers, write_uid) -> TreeNode:
    """The one flat, still validating (``__post_init__``) constructor of a
    :class:`TreeNode`: the wire decodes and ``plan_write_tree`` mints by it."""
    node = object.__new__(TreeNode)
    _set_key(node, tuple.__new__(NodeKey, (blob_id, version, offset, size)))
    _set_left(node, left_version)
    _set_right(node, right_version)
    _set_providers(node, providers)
    _set_write_uid(node, write_uid)
    node.__post_init__()
    return node


@estimate_size.register
def _(obj: TreeNode) -> int:
    return NODE_WIRE_BYTES


@estimate_size.register
def _(obj: NodeKey) -> int:
    return 40
