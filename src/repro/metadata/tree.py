"""Segment-tree geometry.

The tree is *implicit*: its shape is fully determined by the blob's total
size and pagesize (both powers of two), so geometry questions — which
intervals exist, who covers what, which leaves a request touches — are pure
arithmetic and never require fetching anything. All traversals in the
system are built on this class.

Depth convention: the root is at depth 0 and covers the whole blob; leaves
are at depth ``log2(total_size / pagesize)`` and cover single pages.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigError, OutOfBounds
from repro.util.bits import is_pow2, log2_exact
from repro.util.intervals import Interval


@dataclass(frozen=True)
class TreeGeometry:
    """Shape of the segment tree for one blob."""

    total_size: int
    pagesize: int

    def __post_init__(self) -> None:
        if not is_pow2(self.total_size):
            raise ConfigError(f"total_size must be a power of two, got {self.total_size}")
        if not is_pow2(self.pagesize):
            raise ConfigError(f"pagesize must be a power of two, got {self.pagesize}")
        if self.pagesize > self.total_size:
            raise ConfigError(
                f"pagesize {self.pagesize} exceeds total_size {self.total_size}"
            )

    @property
    def depth(self) -> int:
        """Number of edge levels from root to leaf."""
        return log2_exact(self.total_size) - log2_exact(self.pagesize)

    @property
    def page_count(self) -> int:
        return self.total_size // self.pagesize

    @property
    def root(self) -> Interval:
        return Interval(0, self.total_size)

    # -- validation ------------------------------------------------------

    def check_bounds(self, offset: int, size: int) -> Interval:
        """Validate a byte range against the blob extent; return it as
        plain ints (a non-integer offset or size is a ``TypeError``)."""
        offset, size = operator.index(offset), operator.index(size)
        if size <= 0:
            raise OutOfBounds(f"size must be positive, got {size}")
        if offset < 0 or offset + size > self.total_size:
            raise OutOfBounds(
                f"range [{offset}, {offset + size}) outside blob of size "
                f"{self.total_size}"
            )
        return Interval(offset, size)

    def check_aligned(self, offset: int, size: int) -> Interval:
        """Validate a page-aligned byte range (the WRITE contract)."""
        iv = self.check_bounds(offset, size)
        if iv.offset % self.pagesize or iv.size % self.pagesize:
            raise OutOfBounds(
                f"range [{offset}, {offset + size}) not aligned to pagesize "
                f"{self.pagesize}; use write_unaligned() for read-modify-write"
            )
        return iv

    # -- node relations -----------------------------------------------------

    def is_leaf(self, iv: Interval) -> bool:
        return iv.size == self.pagesize

    def children(self, iv: Interval) -> tuple[Interval, Interval]:
        if self.is_leaf(iv):
            raise ValueError(f"leaf {iv} has no children")
        return iv.left_half(), iv.right_half()

    def parent(self, iv: Interval) -> Interval:
        if iv.size >= self.total_size:
            raise ValueError("root has no parent")
        size = iv.size * 2
        return Interval((iv.offset // size) * size, size)

    def page_index(self, iv: Interval) -> int:
        if not self.is_leaf(iv):
            raise ValueError(f"{iv} is not a leaf interval")
        return iv.offset // self.pagesize

    def leaf_interval(self, page_index: int) -> Interval:
        if not 0 <= page_index < self.page_count:
            raise OutOfBounds(f"page index {page_index} out of range")
        return Interval(page_index * self.pagesize, self.pagesize)

    # -- request decomposition -------------------------------------------

    def leaves_for(self, iv: Interval) -> Iterator[Interval]:
        """Leaf intervals (whole pages) intersecting a byte range."""
        self.check_bounds(iv.offset, iv.size)
        first = iv.offset // self.pagesize
        last = (iv.end - 1) // self.pagesize
        for index in range(first, last + 1):
            yield Interval(index * self.pagesize, self.pagesize)

    def level_intervals(self, depth: int, iv: Interval) -> Iterator[Interval]:
        """Canonical intervals at ``depth`` intersecting a byte range."""
        if not 0 <= depth <= self.depth:
            raise ValueError(f"depth {depth} out of range 0..{self.depth}")
        size = self.total_size >> depth
        first = iv.offset // size
        last = (iv.end - 1) // size
        for index in range(first, last + 1):
            yield Interval(index * size, size)

    def visit_intervals(self, iv: Interval) -> Iterator[Interval]:
        """All tree intervals a READ of ``iv`` must visit, root first.

        These are exactly the canonical intervals intersecting the range —
        equivalently, the union of the root-to-leaf paths of its pages.
        """
        for depth in range(self.depth + 1):
            yield from self.level_intervals(depth, iv)

    def depth_of(self, iv: Interval) -> int:
        return log2_exact(self.total_size) - log2_exact(iv.size)

    def count_visit_nodes(self, iv: Interval) -> int:
        """Closed form |visit_intervals(iv)|. Nothing in the library calls
        it: it is the tests' oracle for the nodes a WRITE visits."""
        total = 0
        for depth in range(self.depth + 1):
            size = self.total_size >> depth
            first = iv.offset // size
            last = (iv.end - 1) // size
            total += last - first + 1
        return total
