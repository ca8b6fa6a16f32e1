"""Canonical interval algebra for the segment tree.

A *canonical interval* is one a segment-tree node may cover: its size is a
power of two (at least one page) and its offset is a multiple of its size.
The tree root covers ``(0, total_size)``; a node covering ``(o, s)`` has
children covering ``(o, s/2)`` and ``(o + s/2, s/2)``. Two canonical
intervals are therefore either disjoint or nested — the property every
traversal and weaving argument in the paper rests on.

``Interval`` itself is a plain half-open byte range ``[offset, offset+size)``
used for both canonical node extents and arbitrary client requests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.bits import align_down, align_up, is_pow2


@dataclass(frozen=True, slots=True)
class Interval:
    """Half-open byte range ``[offset, offset + size)``."""

    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")
        if self.size < 0:
            raise ValueError(f"size must be >= 0, got {self.size}")

    @property
    def end(self) -> int:
        return self.offset + self.size

    def is_empty(self) -> bool:
        return self.size == 0

    def contains(self, other: "Interval") -> bool:
        """True iff ``other`` lies fully inside this interval."""
        return (
            self.offset <= other.offset
            and other.offset + other.size <= self.offset + self.size
        )

    def contains_point(self, x: int) -> bool:
        return self.offset <= x < self.offset + self.size

    def intersects(self, other: "Interval") -> bool:
        """True iff the two ranges share at least one byte.

        Empty intervals share no bytes with anything (including ranges
        containing their anchor offset). Bounds are computed inline rather
        than via the ``end`` property: this predicate runs for every child
        interval of every tree traversal.
        """
        if self.size == 0 or other.size == 0:
            return False
        return (
            self.offset < other.offset + other.size
            and other.offset < self.offset + self.size
        )

    def intersection(self, other: "Interval") -> "Interval":
        """The overlapping range (may be empty, anchored at max offset)."""
        lo = max(self.offset, other.offset)
        hi = min(self.offset + self.size, other.offset + other.size)
        return Interval(lo, max(0, hi - lo))

    def left_half(self) -> "Interval":
        if self.size < 2:
            raise ValueError(f"cannot split interval of size {self.size}")
        return Interval(self.offset, self.size // 2)

    def right_half(self) -> "Interval":
        if self.size < 2:
            raise ValueError(f"cannot split interval of size {self.size}")
        return Interval(self.offset + self.size // 2, self.size // 2)

    def is_canonical(self, pagesize: int) -> bool:
        """True iff a segment-tree node may cover this interval."""
        return (
            is_pow2(self.size)
            and self.size >= pagesize
            and self.offset % self.size == 0
        )

    def __str__(self) -> str:  # compact, used in logs and test messages
        return f"[{self.offset},+{self.size})"


def page_span(offset: int, size: int, pagesize: int) -> tuple[int, int]:
    """Return ``(first_page, last_page_exclusive)`` touched by a byte range.

    This is the page-alignment step of every READ and WRITE: the protocol
    operates on whole pages, so a request is widened to page boundaries.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    first = align_down(offset, pagesize) // pagesize
    last = align_up(offset + size, pagesize) // pagesize
    return first, last


def canonical_cover(iv: Interval, pagesize: int) -> list[Interval]:
    """Decompose a page-aligned range into maximal canonical intervals.

    The result is the unique minimal list of canonical intervals whose
    disjoint union equals ``iv``; it has at most ``2 * log2(size/pagesize)``
    elements. Nothing in the library calls it: it is the tests' independent
    oracle for tree traversals.
    """
    if iv.offset % pagesize or iv.size % pagesize:
        raise ValueError(f"range {iv} is not aligned to pagesize {pagesize}")
    out: list[Interval] = []
    offset, end = iv.offset, iv.end
    while offset < end:
        # Largest power-of-two block aligned at `offset` that still fits.
        max_by_align = offset & -offset if offset else end - offset
        block = min(max_by_align if offset else end, end - offset)
        size = pagesize
        while size * 2 <= block and offset % (size * 2) == 0:
            size *= 2
        out.append(Interval(offset, size))
        offset += size
    return out
