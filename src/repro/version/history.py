"""Patch history: the version manager's view of who wrote what.

For border-reference precomputation the version manager must answer, for
any canonical interval ``I`` and version ``v``: *which is the most recent
version ≤ v whose patch intersects ``I``?* — because that version's tree
contains the node describing ``I``'s state at snapshot ``v`` (no later
patch touched it, so the state is unchanged since then).

The answer is maintained as a sparse "latest-writer" map over canonical
intervals: recording version ``v`` with patch ``P`` stamps ``v`` onto every
canonical interval intersecting ``P`` — exactly the node set of ``v``'s
metadata subtree, so the bookkeeping cost matches the write's own metadata
cost (a constant factor on the assign path, the "slight computation
overhead on the side of the versioning manager" the paper mentions).

Because versions are assigned in increasing order, stamping is a plain
overwrite and the map always holds the maximum — over *assigned* versions;
:meth:`PatchHistory.label_at` turns that into the exact-or-absent answer to
a reader's *which version's tree holds the node covering* ``I`` *at* ``v``.

The vm is the system's one serialization point, so the history does plain
arithmetic on the implicit tree: its maps are keyed by ``(offset, size)``
int pairs, which :func:`_stamps` and :func:`_borders` compute per level.
"""

from __future__ import annotations

from repro.metadata.tree import TreeGeometry
from repro.util.intervals import Interval

#: a canonical interval as the history keys it: ``(offset, size)``
Key = tuple[int, int]


def _stamps(total_size: int, pagesize: int, offset: int, size: int) -> list[Key]:
    """Every canonical interval a patch intersects, root first — what
    :meth:`TreeGeometry.visit_intervals` yields, as ``(offset, size)``."""
    end = offset + size
    out: list[Key] = []
    span = total_size
    while span >= pagesize:
        out += [(start, span) for start in range(offset - offset % span, end, span)]
        span >>= 1
    return out


def _borders(total_size: int, pagesize: int, offset: int, size: int) -> list[Key]:
    """The children of a patch's write subtree that lie outside the patch
    (:func:`repro.metadata.build.border_intervals`), in ascending order.

    Per level, only the first node's left child and the last node's right
    child can miss the patch. Left borders grow towards the patch as the
    levels get finer and right borders shrink towards it, so the lefts in
    level order followed by the rights in reverse are already sorted.
    """
    end = offset + size
    lefts: list[Key] = []
    rights: list[Key] = []
    span = total_size
    while span > pagesize:
        half = span >> 1
        first = offset - offset % span
        if first + half <= offset:
            lefts.append((first, half))
        last = end - 1 - (end - 1) % span
        if last + half >= end:
            rights.append((last + half, half))
        span = half
    rights.reverse()
    return lefts + rights


class PatchHistory:
    """Sparse latest-writer index over canonical intervals of one blob."""

    def __init__(self, geom: TreeGeometry) -> None:
        self.geom = geom
        self._latest: dict[Key, int] = {}
        #: ``(version, offset, size)`` per recorded write, in version order
        self.patches: list[tuple[int, int, int]] = []
        #: per unpublished version, ``(key, previous label)`` per stamp
        self._undo: dict[int, list[tuple[Key, int]]] = {}

    def __len__(self) -> int:
        return len(self._latest)

    def latest(self, iv: Interval) -> int:
        """Most recent version whose patch intersects ``iv`` (0 = never)."""
        return self._latest.get((iv.offset, iv.size), 0)

    def label_at(self, iv: Interval, snapshot: int) -> int | None:
        """Version label of the tree node covering canonical ``iv`` in
        snapshot ``snapshot``: ``max{w <= snapshot : patch(w) ∩ iv ≠ ∅}``
        (0 = never written: zeros), or ``None`` when the history cannot say.

        Exact or absent, never a guess. The map holds the maximum over
        assigned versions; every assignment newer than ``snapshot`` that
        has not published yet still has its undo record — ``(interval,
        previous)`` per stamp — so the walk back through them ends on the
        true label. It cannot continue past a *published* overwrite (its
        undo is gone): only a reader of a snapshot older than that publish
        is declined, never one at the latest published version.
        """
        key = (iv.offset, iv.size)
        version = self._latest.get(key, 0)
        while version > snapshot:
            undo = self._undo.get(version)
            if undo is None:
                return None
            version = next(prev for stamped, prev in undo if stamped == key)
        return version

    def record(self, version: int, patch: Interval) -> None:
        """Stamp ``version`` onto every canonical interval its tree covers."""
        if self.patches and version <= self.patches[-1][0]:
            raise ValueError(
                f"versions must be recorded in increasing order; got {version} "
                f"after {self.patches[-1][0]}"
            )
        geom = self.geom
        offset, size = patch.offset, patch.size
        geom.check_aligned(offset, size)
        stamps = _stamps(geom.total_size, geom.pagesize, offset, size)
        latest = self._latest
        get = latest.get
        self._undo[version] = [(key, get(key, 0)) for key in stamps]
        latest.update(dict.fromkeys(stamps, version))
        self.patches.append((version, offset, size))

    def forget_undo(self, version: int) -> None:
        """Drop rollback state once a write completes (bounded memory)."""
        self._undo.pop(version, None)

    def rollback_last(self, version: int) -> None:
        """Undo the most recent record (abandoned write, see VM.abandon)."""
        if not self.patches or self.patches[-1][0] != version:
            raise ValueError(
                f"can only roll back the most recently recorded version; "
                f"{version} is not it"
            )
        latest = self._latest
        for key, prev in self._undo.pop(version):
            if prev == 0:
                latest.pop(key, None)
            else:
                latest[key] = prev
        self.patches.pop()

    def ticket_refs(self, offset: int, size: int) -> tuple[tuple[Key, int], ...]:
        """References for a write of ``(offset, size)`` assigned *next*, in
        :attr:`~repro.version.manager.WriteTicket.border_refs` form:
        ``((offset, size), version)`` per border child, ascending.

        Must be called **before** :meth:`record` for that write: each border
        interval maps to the latest already-recorded version intersecting it
        (0 if untouched, meaning zero-fill).
        """
        get = self._latest.get
        geom = self.geom
        return tuple(
            (key, get(key, 0))
            for key in _borders(geom.total_size, geom.pagesize, offset, size)
        )

    def border_refs(self, patch: Interval) -> dict[Interval, int]:
        """:meth:`ticket_refs` keyed by :class:`Interval` (tools, tests)."""
        patch = self.geom.check_aligned(patch.offset, patch.size)
        return {
            Interval(o, s): v for (o, s), v in self.ticket_refs(patch.offset, patch.size)
        }

    def versions_intersecting(self, iv: Interval) -> list[int]:
        """All recorded versions whose patch intersects ``iv`` (for tools)."""
        return [v for v, o, s in self.patches if Interval(o, s).intersects(iv)]
