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
"""

from __future__ import annotations

from repro.metadata.build import border_intervals
from repro.metadata.tree import TreeGeometry
from repro.util.intervals import Interval

#: memoized visit-interval lists keyed by (total_size, pagesize, offset, size)
#: — the canonical cover of a patch is pure geometry, and workloads stamp
#: the same patch slots over and over; cleared wholesale on overflow so
#: long-lived processes writing many distinct shapes don't leak
_VISIT_CACHE_LIMIT = 4096
_visit_cache: dict[tuple[int, int, int, int], list[Interval]] = {}


class PatchHistory:
    """Sparse latest-writer index over canonical intervals of one blob."""

    def __init__(self, geom: TreeGeometry) -> None:
        self.geom = geom
        self._latest: dict[Interval, int] = {}
        self.patches: list[tuple[int, Interval]] = []  # (version, patch)
        self._undo: dict[int, list[tuple[Interval, int]]] = {}  # for abandon()

    def __len__(self) -> int:
        return len(self._latest)

    def latest(self, iv: Interval) -> int:
        """Most recent version whose patch intersects ``iv`` (0 = never)."""
        return self._latest.get(iv, 0)

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
        version = self._latest.get(iv, 0)
        while version > snapshot:
            undo = self._undo.get(version)
            if undo is None:
                return None
            version = next(prev for stamped, prev in undo if stamped == iv)
        return version

    def record(self, version: int, patch: Interval) -> None:
        """Stamp ``version`` onto every canonical interval its tree covers."""
        if self.patches and version <= self.patches[-1][0]:
            raise ValueError(
                f"versions must be recorded in increasing order; got {version} "
                f"after {self.patches[-1][0]}"
            )
        patch = self.geom.check_aligned(patch.offset, patch.size)
        geom = self.geom
        cache_key = (geom.total_size, geom.pagesize, patch.offset, patch.size)
        intervals = _visit_cache.get(cache_key)
        if intervals is None:
            if len(_visit_cache) >= _VISIT_CACHE_LIMIT:
                _visit_cache.clear()
            intervals = list(geom.visit_intervals(patch))
            _visit_cache[cache_key] = intervals
        latest = self._latest
        latest_get = latest.get
        undo: list[tuple[Interval, int]] = []
        for iv in intervals:
            undo.append((iv, latest_get(iv, 0)))
            latest[iv] = version
        self.patches.append((version, patch))
        self._undo[version] = undo

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
        undo = self._undo.pop(version)
        for iv, prev in undo:
            if prev == 0:
                self._latest.pop(iv, None)
            else:
                self._latest[iv] = prev
        self.patches.pop()

    def border_refs(self, patch: Interval) -> dict[Interval, int]:
        """References for a write of ``patch`` assigned *next*.

        Must be called **before** :meth:`record` for that write: each border
        interval maps to the latest already-recorded version intersecting it
        (0 if untouched, meaning zero-fill).
        """
        return {iv: self.latest(iv) for iv in border_intervals(self.geom, patch)}

    def versions_intersecting(self, iv: Interval) -> list[int]:
        """All recorded versions whose patch intersects ``iv`` (for tools)."""
        return [v for v, p in self.patches if p.intersects(iv)]
