"""The version manager.

Responsibilities (paper §III.A, §IV):

- ``alloc``: mint blob ids and record their geometry;
- ``assign``: hand out the next version number for a WRITE, together with
  the precomputed border references that make metadata weaving a purely
  local computation for the writer (write/write concurrency, §IV.C);
- ``complete``: accept a writer's success report and **publish versions
  strictly in version order** — a snapshot becomes readable only once all
  earlier snapshots are complete, which is what gives every reader the
  same total order of writes (global serializability, §II);
- ``get_latest`` / ``stat`` / ``resolve_read``: serve readers the latest
  published version (the only reader interaction with any centralized
  entity, §IV.A) and, from the patch history that precomputes border
  references, the version label of the tree node covering each region a
  reader names.

The manager is deliberately a small, fast state machine: the paper's whole
point is that this is the *only* serialization in the system, so everything
here is O(patch metadata) per write and O(1) per read.

Extension beyond the paper: ``abandon`` lets the most recent writer back
out (e.g. client crash before publishing) by rolling the assignment back,
preserving liveness for later writers. The general failed-writer recovery
problem is future work in the paper as well.

Durability (PR 6): construct with a :class:`~repro.core.journal.Journal`
and every mutation follows the WAL discipline — validate, **append the
record, then apply it** — so the reply a client sees is always backed by
the log. Recovery replays the log into ``_BlobState`` and then *resolves*
the interrupted tail: every version newer than ``latest_published``
(in-flight or completed-but-unpublished) is rolled back top-down, so the
publish order stays total and the next writer starts from a clean chain.
Rollback needs the patch undo, which is why ``complete`` only forgets an
undo as its version actually *publishes*.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any

from repro.errors import BlobNotFound, StaleWrite, VersionNotPublished
from repro.metadata.tree import TreeGeometry
from repro.util.intervals import Interval
from repro.version.history import PatchHistory

logger = logging.getLogger("repro.vm")

#: Sentinel clients pass to READ for "the latest published version".
LATEST = -1

#: layout tag of the pickled state a snapshot holds; ``_restore`` refuses
#: any other (version 2: patch histories keyed by ``(offset, size)`` ints)
SNAPSHOT_FORMAT = "repro.vm/2"


@dataclass(frozen=True, slots=True)
class WriteTicket:
    """Everything a writer needs to weave its subtree in isolation."""

    blob_id: str
    version: int
    #: ((offset, size), version) for every border child interval
    border_refs: tuple[tuple[tuple[int, int], int], ...]

    def refs_as_dict(self) -> dict[Interval, int]:
        return {Interval(o, s): v for (o, s), v in self.border_refs}


@dataclass
class _BlobState:
    blob_id: str
    geom: TreeGeometry
    history: PatchHistory
    next_version: int = 1
    latest_published: int = 0
    in_flight: dict[int, Interval] = field(default_factory=dict)
    completed: set[int] = field(default_factory=set)
    #: completions-counter reading at assign time, per unpublished version
    #: (the clock for the ``stuck_writes`` age column)
    assigned_at: dict[int, int] = field(default_factory=dict)


def _canonical(geom: TreeGeometry, region: Any) -> Interval:
    """A wire-supplied ``(offset, size)`` pair as an interval some node of
    ``geom``'s tree covers; anything else is a ``ValueError``."""
    if (
        type(region) is tuple
        and len(region) == 2
        and type(region[0]) is int
        and type(region[1]) is int
        and 0 <= region[0] <= geom.total_size - region[1]
    ):
        iv = Interval(*region)
        if iv.is_canonical(geom.pagesize):
            return iv
    raise ValueError(
        f"{region!r:.80} is not a canonical in-bounds (offset, size) "
        f"interval of a {geom.total_size} B blob"
    )


class VersionManager:
    """Centralized version authority (one per deployment)."""

    def __init__(self, journal=None) -> None:
        self._blobs: dict[str, _BlobState] = {}
        self._alloc_counter = 0
        self.assigns = 0
        self.completions = 0
        #: READ-side counters, this incarnation only (not journaled)
        self.resolves = 0
        self.roots_answered = 0
        self.roots_declined = 0
        self.journal = journal
        self.replayed_records = 0
        self.rolled_back = 0
        if journal is not None:
            self._recover()

    # -- durability ---------------------------------------------------------

    def _snapshot_state(self) -> dict[str, Any]:
        return {
            "format": SNAPSHOT_FORMAT,
            "blobs": self._blobs,
            "alloc_counter": self._alloc_counter,
            "assigns": self.assigns,
            "completions": self.completions,
        }

    def _restore(self, state: dict[str, Any]) -> None:
        found = state.get("format")
        if found != SNAPSHOT_FORMAT:
            from repro.core.journal import JournalError

            raise JournalError(
                f"vm snapshot in {self.journal.directory} has format "
                f"{found!r}, not {SNAPSHOT_FORMAT!r}: its patch histories "
                "would be misread — refusing"
            )
        self._blobs = state["blobs"]
        self._alloc_counter = state["alloc_counter"]
        self.assigns = state["assigns"]
        self.completions = state["completions"]

    def _recover(self) -> None:
        """Replay snapshot + log, then roll back the unpublished tail."""
        state, records = self.journal.open()
        if state is not None:
            self._restore(state)
        for record in records:
            self._apply(record)
        self.replayed_records = len(records)
        self.rolled_back = self._apply(("resolve",))
        logger.info(
            "vm recovery: %d blob(s), %d log record(s) replayed, "
            "%d unpublished assignment(s) rolled back",
            len(self._blobs), len(records), self.rolled_back,
        )
        # Start the new incarnation from a clean snapshot: makes the
        # resolve above durable and drops the replayed log.
        self.journal.compact(self._snapshot_state())

    def _log_and_apply(self, record: tuple) -> Any:
        """WAL discipline: append first, apply second, reply third."""
        if self.journal is not None:
            self.journal.append(record)
        result = self._apply(record)
        if self.journal is not None and self.journal.should_compact():
            self.journal.compact(self._snapshot_state())
        return result

    def _apply(self, record: tuple) -> Any:
        op = record[0]
        if op == "alloc":
            return self._apply_alloc(*record[1:])
        if op == "assign":
            return self._apply_assign(*record[1:])
        if op == "complete":
            return self._apply_complete(*record[1:])
        if op == "abandon":
            return self._apply_abandon(*record[1:])
        if op == "resolve":
            return self._apply_resolve()
        raise ValueError(f"version manager: unknown journal record {op!r}")

    def close(self) -> None:
        """Clean shutdown: compact so the next incarnation replays nothing."""
        if self.journal is not None:
            from repro.core.journal import JournalError

            try:
                self.journal.compact(self._snapshot_state())
            except JournalError:
                pass  # a crashed (fault-injected) journal stays as-is
            self.journal.close()

    # -- blob lifecycle -----------------------------------------------------

    def alloc(self, total_size: int, pagesize: int) -> str:
        """Create a blob; returns its globally unique id (paper's ALLOC)."""
        TreeGeometry(total_size, pagesize)  # validates geometry before logging
        return self._log_and_apply(("alloc", total_size, pagesize))

    def _apply_alloc(self, total_size: int, pagesize: int) -> str:
        geom = TreeGeometry(total_size, pagesize)
        self._alloc_counter += 1
        blob_id = f"blob-{self._alloc_counter:06d}"
        self._blobs[blob_id] = _BlobState(
            blob_id=blob_id, geom=geom, history=PatchHistory(geom)
        )
        return blob_id

    def stat(self, blob_id: str) -> tuple[int, int, int]:
        """``(total_size, pagesize, latest_published)`` for a blob."""
        st = self._state(blob_id)
        return (st.geom.total_size, st.geom.pagesize, st.latest_published)

    def blob_ids(self) -> list[str]:
        return sorted(self._blobs)

    # -- write path ------------------------------------------------------------

    def assign(self, blob_id: str, offset: int, size: int) -> WriteTicket:
        """Serialize this WRITE: next version number + border references."""
        st = self._state(blob_id)
        st.geom.check_aligned(offset, size)  # validate before logging
        return self._log_and_apply(("assign", blob_id, offset, size))

    def _apply_assign(self, blob_id: str, offset: int, size: int) -> WriteTicket:
        st = self._state(blob_id)
        patch = st.geom.check_aligned(offset, size)
        refs = st.history.ticket_refs(offset, size)
        version = st.next_version
        st.next_version += 1
        st.history.record(version, patch)
        st.in_flight[version] = patch
        st.assigned_at[version] = self.completions
        self.assigns += 1
        return WriteTicket(blob_id=blob_id, version=version, border_refs=refs)

    def complete(self, blob_id: str, version: int) -> int:
        """Report success; publish in-order; return latest published."""
        st = self._state(blob_id)
        if version not in st.in_flight:
            raise StaleWrite(
                f"blob {blob_id}: completion for unknown version {version}"
            )
        return self._log_and_apply(("complete", blob_id, version))

    def _apply_complete(self, blob_id: str, version: int) -> int:
        st = self._state(blob_id)
        del st.in_flight[version]
        st.completed.add(version)
        # Publish every consecutive completed version (liveness: a write
        # publishes as soon as all of its predecessors have completed).
        # The undo survives until the version *publishes* — recovery rolls
        # back completed-but-unpublished versions too.
        while (st.latest_published + 1) in st.completed:
            st.latest_published += 1
            st.completed.discard(st.latest_published)
            st.history.forget_undo(st.latest_published)
            st.assigned_at.pop(st.latest_published, None)
        self.completions += 1
        return st.latest_published

    def abandon(self, blob_id: str, version: int) -> int:
        """Back out the *most recent* assignment (extension, see module doc)."""
        st = self._state(blob_id)
        if version not in st.in_flight:
            raise StaleWrite(
                f"blob {blob_id}: abandon for unknown version {version}"
            )
        if version != st.next_version - 1:
            raise StaleWrite(
                f"blob {blob_id}: only the most recently assigned version "
                f"({st.next_version - 1}) can be abandoned, not {version}"
            )
        return self._log_and_apply(("abandon", blob_id, version))

    def _apply_abandon(self, blob_id: str, version: int) -> int:
        st = self._state(blob_id)
        st.history.rollback_last(version)
        del st.in_flight[version]
        st.assigned_at.pop(version, None)
        st.next_version -= 1
        return st.next_version

    def rollback_unpublished(self) -> int:
        """Roll back every unpublished assignment, across all blobs.

        This is the recovery resolution step, also callable live (it is
        journaled): after it, ``next_version == latest_published + 1``
        for every blob and no write is in flight. Returns the number of
        assignments rolled back.
        """
        return self._log_and_apply(("resolve",))

    def _apply_resolve(self) -> int:
        rolled = 0
        for st in self._blobs.values():
            # Top-down: rollback_last only accepts the newest recorded
            # version, so unwind from the tail toward latest_published.
            for version in range(st.next_version - 1, st.latest_published, -1):
                st.history.rollback_last(version)
                st.in_flight.pop(version, None)
                st.completed.discard(version)
                st.assigned_at.pop(version, None)
                rolled += 1
            st.next_version = st.latest_published + 1
        return rolled

    # -- read path ----------------------------------------------------------

    def get_latest(self, blob_id: str) -> int:
        return self._state(blob_id).latest_published

    def resolve_read(
        self, blob_id: str, version: int, regions: Any = None
    ) -> tuple[int, int] | tuple[int, int, tuple[int, ...] | None]:
        """Validate a READ's version; returns ``(effective, latest)``.

        Implements the paper's contract: reading an unpublished version
        fails; ``LATEST`` resolves to the newest published snapshot.

        With ``regions`` — ``(offset, size)`` canonical intervals, the
        subtrees the reader's router co-locates — the reply is
        ``(effective, latest, roots)``: ``roots[i]`` is the version label
        of the tree node covering ``regions[i]`` in the effective
        snapshot (0 = never written), so the reader fetches those nodes
        directly instead of descending to them from the blob root.
        ``roots`` is all-or-nothing and exact or absent
        (:meth:`PatchHistory.label_at`): ``None`` means descend from the
        root as ever, and only a snapshot older than a published overwrite
        of a region gets it. Read-only and unjournaled. Regions that are
        not canonical for the blob, out of bounds, or more than one per
        tree level are a ``ValueError``.
        """
        st = self._state(blob_id)
        latest = st.latest_published
        effective = latest if version == LATEST else version
        if effective < 0 or effective > latest:
            raise VersionNotPublished(blob_id, version, latest)
        self.resolves += 1
        if regions is None:
            return effective, latest
        geom = st.geom
        if not isinstance(regions, tuple) or len(regions) > geom.depth + 1:
            raise ValueError(
                f"blob {blob_id}: regions must be a tuple of at most "
                f"{geom.depth + 1} intervals, got {regions!r:.80}"
            )
        roots = [
            st.history.label_at(_canonical(geom, region), effective)
            for region in regions
        ]
        if None in roots:
            self.roots_declined += 1
            return effective, latest, None
        self.roots_answered += 1
        return effective, latest, tuple(roots)

    def stats(self) -> dict[str, int]:
        """Counters for the metrics scrape (``vm.stats`` over the wire)."""
        return {
            "assigns": self.assigns,
            "completions": self.completions,
            "resolves": self.resolves,
            "roots_answered": self.roots_answered,
            "roots_declined": self.roots_declined,
        }

    # -- introspection ---------------------------------------------------------

    def in_flight_versions(self, blob_id: str) -> list[int]:
        return sorted(self._state(blob_id).in_flight)

    def stuck_writes(self, blob_id: str) -> list[tuple[int, int, int, int]]:
        """In-flight assignments with their age: ``(version, offset, size,
        age)`` where *age* counts completions (anywhere) since the version
        was assigned — a write that stays in flight while the completion
        clock advances is blocking the publish chain (see OPERATIONS.md).
        """
        st = self._state(blob_id)
        return [
            (
                version,
                patch.offset,
                patch.size,
                self.completions - st.assigned_at.get(version, self.completions),
            )
            for version, patch in sorted(st.in_flight.items())
        ]

    def patches(self, blob_id: str) -> list[tuple[int, int, int]]:
        """Recorded patch catalog: ``(version, offset, size)`` per write
        (published and in-flight), in version order. Tooling surface."""
        return list(self._state(blob_id).history.patches)

    def patch_of(self, blob_id: str, version: int) -> Interval:
        st = self._state(blob_id)
        for v, offset, size in st.history.patches:
            if v == version:
                return Interval(offset, size)
        raise StaleWrite(f"blob {blob_id}: no recorded patch for version {version}")

    def _state(self, blob_id: str) -> _BlobState:
        try:
            return self._blobs[blob_id]
        except KeyError:
            raise BlobNotFound(f"unknown blob id {blob_id!r}") from None

    # -- RPC dispatch ----------------------------------------------------------

    def handle(self, method: str, args: tuple) -> Any:
        if method == "vm.get_latest":
            return self.get_latest(*args)
        if method == "vm.resolve_read":
            return self.resolve_read(*args)
        if method == "vm.assign":
            return self.assign(*args)
        if method == "vm.complete":
            return self.complete(*args)
        if method == "vm.alloc":
            return self.alloc(*args)
        if method == "vm.stat":
            return self.stat(*args)
        if method == "vm.abandon":
            return self.abandon(*args)
        if method == "vm.in_flight":
            return self.in_flight_versions(*args)
        if method == "vm.stuck_writes":
            return self.stuck_writes(*args)
        if method == "vm.patches":
            return self.patches(*args)
        if method == "vm.stats":
            return self.stats()
        raise ValueError(f"version manager: unknown method {method!r}")
