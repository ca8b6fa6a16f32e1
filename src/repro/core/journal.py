"""Write-ahead log + snapshots: the control plane's durability tier.

The paper's consistency story hangs on the version manager being the
single serialization point — which is only a useful property if that
point *survives restarts*. :class:`Journal` gives the vm and pm a
crash-legible state directory:

- ``wal.log`` — an append-only log of length+checksum-framed records.
  Each frame is ``<u32 body-length, u32 crc32>`` followed by the body
  (an 8-byte sequence number + the pickled record). Appends are flushed
  to the OS on every record (a SIGKILL loses nothing already appended)
  and additionally ``fsync``'d under the ``"always"`` policy (a power
  loss loses nothing either).
- ``snapshot.pkl`` — a compaction point: the actor's full pickled state
  plus the sequence number of the last record it covers, published
  atomically (tmp + ``os.replace``). On open, records at or below the
  snapshot's sequence number are skipped, so a crash *between* writing
  the snapshot and truncating the log never double-applies.

Recovery (:meth:`Journal.open`) loads the snapshot, replays the log and
**truncates a torn tail**: a half-written frame (short header, short
body, or checksum mismatch) marks the crash point — everything before it
is durable state, everything after is discarded with a logged warning,
never an error. The owning actor then resolves in-flight work on top of
the replayed state (see ``VersionManager.rollback_unpublished``).

Crash-point fault injection: ``fail_after=N`` makes the journal die
exactly ``N`` bytes into its append stream — the write that crosses the
limit persists only its first bytes and raises :class:`JournalCrashed`,
and every later append fails too (the process is "dead"). Sweeping ``N``
across record boundaries is how ``tests/test_journal_recovery.py``
proves recovery always lands on a clean prefix state.

:class:`Journaled` is the one body both durable actors (vm and pm) run
on a journal. An actor supplies ``_snapshot_state``, ``_restore``, one
``_apply_<tag>`` per record tag, a ``_recovered(fresh)`` step run after
replay (``fresh``: the directory was empty), its ``kind`` (its name in
errors) and its ``snapshot_format`` (the layout tag its snapshots carry:
recovery refuses a snapshot with another tag, or none, rather than
misread it); the body owns recovery, the append-then-apply rule
(:meth:`Journaled._log_and_apply`, the one record boundary a crash can
fall on) and the clean-close compaction. The actor validates and
normalises a request *before* it is logged, so a logged record always
replays: a request the actor refuses leaves no record.

``StateDirLock`` (flock-based) and the fsync helpers live here too.
"""

from __future__ import annotations

import logging
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ConfigError, ReproError

logger = logging.getLogger("repro.journal")

#: accepted fsync policies:
#: ``"never"`` (flush to the OS only — survives SIGKILL, the test
#: default) and ``"always"`` (fsync every append/publish — survives
#: power loss, the production setting).
FSYNC_POLICIES = ("never", "always")

#: frame header: little-endian (body_length, crc32-of-body)
_HEADER = struct.Struct("<II")
#: sanity cap on a single record; anything larger is corruption
_MAX_RECORD = 1 << 26

WAL_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.pkl"
LOCK_NAME = "agent.lock"


class JournalError(ReproError):
    """The journal could not be read or written (not a torn tail —
    those are truncated and logged, never raised)."""


class JournalCrashed(JournalError):
    """Fault injection tripped: the simulated process died mid-write.

    After this is raised once, every further append raises it too — a
    crashed process never writes again until "restarted" by reopening
    the state directory with a fresh :class:`Journal`.
    """


def check_fsync_policy(policy: str) -> str:
    """Validate an fsync policy name (shared CLI/constructor knob)."""
    if policy not in FSYNC_POLICIES:
        raise ConfigError(
            f"fsync policy must be one of {FSYNC_POLICIES}, got {policy!r}"
        )
    return policy


def sync_file(fileobj) -> None:
    """Flush a file object's buffers all the way to stable storage."""
    fileobj.flush()
    os.fsync(fileobj.fileno())


def sync_dir(path: str | os.PathLike) -> None:
    """fsync a directory: makes a just-renamed entry durable.

    ``os.replace`` publishes atomically with respect to *process* death,
    but only a directory fsync makes the new entry survive power loss.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class StateDirLock:
    """Advisory exclusive lock on a state directory (flock + pidfile).

    A live agent holds ``agent.lock`` for its whole lifetime; a second
    agent pointed at the same ``--state-dir`` fails :meth:`acquire` with
    a :class:`~repro.errors.ConfigError` naming the holder's pid. The
    flock is released automatically by the OS if the holder is killed,
    so a stale pidfile never wedges a restart.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.path = self.directory / LOCK_NAME
        self._file = None

    def acquire(self) -> "StateDirLock":
        """Take the lock or raise ``ConfigError`` if a live agent holds it."""
        import fcntl

        f = open(self.path, "a+")
        try:
            fcntl.flock(f.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            f.seek(0)
            holder = f.read().strip() or "unknown"
            f.close()
            raise ConfigError(
                f"state dir {self.directory} is locked by a live agent "
                f"(pid {holder})"
            ) from None
        f.seek(0)
        f.truncate()
        f.write(str(os.getpid()))
        f.flush()
        self._file = f
        return self

    def release(self) -> None:
        """Drop the lock (the file stays behind as a breadcrumb)."""
        if self._file is not None:
            self._file.close()  # closing the fd releases the flock
            self._file = None

    @property
    def held(self) -> bool:
        return self._file is not None


class Journal:
    """One actor's write-ahead log + snapshot under a state directory.

    Lifecycle: construct, :meth:`open` (recovery — returns the snapshot
    state and the records to replay on top of it), then :meth:`append`
    per mutation and :meth:`compact` at snapshot points. The owning
    actor decides *what* the records mean; the journal only promises
    that whatever :meth:`open` returns is a clean prefix of what was
    appended.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: str = "never",
        snapshot_every: int | None = 1024,
        fail_after: int | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.fsync = check_fsync_policy(fsync)
        if snapshot_every is not None and snapshot_every < 1:
            raise ConfigError(
                f"snapshot_every must be >= 1 or None, got {snapshot_every}"
            )
        self.snapshot_every = snapshot_every
        #: fault injection: die this many bytes into the append stream
        self.fail_after = fail_after
        self._appended_bytes = 0
        self._crashed = False
        self._file = None
        self._seqno = 0  # last sequence number written (or recovered)
        self.records_since_snapshot = 0
        self.truncated_bytes = 0  # torn tail dropped by the last open()
        self.replayed_records = 0  # log records the last open() returned

    # -- recovery ---------------------------------------------------------

    def open(self) -> tuple[Any | None, list[Any]]:
        """Recover: ``(snapshot_state_or_None, records_to_replay)``.

        Loads the snapshot (if any), scans the log, truncates a torn
        tail in place (logged, never fatal) and leaves the journal ready
        for appends. Records already covered by the snapshot's sequence
        number are skipped, so a crash between snapshot publication and
        log truncation cannot double-apply.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        snap_state, snap_seqno = self._load_snapshot()
        wal = self.directory / WAL_NAME
        records: list[Any] = []
        good_end = 0
        self._seqno = snap_seqno
        try:
            raw = wal.read_bytes()
        except FileNotFoundError:
            raw = b""
        pos = 0
        torn_reason = None
        while pos < len(raw):
            if pos + _HEADER.size > len(raw):
                torn_reason = f"short header at byte {pos}"
                break
            length, crc = _HEADER.unpack_from(raw, pos)
            if length < 8 or length > _MAX_RECORD:
                torn_reason = f"implausible frame length {length} at byte {pos}"
                break
            body = raw[pos + _HEADER.size : pos + _HEADER.size + length]
            if len(body) < length:
                torn_reason = f"short body at byte {pos}"
                break
            if zlib.crc32(body) != crc:
                torn_reason = f"checksum mismatch at byte {pos}"
                break
            seqno = int.from_bytes(body[:8], "little")
            if seqno > snap_seqno:
                try:
                    records.append(pickle.loads(body[8:]))
                except Exception as exc:  # corrupt pickle inside a good crc
                    torn_reason = f"undecodable record at byte {pos}: {exc}"
                    break
                self._seqno = seqno
            pos += _HEADER.size + length
            good_end = pos
        self.truncated_bytes = len(raw) - good_end
        if torn_reason is not None:
            logger.warning(
                "journal %s: torn tail (%s): truncating %d byte(s) after "
                "%d clean record(s)",
                wal, torn_reason, self.truncated_bytes, len(records),
            )
        self._file = open(wal, "r+b" if wal.exists() else "wb")
        self._file.truncate(good_end)
        self._file.seek(good_end)
        if self.fsync == "always" and self.truncated_bytes:
            sync_file(self._file)
        self.records_since_snapshot = len(records)
        self.replayed_records = len(records)
        return snap_state, records

    def _load_snapshot(self) -> tuple[Any | None, int]:
        path = self.directory / SNAPSHOT_NAME
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None, 0
        try:
            snap = pickle.loads(blob)
            return snap["state"], int(snap["seqno"])
        except Exception as exc:
            # a torn snapshot cannot happen through compact() (atomic
            # replace), so this is real corruption: refuse loudly rather
            # than silently restarting from an empty history
            raise JournalError(f"snapshot {path} is unreadable: {exc}") from exc

    # -- append path ------------------------------------------------------

    def append(self, record: Any) -> None:
        """Durably append one record (fsync per policy), WAL-first.

        Callers must append *before* applying the mutation and must not
        reply to the client until this returns — then every externally
        visible state transition is recoverable.
        """
        if self._file is None:
            raise JournalError("journal not opened; call open() first")
        body = (self._seqno + 1).to_bytes(8, "little") + pickle.dumps(
            record, protocol=pickle.HIGHEST_PROTOCOL
        )
        frame = _HEADER.pack(len(body), zlib.crc32(body)) + body
        self._write(frame)
        self._seqno += 1
        self.records_since_snapshot += 1

    def _write(self, frame: bytes) -> None:
        """Write raw bytes, honoring the crash-point fault injection."""
        if self._crashed:
            raise JournalCrashed("journal already crashed (fail_after)")
        if (
            self.fail_after is not None
            and self._appended_bytes + len(frame) > self.fail_after
        ):
            keep = max(0, self.fail_after - self._appended_bytes)
            self._file.write(frame[:keep])
            self._file.flush()  # the torn bytes ARE on disk, like a real crash
            self._appended_bytes += keep
            self._crashed = True
            raise JournalCrashed(
                f"fault injection: journal died {keep} byte(s) into a "
                f"{len(frame)}-byte frame (fail_after={self.fail_after})"
            )
        self._file.write(frame)
        self._file.flush()  # SIGKILL-safe even under fsync="never"
        if self.fsync == "always":
            os.fsync(self._file.fileno())
        self._appended_bytes += len(frame)

    @property
    def tail_offset(self) -> int:
        """Current byte length of the log (record-boundary probe point)."""
        return self._file.tell() if self._file is not None else 0

    def should_compact(self) -> bool:
        """True when the log has outgrown the snapshot policy."""
        return (
            self.snapshot_every is not None
            and self.records_since_snapshot >= self.snapshot_every
        )

    # -- compaction -------------------------------------------------------

    def compact(self, state: Any) -> None:
        """Publish ``state`` as the new snapshot and reset the log.

        The snapshot lands atomically (tmp + replace, fsync'd under the
        ``"always"`` policy) *before* the log is truncated; a crash
        between the two steps is handled by :meth:`open` skipping
        records the snapshot already covers.
        """
        if self._file is None:
            raise JournalError("journal not opened; call open() first")
        if self._crashed:
            raise JournalCrashed("journal already crashed (fail_after)")
        path = self.directory / SNAPSHOT_NAME
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as f:
            pickle.dump(
                {"seqno": self._seqno, "state": state},
                f,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            if self.fsync == "always":
                sync_file(f)
        os.replace(tmp, path)
        if self.fsync == "always":
            sync_dir(self.directory)
        self._file.truncate(0)
        self._file.seek(0)
        if self.fsync == "always":
            sync_file(self._file)
        self.records_since_snapshot = 0

    def close(self) -> None:
        """Release the log file handle (state stays on disk)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None

    def iter_frames(self) -> Iterator[tuple[int, Any]]:
        """``(seqno, record)`` pairs currently in the log (tooling)."""
        raw = (self.directory / WAL_NAME).read_bytes()
        pos = 0
        while pos + _HEADER.size <= len(raw):
            length, crc = _HEADER.unpack_from(raw, pos)
            body = raw[pos + _HEADER.size : pos + _HEADER.size + length]
            if len(body) < length or zlib.crc32(body) != crc:
                return
            yield int.from_bytes(body[:8], "little"), pickle.loads(body[8:])
            pos += _HEADER.size + length


class Journaled:
    """The WAL state machine the vm and pm share (module docstring); a
    subclass calls :meth:`_attach` last in its constructor, and with
    ``journal=None`` its records are applied, never logged."""

    kind: str
    snapshot_format: str

    def _attach(self, journal: Journal | None) -> None:
        """Adopt ``journal`` and recover: snapshot, replay, the
        :meth:`_recovered` hook, then a compaction (the hook's work is
        durable, and the incarnation starts from an empty log)."""
        self.journal = journal
        if journal is None:
            return
        state, records = journal.open()
        if state is not None:
            found = state.get("format")
            if found != self.snapshot_format:
                raise JournalError(
                    f"{self.kind} snapshot in {journal.directory} has format "
                    f"{found!r}, not {self.snapshot_format!r}: its state would "
                    "be misread — refusing"
                )
            self._restore(state)
        for record in records:
            self._apply(record)
        self._recovered(state is None and not records)
        journal.compact(self._snapshot())

    def _snapshot(self) -> dict[str, Any]:
        """What a compaction stores: the actor's state, tagged with its
        layout."""
        return {"format": self.snapshot_format, **self._snapshot_state()}

    @property
    def replayed_records(self) -> int:
        """Log records the last recovery replayed (0 without a journal)."""
        return 0 if self.journal is None else self.journal.replayed_records

    def _log_and_apply(self, record: tuple) -> Any:
        """WAL discipline: append first, apply second, reply third."""
        journal = self.journal
        if journal is not None:
            journal.append(record)
        result = self._apply(record)
        if journal is not None and journal.should_compact():
            journal.compact(self._snapshot())
        return result

    def _apply(self, record: tuple) -> Any:
        apply = getattr(self, f"_apply_{record[0]}", None)
        if apply is None:
            raise ValueError(f"{self.kind}: unknown journal record {record[0]!r}")
        return apply(*record[1:])

    def close(self) -> None:
        """Clean shutdown: compact so the next incarnation replays nothing."""
        if self.journal is not None:
            try:
                self.journal.compact(self._snapshot())
            except JournalError:
                pass  # a crashed (fault-injected) journal stays as-is
            self.journal.close()
