"""The four workloads: geometry, op mix, seeded op lists, shadow model.  FROZEN.

A workload is a deployment shape plus a fixed op list derived from the
seed. The seed fixes offsets, order and payload tags only — never how
much work is done. Names and definitions are permanent: every later
performance claim in this repository is stated against them, so a change
here is its own benchmark issue followed by a re-baseline (README.md).

All workloads run on 4 storage agents (``data/i`` + ``meta/i``
colocated), use whole-page ops at seeded uniform page-aligned offsets
inside a populated window, and are closed loops driven from one process.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import NamedTuple

KIB = 1 << 10
MIB = 1 << 20
GIB = 1 << 30

READ = "R"
WRITE = "W"


@dataclass(frozen=True)
class Workload:
    """One workload's permanent definition."""

    name: str
    why: str
    blob_size: int
    pagesize: int
    #: populated byte range ``[0, window)`` all offsets fall in
    window: int
    op_size: int
    #: one *group* of the op mix; a round is ``groups_per_round`` groups
    reads_per_group: int
    writes_per_group: int
    groups_per_round: int
    #: client metadata cache capacity in nodes (0 = every READ descends
    #: the whole tree over the wire)
    cache_capacity: int
    #: READs address the populated snapshot version (True) or LATEST
    read_snapshot: bool = False
    #: vm/pm on their own agents with a journaled state dir
    durable: bool = False
    #: client GC down to the latest version between rounds (untimed)
    gc_between_rounds: bool = False
    #: > 0: that many AsyncBlobClient coroutines on one aio loop, each
    #: owning one page (a round is one group per client, all concurrent)
    aio_clients: int = 0
    #: measured ms per op on the defining box; sizes rounds per --seconds
    nominal_ms_per_op: float = 1.0

    @property
    def ops_per_round(self) -> int:
        per_group = self.reads_per_group + self.writes_per_group
        return per_group * self.groups_per_round * max(1, self.aio_clients)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="seg_read_warm",
            why="1 MiB snapshot reads, metadata cached: net codec/sockets "
            "and provider page copies do the work, metadata/version none",
            blob_size=GIB, pagesize=64 * KIB, window=64 * MIB, op_size=MIB,
            reads_per_group=15, writes_per_group=1, groups_per_round=3,
            cache_capacity=1 << 20, read_snapshot=True,
            nominal_ms_per_op=2.5,
        ),
        Workload(
            name="seg_write_durable",
            why="1 MiB writes with a journaled remote vm/pm: the bulk path "
            "in the write direction plus version, journal, alloc and "
            "metadata build",
            blob_size=GIB, pagesize=64 * KIB, window=64 * MIB, op_size=MIB,
            reads_per_group=1, writes_per_group=3, groups_per_round=6,
            cache_capacity=1 << 20, durable=True, gc_between_rounds=True,
            nominal_ms_per_op=5.2,
        ),
        Workload(
            name="fine_mixed_cold",
            why="16 KiB ops on a depth-18 tree with no cache: sequential "
            "small metadata round trips dominate, the bulk path idles",
            blob_size=GIB, pagesize=4 * KIB, window=16 * MIB,
            op_size=16 * KIB,
            reads_per_group=1, writes_per_group=1, groups_per_round=16,
            cache_capacity=0,
            nominal_ms_per_op=3.9,
        ),
        Workload(
            name="many_clients_aio",
            why="64 coroutine clients saturating one aio loop: serving "
            "capacity and queueing in net/node.py and net/aio.py",
            blob_size=16 * MIB, pagesize=4 * KIB, window=16 * MIB,
            op_size=4 * KIB,
            reads_per_group=3, writes_per_group=1, groups_per_round=1,
            cache_capacity=0, aio_clients=64,
            nominal_ms_per_op=1.85,
        ),
    )
}

#: --smoke shrinks every window to this (tier-1 smoke test only)
SMOKE_WINDOW = 4 * MIB


class Op(NamedTuple):
    """One client operation of the fixed list."""

    kind: str  # READ | WRITE
    offset: int
    size: int
    #: payload tag a WRITE stamps on its pages (0 for READs)
    tag: int
    #: issuing client (always 0 on the single-client workloads)
    client: int = 0


def page_bytes(page: int, tag: int, pagesize: int) -> bytes:
    """The one legal content of page ``page`` written with ``tag``."""
    return struct.pack("<QQ", page, tag) * (pagesize // 16)


def payload(op: Op, pagesize: int) -> bytes:
    """The bytes a WRITE op sends."""
    first = op.offset // pagesize
    return b"".join(
        page_bytes(first + i, op.tag, pagesize)
        for i in range(op.size // pagesize)
    )


class Shadow:
    """What every page must read back as: page index -> tag of its last
    write. ``freeze()`` pins the populated snapshot for workloads whose
    READs address that version instead of LATEST."""

    def __init__(self, pagesize: int) -> None:
        self.pagesize = pagesize
        self.latest: dict[int, int] = {}
        self.snapshot: dict[int, int] = {}

    def apply(self, op: Op) -> None:
        first = op.offset // self.pagesize
        for i in range(op.size // self.pagesize):
            self.latest[first + i] = op.tag

    def freeze(self) -> None:
        self.snapshot = dict(self.latest)

    def expected(self, op: Op, snapshot: bool) -> bytes:
        """The bytes a READ op must return (a never-written page reads as
        zeros: the blob's implicit version 0)."""
        tags = self.snapshot if snapshot else self.latest
        first = op.offset // self.pagesize
        zero = bytes(self.pagesize)
        return b"".join(
            page_bytes(first + i, tags[first + i], self.pagesize)
            if first + i in tags else zero
            for i in range(op.size // self.pagesize)
        )


@dataclass
class Plan:
    """A workload's complete, seed-determined schedule."""

    workload: Workload
    window: int
    populate: list[Op]
    #: timed rounds (the first entry is the discarded warm-up round)
    rounds: list[list[Op]]
    op_list_hash: str


def make_plan(
    workload: Workload, seed: int, n_rounds: int, smoke: bool = False
) -> Plan:
    """The populate ops plus ``n_rounds + 1`` rounds (warm-up first).

    Same seed, same plan; a longer plan extends a shorter one, so runs of
    different length share their common prefix of ops.
    """
    w = workload
    window = min(w.window, SMOKE_WINDOW) if smoke else w.window
    rng = random.Random(f"perfbench/{w.name}/{seed}")
    tag_base = rng.getrandbits(40) << 20
    tags = iter(range(tag_base + 1, tag_base + (1 << 20)))
    slots = (window - w.op_size) // w.pagesize + 1

    def offset() -> int:
        return rng.randrange(slots) * w.pagesize

    rounds: list[list[Op]] = []
    if w.aio_clients:
        # each client owns one distinct page, for the whole run
        pages = rng.sample(range(window // w.pagesize), w.aio_clients)
        populate = [
            Op(WRITE, p * w.pagesize, w.op_size, next(tags), c)
            for c, p in enumerate(pages)
        ]
        for _ in range(n_rounds + 1):
            ops = []
            for c, p in enumerate(pages):
                off = p * w.pagesize
                for _ in range(w.groups_per_round):
                    ops += [Op(WRITE, off, w.op_size, next(tags), c)
                            for _ in range(w.writes_per_group)]
                    ops += [Op(READ, off, w.op_size, 0, c)
                            for _ in range(w.reads_per_group)]
            rounds.append(ops)
    else:
        # populate in 1 MiB writes (whole pages either way)
        step = max(w.op_size, MIB)
        populate = [
            Op(WRITE, off, step, next(tags)) for off in range(0, window, step)
        ]
        for _ in range(n_rounds + 1):
            ops = []
            for _ in range(w.groups_per_round):
                writes = [Op(WRITE, offset(), w.op_size, next(tags))
                          for _ in range(w.writes_per_group)]
                if w.durable:
                    # read-your-write: each READ re-reads one of the
                    # group's own writes, after them
                    reads = [Op(READ, rng.choice(writes).offset, w.op_size, 0)
                             for _ in range(w.reads_per_group)]
                    ops += writes + reads
                else:
                    reads = [Op(READ, offset(), w.op_size, 0)
                             for _ in range(w.reads_per_group)]
                    group = writes + reads
                    rng.shuffle(group)
                    ops += group
            rounds.append(ops)
    digest = hashlib.sha256()
    for op in populate + [op for ops in rounds for op in ops]:
        digest.update(repr(tuple(op)).encode())
    return Plan(w, window, populate, rounds, digest.hexdigest()[:16])
