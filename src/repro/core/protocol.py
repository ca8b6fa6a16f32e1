"""Sans-io READ / WRITE / ALLOC protocols (paper §III.B).

These generators are the client algorithms of the paper, expressed once and
executed by any driver (in-process, threaded, simulated). The interaction
structure mirrors paper Figure 1 exactly:

WRITE: provider manager (allocation) → data providers (pages, parallel) →
version manager (version + border refs: the only serialization) → metadata
providers (nodes, one parallel batch: ``router.store_nodes`` sends each
owner its co-located nodes in one ``meta.put_nodes``, the nodes above the
router's cut one by one) → version manager (success report).

READ: version manager (latest/validation, the only centralized touch — which
also names, from its patch history, the version whose tree holds the root of
each co-located region the request touches) → metadata providers (one
``meta.get_subtree`` batch from those region roots; when the vm cannot say,
or is not asked, the descent starts at the blob root: one parallel batch per
level above the cut, then the subtree batch — with ``subtree_bytes = 0``
nothing is below the cut and this is the paper's one batch per level) → data
providers (pages, parallel). Three round trips at any depth.

Replica fail-over: with ``replication > 1`` every fetch tries the primary
owner and falls back to successive replicas on failure; the final attempt
raises normally so genuine losses surface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator, Sequence

from repro.errors import RemoteError
from repro.metadata.build import plan_write_tree
from repro.metadata.cache import MetadataCache
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.router import StaticRouter, fetch_nodes, store_nodes
from repro.metadata.tree import TreeGeometry
from repro.net.message import estimate_size
from repro.net.sansio import Address, Batch, Call, Compute, Mark, Op, gather_with_failover
from repro.providers.page import PageKey, PagePayload
from repro.util.intervals import Interval
from repro.version.manager import LATEST, WriteTicket

ADDR_VM: Address = "vm"
ADDR_PM: Address = "pm"

# Request footprint of the per-page hot call, precomputed once from the
# same estimator the drivers would invoke per call. Key wire sizes are
# type-constant, so resolving them per call is pure overhead on the
# simulator's hottest path.
_GET_PAGE_REQ_BYTES = estimate_size((PageKey("", "", 0),))


def data_addr(provider_id: int) -> Address:
    """The actor address of data provider ``provider_id``."""
    return ("data", provider_id)


@dataclass(frozen=True, slots=True)
class WriteResult:
    """Outcome of one WRITE."""

    blob_id: str
    version: int  # the paper's vw
    latest_published: int  # latest published when the report was accepted
    offset: int
    size: int
    pages_written: int
    nodes_written: int

    @property
    def published(self) -> bool:
        """True iff this snapshot was already published at report time."""
        return self.latest_published >= self.version


@dataclass(frozen=True, slots=True)
class ReadResult:
    """Outcome of one READ.

    ``data`` is ``bytes`` for plain reads (aliasing the stored page
    zero-copy when a single immutable page exactly covers the request), a
    ``memoryview`` over the caller's buffer for ``out=``-reads, and
    ``None`` for virtual reads.
    """

    blob_id: str
    version: int  # effective snapshot read
    latest: int  # the paper's vr (latest published at read time)
    offset: int
    size: int
    data: bytes | memoryview | None
    nodes_fetched: int
    cache_hits: int
    pages_fetched: int
    zero_bytes: int  # bytes satisfied from the implicit all-zero version 0


Proto = Generator[Op, Any, Any]


# ---------------------------------------------------------------------------
# ALLOC / stat
# ---------------------------------------------------------------------------


def alloc_protocol(total_size: int, pagesize: int) -> Proto:
    """Allocate a fresh blob; returns its id (paper's ALLOC primitive)."""
    (blob_id,) = yield Batch([Call(ADDR_VM, "vm.alloc", (total_size, pagesize))])
    return blob_id


def stat_protocol(blob_id: str) -> Proto:
    """Fetch ``(total_size, pagesize, latest_published)``."""
    (stat,) = yield Batch([Call(ADDR_VM, "vm.stat", (blob_id,))])
    return stat


# ---------------------------------------------------------------------------
# WRITE
# ---------------------------------------------------------------------------


def write_protocol(
    blob_id: str,
    geom: TreeGeometry,
    offset: int,
    payloads: Sequence[PagePayload],
    router: StaticRouter,
    write_uid: str,
    trace: dict[str, float] | None = None,
    hashed_alloc: bool = False,
) -> Proto:
    """The WRITE of paper §III.B; returns a :class:`WriteResult`.

    ``hashed_alloc`` switches step 1 to the pm's consistent-hash
    allocation (``pm.get_providers_hashed``): placement then depends only
    on each page's key and the live provider set, which is what lets an
    elastic cluster compute minimal migrations when membership changes.
    Off by default — the paper's strategies and their wire behavior are
    untouched.

    When ``trace`` is supplied it is filled with phase timestamps
    (``start``, ``providers_allocated``, ``pages_stored``,
    ``version_assigned``, ``metadata_stored``, ``done``) in the driver's
    clock — simulated seconds under the simulator. Figure 3(b) plots
    ``metadata_stored - version_assigned`` (building + storing metadata).
    """
    npages = len(payloads)
    if npages == 0:
        raise ValueError("WRITE requires at least one page")
    for p in payloads:
        if p.nbytes != geom.pagesize:
            raise ValueError(
                f"every payload must be exactly one page ({geom.pagesize} B); "
                f"got {p.nbytes} B"
            )
    size = npages * geom.pagesize
    patch = geom.check_aligned(offset, size)
    first_page = offset // geom.pagesize

    def mark(name: str):
        if trace is not None:
            t = yield Mark(name)
            trace[name] = t

    yield from mark("start")

    # 1. ask the provider manager where the fresh pages should live
    if hashed_alloc:
        (groups,) = yield Batch(
            [Call(
                ADDR_PM,
                "pm.get_providers_hashed",
                (blob_id, write_uid, first_page, npages, geom.pagesize),
            )]
        )
    else:
        (groups,) = yield Batch(
            [Call(ADDR_PM, "pm.get_providers", (blob_id, npages, geom.pagesize))]
        )
    yield from mark("providers_allocated")

    # 2. store all pages in parallel (every replica of every page at once)
    yield Compute("client.touch_page", npages)
    # every payload is exactly one page, so all puts share one footprint
    put_req_bytes = estimate_size((PageKey("", "", 0), payloads[0]))
    page_calls = []
    for i, payload in enumerate(payloads):
        key = PageKey(blob_id, write_uid, first_page + i)
        for provider_id in groups[i]:
            page_calls.append(
                Call(
                    data_addr(provider_id),
                    "data.put_page",
                    (key, payload),
                    request_bytes=put_req_bytes,
                )
            )
    yield Batch(page_calls)
    yield from mark("pages_stored")

    # 3. the only serialization point: get a version number + border refs
    (ticket,) = yield Batch([Call(ADDR_VM, "vm.assign", (blob_id, offset, size))])
    assert isinstance(ticket, WriteTicket)
    yield from mark("version_assigned")

    # 4. weave and publish the metadata subtree — in complete isolation
    nodes = plan_write_tree(
        geom, blob_id, ticket.version, patch, ticket.refs_as_dict(), groups, write_uid
    )
    yield Compute("client.build_node", len(nodes))
    yield from store_nodes(router, nodes)
    yield from mark("metadata_stored")

    # 5. report success; the VM publishes versions in order
    (latest,) = yield Batch([Call(ADDR_VM, "vm.complete", (blob_id, ticket.version))])
    yield from mark("done")
    return WriteResult(
        blob_id=blob_id,
        version=ticket.version,
        latest_published=latest,
        offset=offset,
        size=size,
        pages_written=npages,
        nodes_written=len(nodes),
    )


# ---------------------------------------------------------------------------
# READ
# ---------------------------------------------------------------------------


def read_protocol(
    blob_id: str,
    geom: TreeGeometry,
    offset: int,
    size: int,
    router: StaticRouter,
    version: int = LATEST,
    cache: MetadataCache | None = None,
    with_data: bool = True,
    out: Any | None = None,
    trace: dict[str, float] | None = None,
    locate_fallback: bool = False,
) -> Proto:
    """The READ of paper §III.B; returns a :class:`ReadResult`.

    One descent loop: from the roots of the co-located regions the request
    touches when the vm names them (``vm.resolve_read`` with ``regions``,
    see :meth:`StaticRouter.regions_worth_asking`), from the blob root
    otherwise. ``nodes_fetched`` counts every node received either way; a
    READ that starts below the cut receives, and caches, nothing above it.

    ``locate_fallback`` arms the elastic-cluster page fallback: when every
    provider a tree node records answers PageMissing (the page was moved
    by a rebalance after the node was published), the client asks the pm
    where those pages went (``pm.locate``) and fetches from the current
    holders. Zero extra RPCs while pages are where their metadata says.

    ``with_data=False`` runs the full metadata + page protocol but skips
    byte assembly (simulation benches; virtual payloads).

    ``out`` is an optional caller-supplied writable buffer (``bytearray``
    or writable ``memoryview``) of at least ``size`` bytes: provider pages
    are scattered straight into it via memoryview slices — zero
    intermediate copies — and ``ReadResult.data`` is a view over ``out``
    trimmed to ``size``.

    When ``trace`` is supplied it is filled with phase timestamps
    (``start``, ``version_resolved``, ``metadata_read``, ``pages_read``,
    ``done``). Figure 3(a) plots ``metadata_read - version_resolved``
    (the complete tree descent).
    """
    req = geom.check_bounds(offset, size)
    dst: memoryview | None = None
    if out is not None:
        if not with_data:
            raise ValueError("out buffer requires with_data=True")
        dst = memoryview(out)
        if dst.ndim != 1 or dst.itemsize != 1:
            dst = dst.cast("B")
        if dst.readonly:
            raise ValueError("out buffer must be writable")
        if dst.nbytes < size:
            raise ValueError(
                f"out buffer of {dst.nbytes} B cannot hold a {size} B read"
            )
        dst = dst[:size]

    def mark(name: str):
        if trace is not None:
            t = yield Mark(name)
            trace[name] = t

    yield from mark("start")

    # 1. the only centralized interaction: resolve/validate the version —
    # and learn, when the vm can say, which version's tree holds the root
    # of each co-located region the request touches
    regions = router.regions_worth_asking(geom, offset, size)
    (resolved,) = yield Batch([Call(
        ADDR_VM,
        "vm.resolve_read",
        (blob_id, version, regions) if regions else (blob_id, version),
    )])
    yield from mark("version_resolved")
    effective, latest = resolved[:2]
    if effective == 0:
        # Version 0 is the implicit all-zero string: nothing to fetch.
        if dst is not None:
            _zero_range(dst, 0, size)
            data = dst
        else:
            data = bytes(size) if with_data else None
        return ReadResult(
            blob_id, 0, latest, offset, size, data,
            nodes_fetched=0, cache_hits=0, pages_fetched=0, zero_bytes=size,
        )

    # 2. descend the segment tree, from the region roots the vm named or
    # else from the blob root: a frontier key is resolved from the nodes
    # this READ already received (a subtree reply carries the levels below
    # its key), then the client cache, else fetched — one parallel batch
    # per level that still has something to fetch
    nodes_fetched = 0
    cache_hits = 0
    zero_bytes = 0
    leaves: list[TreeNode] = []
    known: dict[NodeKey, TreeNode] = {}
    roots = resolved[2] if regions else None
    if roots is None:
        wanted = [NodeKey(blob_id, effective, 0, geom.total_size)]
    else:
        wanted = [
            NodeKey(blob_id, label, lo, span)
            for (lo, span), label in zip(regions, roots)
        ]
    req_end = offset + size
    while wanted:  # the keys of one level whose intervals meet the request
        frontier: list[NodeKey] = []
        for key in wanted:
            if key.version:
                frontier.append(key)
            else:  # untouched since the initial all-zero string
                zero_bytes += (
                    min(key.offset + key.size, req_end) - max(key.offset, offset)
                )
        to_fetch: list[NodeKey] = []
        for key in frontier:
            if key in known:
                continue
            node = cache.get(key) if cache is not None else None
            if node is not None:
                cache_hits += 1
                known[key] = node
            else:
                to_fetch.append(key)
        if to_fetch:
            fetched = yield from fetch_nodes(router, to_fetch, within=req)
            nodes_fetched += len(fetched)
            for node in fetched:
                known[node.key] = node
                if cache is not None:
                    cache.put(node)
        wanted = []
        for key in frontier:
            node = known[key]
            if node.is_leaf:
                leaves.append(node)
                continue
            for child in node.child_keys():
                if child.offset < req_end and offset < child.offset + child.size:
                    wanted.append(child)
    yield from mark("metadata_read")

    # 3. fetch the pages referenced by the leaves, in parallel
    payloads = yield from _gather_pages(geom, leaves, locate_fallback)
    if leaves:
        yield Compute("client.touch_page", len(leaves))
    yield from mark("pages_read")

    # 4. assemble the requested byte range (zero intermediate copies: an
    # out= read scatters page views into the caller's buffer; a plain
    # read whose pages tile the request joins them in one pass, and only
    # a gapped one goes through a zero-filled scratch buffer)
    data = None
    if dst is not None:
        if zero_bytes or any(p.is_virtual for p in payloads):
            # the caller's buffer may be dirty: zero exactly the regions
            # no real payload will cover (never the whole buffer — a huge
            # read with one unwritten page must not pay a full rewrite)
            _zero_uncovered(req, leaves, payloads, dst)
        assemble_read(req, leaves, payloads, dst)
        data = dst
    elif with_data:
        data = _join_pages(req, leaves, payloads) if not zero_bytes else None
        if data is None:
            buf = bytearray(size)  # zero-filled: version-0 regions need no work
            assemble_read(req, leaves, payloads, memoryview(buf))
            data = bytes(buf)
    yield from mark("done")
    return ReadResult(
        blob_id=blob_id,
        version=effective,
        latest=latest,
        offset=offset,
        size=size,
        data=data,
        nodes_fetched=nodes_fetched,
        cache_hits=cache_hits,
        pages_fetched=len(leaves),
        zero_bytes=zero_bytes,
    )


# ---------------------------------------------------------------------------
# zero-copy READ assembly
# ---------------------------------------------------------------------------


def assemble_read(
    req: Interval, leaves: Sequence[TreeNode], payloads: Sequence[PagePayload], dst: memoryview
) -> int:
    """Scatter fetched page payloads into ``dst`` (a writable byte view of
    ``req.size`` bytes) with **zero payload copies**: each real payload is
    sliced as a memoryview and written straight into place — no
    intermediate ``bytes`` objects, no joins. Virtual payloads are skipped
    (the caller pre-zeroes gapped buffers). Returns payload bytes written.
    """
    written = 0
    req_offset = req.offset
    req_end = req.end
    for leaf, payload in zip(leaves, payloads):
        src = payload.view()
        if src is None:
            continue
        iv = leaf.interval
        src_lo = max(0, req_offset - iv.offset)
        src_hi = min(iv.size, req_end - iv.offset)
        if src_hi <= src_lo:
            continue
        dst_lo = iv.offset + src_lo - req_offset
        dst[dst_lo : dst_lo + (src_hi - src_lo)] = src[src_lo:src_hi]
        written += src_hi - src_lo
    return written


#: shared all-zero block for gap filling: ≤ one page-sized slice per gap
#: chunk instead of a request-sized throwaway bytes object
_ZEROS = memoryview(bytes(64 * 1024))


def _zero_range(dst: memoryview, lo: int, hi: int) -> None:
    chunk = len(_ZEROS)
    while lo < hi:
        n = min(chunk, hi - lo)
        dst[lo : lo + n] = _ZEROS[:n]
        lo += n


def _zero_uncovered(
    req: Interval, leaves: Sequence[TreeNode], payloads: Sequence[PagePayload], dst: memoryview
) -> None:
    """Zero exactly the bytes of ``dst`` that no real payload will cover:
    version-0 gaps plus regions backed by virtual payloads."""
    spans: list[tuple[int, int]] = []
    req_offset = req.offset
    req_end = req.end
    for leaf, payload in zip(leaves, payloads):
        if payload.data is None:
            continue
        iv = leaf.interval
        lo = max(iv.offset, req_offset) - req_offset
        hi = min(iv.end, req_end) - req_offset
        if hi > lo:
            spans.append((lo, hi))
    spans.sort()
    cursor = 0
    for lo, hi in spans:
        if lo > cursor:
            _zero_range(dst, cursor, lo)
        if hi > cursor:
            cursor = hi
    _zero_range(dst, cursor, req.size)


def _join_pages(
    req: Interval, leaves: Sequence[TreeNode], payloads: Sequence[PagePayload]
) -> bytes | None:
    """The request's bytes built in one pass, when real pages tile it in
    order with no gap (the plain-read fast path), else ``None``.

    One immutable ``bytes`` page covering the whole request is returned
    itself (write-once pages can never change under the reader);
    otherwise the page views are joined straight into the result — no
    request-sized scratch buffer is written and then copied out.
    """
    pieces: list[bytes | memoryview] = []
    cursor = req.offset
    for leaf, payload in zip(leaves, payloads):
        iv = leaf.interval
        if payload.data is None or not iv.offset <= cursor < iv.end:
            return None
        lo = cursor - iv.offset
        hi = min(iv.size, req.end - iv.offset)
        whole = lo == 0 and hi == iv.size
        pieces.append(payload.data if whole else payload.view()[lo:hi])
        cursor = iv.offset + hi
    if cursor != req.end:
        return None
    if len(pieces) == 1 and type(pieces[0]) is bytes:
        return pieces[0]
    return b"".join(pieces)


# ---------------------------------------------------------------------------
# replica fail-over helpers
# ---------------------------------------------------------------------------


def _gather_pages(
    geom: TreeGeometry, leaves: list[TreeNode], locate_fallback: bool = False
) -> Proto:
    """Fetch page payloads for leaves, falling back across page replicas.

    With ``locate_fallback``, exhausting a leaf's recorded providers is
    not final: the pm's relocation table is consulted once, in one batch
    for all still-missing pages, and the fetch retried against the
    current holders (the elastic-membership read path)."""

    def key_for(leaf: TreeNode) -> PageKey:
        return PageKey(
            leaf.key.blob_id, leaf.write_uid, geom.page_index(leaf.interval)
        )

    def routes_for(leaf: TreeNode) -> tuple[Address, ...]:
        return tuple(data_addr(p) for p in leaf.providers)

    def call_for(leaf: TreeNode, owner: Address, last: bool) -> Call:
        return Call(
            owner,
            "data.get_page",
            (key_for(leaf),),
            request_bytes=_GET_PAGE_REQ_BYTES,
            allow_error=not last,
        )

    payloads = yield from gather_with_failover(
        leaves, routes_for, call_for, tolerate_exhaust=locate_fallback
    )
    if not locate_fallback:
        return payloads
    missing = [i for i, p in enumerate(payloads) if isinstance(p, RemoteError)]
    if not missing:
        return payloads
    keys = [key_for(leaves[i]) for i in missing]
    (located,) = yield Batch([Call(ADDR_PM, "pm.locate", (keys,))])
    retry: list[tuple[int, tuple[int, ...]]] = []
    for i, holders in zip(missing, located):
        if not holders:
            # the pm never moved it: the original loss is the real story
            raise payloads[i].unwrap()
        retry.append((i, holders))

    def retry_routes(item: tuple[int, tuple[int, ...]]) -> tuple[Address, ...]:
        return tuple(data_addr(p) for p in item[1])

    def retry_call(item: tuple[int, tuple[int, ...]], owner: Address, last: bool) -> Call:
        return Call(
            owner,
            "data.get_page",
            (key_for(leaves[item[0]]),),
            request_bytes=_GET_PAGE_REQ_BYTES,
            allow_error=not last,
        )

    fetched = yield from gather_with_failover(retry, retry_routes, retry_call)
    for (i, _holders), payload in zip(retry, fetched):
        payloads[i] = payload
    return payloads


# ---------------------------------------------------------------------------
# payload helpers (used by clients and benches)
# ---------------------------------------------------------------------------


def split_pages(data: bytes, pagesize: int) -> list[PagePayload]:
    """Cut a page-aligned buffer into real page payloads.

    Zero-copy: each payload holds a ``memoryview`` slice of ``data`` (pages
    are immutable downstream, so no per-page materialization is needed)."""
    if len(data) % pagesize:
        raise ValueError(
            f"buffer of {len(data)} B is not a whole number of {pagesize} B pages"
        )
    if len(data) == pagesize and type(data) is bytes:
        # single whole page: store the caller's bytes object itself, which
        # lets a full-page READ later alias it end to end with zero copies
        return [PagePayload.real(data)]
    view = memoryview(data)
    return [
        PagePayload.real(view[i : i + pagesize])
        for i in range(0, len(data), pagesize)
    ]


def virtual_pages(size: int, pagesize: int) -> list[PagePayload]:
    """Virtual payloads covering ``size`` bytes (simulation benches)."""
    if size % pagesize:
        raise ValueError(f"{size} B is not a whole number of {pagesize} B pages")
    return [PagePayload.virtual(pagesize) for _ in range(size // pagesize)]


_uid_counter = itertools.count(1)


def fresh_write_uid(owner: str) -> str:
    """Process-unique write id: ``owner`` scopes it to a logical client."""
    return f"{owner}#{next(_uid_counter)}"


@estimate_size.register
def _(obj: WriteTicket) -> int:
    return 64 + 24 * len(obj.border_refs)
