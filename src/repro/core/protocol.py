"""Sans-io READ / WRITE / ALLOC protocols (paper §III.B).

These generators are the client algorithms of the paper, expressed once and
executed by any driver (in-process, threaded, simulated). The interaction
structure mirrors paper Figure 1 exactly:

WRITE: provider manager (allocation) → data providers (pages, parallel) →
version manager (version + border refs: the only serialization) → metadata
providers (nodes, one parallel batch: ``router.store_nodes`` sends each
owner its co-located nodes in one ``meta.put_nodes``, the nodes above the
router's cut one by one) → version manager (success report). Once the
report returns, a client that keeps a metadata cache inserts the nodes it
wove: they are the immutable nodes the providers now hold, so its own
READs of that version find them there.

READ: version manager (latest/validation, the only centralized touch — which
also names, from its patch history, the version whose tree holds the root of
each co-located region the request touches) → metadata providers (one
subtree batch from those region roots; when the vm cannot say, or is not
asked, the descent starts at the blob root: one parallel batch of
``meta.get_node`` per level above the cut, then the subtree batch — with
``subtree_bytes = 0`` nothing is below the cut and this is the paper's one
batch per level) → data providers (pages, parallel). Three round trips at
any depth. A READ whose client keeps a metadata cache resolves each key
from that cache first — it holds what the client's earlier READs received
and what its completed WRITEs wove, so a read-your-write skips the metadata
providers — and asks each missing co-located key for its subtree
(``meta.get_subtree``), caching every node; one without a cache asks for
the leaves only (``meta.get_leaves``: the same walk on the provider, only
the leaves shipped), which go straight to the page fetch.

Replica fail-over: with ``replication > 1`` every fetch tries the primary
owner and falls back to successive replicas on failure; the final attempt
raises normally so genuine losses surface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Any, Generator, Sequence

from repro.errors import RemoteError
from repro.metadata.build import plan_write_tree
from repro.metadata.cache import MetadataCache
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.router import StaticRouter, fetch_nodes, store_nodes
from repro.metadata.tree import TreeGeometry
from repro.net.message import estimate_size
from repro.net.sansio import Address, Batch, Call, Compute, Op, gather_with_failover
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


#: each record's slot setters, in field order: built through them, as
#: ``metadata/node.py::_restore_node`` builds a TreeNode, a record skips the
#: frozen ``__init__``'s per-field ``object.__setattr__`` by name
_WRITE_SLOTS = tuple(WriteResult.__dict__[f.name].__set__ for f in fields(WriteResult))
_READ_SLOTS = tuple(ReadResult.__dict__[f.name].__set__ for f in fields(ReadResult))


def _write_result(blob_id, version, latest_published, offset, size,
                  pages_written, nodes_written) -> WriteResult:
    result = object.__new__(WriteResult)
    s0, s1, s2, s3, s4, s5, s6 = _WRITE_SLOTS
    s0(result, blob_id)
    s1(result, version)
    s2(result, latest_published)
    s3(result, offset)
    s4(result, size)
    s5(result, pages_written)
    s6(result, nodes_written)
    return result


def _read_result(blob_id, version, latest, offset, size, data,
                 nodes_fetched, cache_hits, pages_fetched, zero_bytes) -> ReadResult:
    result = object.__new__(ReadResult)
    s0, s1, s2, s3, s4, s5, s6, s7, s8, s9 = _READ_SLOTS
    s0(result, blob_id)
    s1(result, version)
    s2(result, latest)
    s3(result, offset)
    s4(result, size)
    s5(result, data)
    s6(result, nodes_fetched)
    s7(result, cache_hits)
    s8(result, pages_fetched)
    s9(result, zero_bytes)
    return result


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
    cache: MetadataCache | None = None,
) -> Proto:
    """The WRITE of paper §III.B; returns a :class:`WriteResult`.

    Step 1 names the fresh pages (``write_uid``, first page, count) and
    the pm places them by its own strategy (``pm.get_providers``).

    Once ``vm.complete`` has returned, the nodes this WRITE built go into
    ``cache`` in one bulk insert; a WRITE any of whose batches raised
    leaves it untouched. Providers are write-once per key (a conflicting
    put raises), so every node a completed WRITE caches is the one stored.

    Its phases are its batches, so a traced WRITE's spans time them:
    Figure 3(b) plots building + storing the metadata, from the end of the
    ``vm`` rpc span of ``vm.assign`` (the op's first ``vm`` span) to the
    end of its last ``meta/*`` rpc span.
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

    # 1. ask the provider manager where the fresh pages should live
    (groups,) = yield Batch(
        [Call(ADDR_PM, "pm.get_providers", (blob_id, write_uid, first_page, npages))]
    )

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

    # 3. the only serialization point: get a version number + border refs
    (ticket,) = yield Batch([Call(ADDR_VM, "vm.assign", (blob_id, offset, size))])
    assert isinstance(ticket, WriteTicket)

    # 4. weave and publish the metadata subtree — in complete isolation
    nodes = plan_write_tree(
        geom, blob_id, ticket.version, patch, ticket.refs_as_dict(), groups, write_uid
    )
    yield Compute("client.build_node", len(nodes))
    yield from store_nodes(router, nodes)

    # 5. report success; the VM publishes versions in order
    (latest,) = yield Batch([Call(ADDR_VM, "vm.complete", (blob_id, ticket.version))])
    if cache is not None:
        cache.put_many(nodes)
    return _write_result(
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
) -> Proto:
    """The READ of paper §III.B; returns a :class:`ReadResult`.

    One descent loop: from the roots of the co-located regions the request
    touches when the vm names them (``vm.resolve_read`` with ``regions``,
    see :meth:`StaticRouter.regions_worth_asking`), from the blob root
    otherwise. ``nodes_fetched`` counts every node received either way; a
    READ that starts below the cut receives, and caches, nothing above it,
    and one with no ``cache`` receives only the leaves below the cut.

    Pages fall back to the pm's relocation table: when every provider a
    tree node records fails (a rebalance moved the page after the node was
    published), the client asks the pm where those pages went
    (``pm.locate``) and fetches from the current holders. Zero extra RPCs
    while pages are where their metadata says; a page the pm never moved
    raises its own error after that one round trip.

    ``with_data=False`` runs the full metadata + page protocol but skips
    byte assembly (simulation benches; virtual payloads).

    ``out`` is an optional caller-supplied writable buffer (``bytearray``
    or writable ``memoryview``) of at least ``size`` bytes: provider pages
    are scattered straight into it via memoryview slices — zero
    intermediate copies — and ``ReadResult.data`` is a view over ``out``
    trimmed to ``size``.

    Its phases are its batches, so a traced READ's spans time them:
    Figure 3(a) plots the complete tree descent, from the end of the
    ``vm`` rpc span of ``vm.resolve_read`` to the end of the last
    ``meta/*`` rpc span.
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

    # 1. the only centralized interaction: resolve/validate the version —
    # and learn, when the vm can say, which version's tree holds the root
    # of each co-located region the request touches
    regions = router.regions_worth_asking(geom, offset, size)
    (resolved,) = yield Batch([Call(
        ADDR_VM,
        "vm.resolve_read",
        (blob_id, version, regions) if regions else (blob_id, version),
    )])
    effective, latest = resolved[:2]
    if effective == 0:
        # Version 0 is the implicit all-zero string: nothing to fetch.
        if dst is not None:
            _zero_range(dst, 0, size)
            data = dst
        else:
            data = bytes(size) if with_data else None
        return _read_result(
            blob_id, 0, latest, offset, size, data,
            nodes_fetched=0, cache_hits=0, pages_fetched=0, zero_bytes=size,
        )

    # 2. descend the segment tree on the keys' ints, from the region roots
    # the vm named or else from the blob root: a key is resolved from the
    # nodes this READ already received (a subtree reply carries the levels
    # below its key), the client cache, else one parallel batch per level;
    # a child key is minted only when it meets the request and is not 0
    nodes_fetched = 0
    cache_hits = 0
    zero_bytes = 0
    leaves: list[TreeNode] = []
    known: dict[NodeKey, TreeNode] = {}
    req_end = offset + size
    roots = resolved[2] if regions else None
    if roots is None:
        regions, roots = ((0, geom.total_size),), (effective,)
    level: list[NodeKey] = []
    for (lo, span), label in zip(regions, roots):
        if label:
            level.append(tuple.__new__(NodeKey, (blob_id, label, lo, span)))
        else:  # untouched since the initial all-zero string
            zero_bytes += min(lo + span, req_end) - max(lo, offset)
    while level:
        if cache is None and router.colocated(level[0]):
            # nothing keeps the inner nodes: the owners of this level's
            # co-located keys reply with the leaves their walk reaches, in
            # ascending offset order; what those leaves leave uncovered of
            # each key's part of the request is the zero string
            fetched = yield from fetch_nodes(router, level, req, leaves_only=True)
            nodes_fetched += len(fetched)
            leaves.extend(fetched)
            for _, _, lo, span in level:
                zero_bytes += min(lo + span, req_end) - max(lo, offset)
            for leaf in fetched:
                _, _, lo, span = leaf.key
                zero_bytes -= min(lo + span, req_end) - max(lo, offset)
            break
        to_fetch: list[NodeKey] = []
        for key in level:
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
        below: list[NodeKey] = []
        for key in level:
            node = known[key]
            left = node.left_version
            if left is None:
                leaves.append(node)
                continue
            _, _, lo, span = key
            half = span >> 1
            mid = lo + half
            if lo < req_end and offset < mid:
                if left:
                    below.append(tuple.__new__(NodeKey, (blob_id, left, lo, half)))
                else:
                    zero_bytes += min(mid, req_end) - max(lo, offset)
            if mid < req_end and offset < mid + half:
                right = node.right_version
                if right:
                    below.append(tuple.__new__(NodeKey, (blob_id, right, mid, half)))
                else:
                    zero_bytes += min(mid + half, req_end) - max(mid, offset)
        level = below

    # 3. fetch the pages referenced by the leaves, in parallel
    payloads = yield from _gather_pages(geom, leaves)
    if leaves:
        yield Compute("client.touch_page", len(leaves))

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
    return _read_result(
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
        _, _, lo, span = leaf.key
        src_lo = max(0, req_offset - lo)
        src_hi = min(span, req_end - lo)
        if src_hi <= src_lo:
            continue
        dst_lo = lo + src_lo - req_offset
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
        _, _, offset, span = leaf.key
        lo = max(offset, req_offset) - req_offset
        hi = min(offset + span, req_end) - req_offset
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
        _, _, offset, span = leaf.key
        if payload.data is None or not offset <= cursor < offset + span:
            return None
        lo = cursor - offset
        hi = min(span, req.end - offset)
        whole = lo == 0 and hi == span
        pieces.append(payload.data if whole else payload.view()[lo:hi])
        cursor = offset + hi
    if cursor != req.end:
        return None
    if len(pieces) == 1 and type(pieces[0]) is bytes:
        return pieces[0]
    return b"".join(pieces)


# ---------------------------------------------------------------------------
# replica fail-over helpers
# ---------------------------------------------------------------------------


def _gather_pages(geom: TreeGeometry, leaves: list[TreeNode]) -> Proto:
    """Fetch page payloads for leaves, falling back across page replicas.

    Exhausting a leaf's recorded providers is not final: the pm's
    relocation table is consulted once, in one batch for all
    still-missing pages, and the fetch retried against the current
    holders (the elastic-membership read path)."""

    pagesize = geom.pagesize

    # one item per page: (page key, the providers holding it)
    def routes_for(item: tuple[PageKey, tuple[int, ...]]) -> tuple[Address, ...]:
        return tuple(data_addr(p) for p in item[1])

    def call_for(item: tuple[PageKey, tuple[int, ...]], owner: Address, last: bool) -> Call:
        return Call(
            owner,
            "data.get_page",
            (item[0],),
            request_bytes=_GET_PAGE_REQ_BYTES,
            allow_error=not last,
        )

    items = [
        (PageKey(leaf.key.blob_id, leaf.write_uid, leaf.key.offset // pagesize),
         leaf.providers)
        for leaf in leaves
    ]
    payloads = yield from gather_with_failover(
        items, routes_for, call_for, tolerate_exhaust=True
    )
    missing = [i for i, p in enumerate(payloads) if isinstance(p, RemoteError)]
    if not missing:
        return payloads
    keys = [items[i][0] for i in missing]
    (located,) = yield Batch([Call(ADDR_PM, "pm.locate", (keys,))])
    for i, holders in zip(missing, located):
        if not holders:
            # the pm never moved it: the original loss is the real story
            raise payloads[i].unwrap()
    fetched = yield from gather_with_failover(
        list(zip(keys, located)), routes_for, call_for
    )
    for i, payload in zip(missing, fetched):
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
