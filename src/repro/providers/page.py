"""Page identity and payloads.

A WRITE stores its pages *before* asking the version manager for a version
number (paper Figure 1), so page identity cannot contain the version.
Instead every write carries a client-generated unique ``write_uid``; a page
is addressed by ``(blob_id, write_uid, page_index)`` and the segment-tree
leaves record the ``write_uid`` + provider, which lets any future version's
READ reconstruct the key. The version label the paper mentions is attached
logically by the leaf that references the page.

Payloads come in two flavours:

- *real*: actual bytes (functional paths: tests, examples, the sky app);
- *virtual*: only a byte count (simulation benches — Figures 3(a-c) measure
  protocol time, not memcpy, and materializing terabytes would be absurd).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import NamedTuple

from repro.net.codec import BULK_BYTES
from repro.net.message import PAGE_KEY_BYTES, estimate_size


class PageKey(NamedTuple):
    """Globally unique page address."""

    blob_id: str
    write_uid: str
    index: int  # page index within the blob (offset // pagesize)


def page_key_for(blob_id: str, write_uid: str, index: int) -> PageKey:
    """The key of page ``index`` of one WRITE; rejects a negative index."""
    if index < 0:
        raise ValueError(f"page index must be >= 0, got {index}")
    return PageKey(blob_id, write_uid, index)


@dataclass(frozen=True, slots=True)
class PagePayload:
    """Contents of one page: real bytes or a virtual placeholder.

    Real contents may be a ``memoryview`` slice of a caller-owned buffer:
    pages are immutable downstream (the provider enforces write-once), so
    splitting a large write into pages never needs to copy — the view is
    carried end to end and only materialized by :meth:`as_bytes`.
    """

    nbytes: int
    data: bytes | memoryview | None = None  # None => virtual

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")
        if self.data is not None and len(self.data) != self.nbytes:
            raise ValueError(
                f"payload length {len(self.data)} != declared nbytes {self.nbytes}"
            )

    @classmethod
    def real(cls, data: bytes | bytearray | memoryview) -> "PagePayload":
        # bytes, and contiguous byte-shaped memoryviews over bytes, are
        # kept as-is (zero-copy). Everything else is snapshotted: a mutable
        # source — bytearray, or any view whose *base* is mutable (a
        # read-only view over a bytearray still aliases it) — would let a
        # caller reusing its buffer rewrite already-published pages behind
        # the provider's back, non-byte-itemsize views would corrupt the
        # length bookkeeping (len() counts elements, not bytes), and a
        # strided view cannot be handed to pickle as a raw buffer.
        if isinstance(data, memoryview):
            if not (
                data.obj.__class__ is bytes
                and data.ndim == 1
                and data.itemsize == 1
                and data.contiguous
            ):
                data = bytes(data)
        elif isinstance(data, bytearray):
            data = bytes(data)
        return cls(nbytes=len(data), data=data)

    @classmethod
    def virtual(cls, nbytes: int) -> "PagePayload":
        return cls(nbytes=nbytes, data=None)

    @property
    def is_virtual(self) -> bool:
        return self.data is None

    def as_bytes(self) -> bytes:
        """Materialize contents (virtual payloads read as zeros)."""
        if self.data is None:
            return bytes(self.nbytes)
        if type(self.data) is memoryview:
            return bytes(self.data)
        return self.data

    def __reduce_ex__(self, protocol: int):
        """Pickle support (the wire codec, the journal, the disk spill).

        Under protocol 5, contents of ``BULK_BYTES`` or more are handed to
        pickle as a ``PickleBuffer``: the wire codec
        (:mod:`repro.net.codec`) pickles with a ``buffer_callback``, so
        those bytes stay out of the pickle stream and travel as a raw
        trailing buffer — the receiver rebuilds the payload as a read-only
        view into its own message. A pickler without a ``buffer_callback``
        serializes the same buffer in band, and it loads back
        ``bytes``-backed, as do smaller pages everywhere (a view is
        snapshotted to ``bytes`` first — it cannot outlive its process).
        Virtual payloads travel as their byte count alone.
        """
        data = self.data
        if data is not None:
            if protocol >= 5 and self.nbytes >= BULK_BYTES:
                data = pickle.PickleBuffer(data)
            elif type(data) is memoryview:
                data = bytes(data)
        return (PagePayload, (self.nbytes, data))

    def view(self) -> memoryview | None:
        """Zero-copy view of real contents (``None`` for virtual pages).

        Safe to hand out: :meth:`real` guarantees a locally built payload
        is backed by immutable ``bytes`` (mutable sources are snapshotted)
        and a payload built from the wire is a read-only view of the
        message it arrived in, which nothing else writes — so a view can
        alias the page without risking mutation, the same write-once
        argument that makes the paper's lock-free reads safe.
        """
        data = self.data
        if data is None:
            return None
        if type(data) is memoryview:
            return data
        return memoryview(data)


_FLETCHER_MASK = (1 << 64) - 1


def page_checksum(payload: PagePayload) -> int | None:
    """Integrity checksum of a page's contents (``None`` for virtual pages).

    A Fletcher-style double-accumulator over 32-bit words (64-bit sums,
    overflow-free for any legal page size): the running second sum makes
    it *position-sensitive* (a plain word-sum cannot tell two swapped
    blocks apart), which is the property storage checksums need against
    misdirected/torn writes.

    Deliberately implemented as a pure-Python loop (no hashlib/zlib, whose
    C kernels release the GIL): integrity mode models the storage-tier CPU
    real providers burn per page — checksumming, compression, encryption —
    *inside the interpreter*. Under the threaded driver that work
    serializes on the shared GIL no matter how many actor threads exist;
    on a tcp deployment it runs on the node agents' cores. The transport-scaling
    benchmark measures exactly that contrast, so this function's cost is a
    feature: it stands in for the per-byte service work of a real storage
    node, in the only place Python makes the GIL effect visible.
    """
    view = payload.view()
    if view is None:
        return None
    nbytes = view.nbytes
    words = nbytes // 4
    s1 = nbytes * 0x9E3779B1
    s2 = 0
    # classical Fletcher granularity: 32-bit words under 64-bit
    # accumulators (no overflow for any page size this system allows)
    for word in view[: words * 4].cast("I"):
        s1 = (s1 + word) & _FLETCHER_MASK
        s2 = (s2 + s1) & _FLETCHER_MASK
    for byte in view[words * 4 :]:
        s1 = (s1 + byte) & _FLETCHER_MASK
        s2 = (s2 + s1) & _FLETCHER_MASK
    return (s2 << 64) | s1


@estimate_size.register
def _(obj: PagePayload) -> int:
    return PAGE_KEY_BYTES + obj.nbytes


@estimate_size.register
def _(obj: PageKey) -> int:
    return PAGE_KEY_BYTES
