"""Wire codec: frame round-trips for everything that crosses a process
boundary, streaming reassembly, and corruption handling.

The requirement pinned here: memoryview-backed (zero-copy) page payloads
must round-trip the codec bit-identically — the socket drivers are only
correct if the wire preserves exactly the bytes the inproc and threaded
drivers carry as views.
"""

from __future__ import annotations

import pickle
import socket

import pytest

from repro.errors import (
    PageMissing,
    RemoteError,
    ReproError,
    VersionNotPublished,
)
from repro.metadata.node import NodeKey, TreeNode
from repro.net.codec import (
    BULK_BYTES,
    MESSAGE_HEADER_BYTES,
    MessageDecoder,
    WireCodecError,
    decode_body,
    encode_message,
    encode_parts,
    send_parts,
)
from repro.providers.page import PageKey, PagePayload, page_checksum
from repro.version.manager import WriteTicket


def roundtrip(obj):
    return decode_body(encode_message(1, obj)[MESSAGE_HEADER_BYTES:])


def feed(decoder: MessageDecoder, data: bytes, step: int | None = None):
    """Land ``data`` in the decoder's own buffers, at most ``step`` bytes
    at a time (what ``recv_into(decoder.get_buffer())`` does)."""
    out = []
    view = memoryview(data)
    while view.nbytes:
        buf = decoder.get_buffer()
        n = min(view.nbytes, buf.nbytes, step or view.nbytes)
        buf[:n] = view[:n]
        view = view[n:]
        out.extend(decoder.buffer_updated(n))
    return out


# ---------------------------------------------------------------------------
# payload round-trips (real and viewed payloads, bit-identical)
# ---------------------------------------------------------------------------


def test_real_bytes_payload_roundtrips_bit_identical():
    payload = PagePayload.real(bytes(range(256)) * 16)
    back = roundtrip(payload)
    assert back.nbytes == payload.nbytes
    assert back.as_bytes() == payload.as_bytes()
    assert not back.is_virtual


def test_memoryview_backed_payload_roundtrips_bit_identical():
    # the zero-copy path: split_pages carries views over the caller's
    # buffer. A bulk page travels out of band and comes back as a
    # read-only view into the received message, never as a pickle copy;
    # a small one stays in the pickle and comes back as bytes.
    buf = bytes(range(256)) * 256
    for size in (4096, BULK_BYTES):
        view = memoryview(buf)[4096 : 4096 + size]
        payload = PagePayload.real(view)
        assert type(payload.data) is memoryview  # premise: really a view
        body = encode_message(1, payload)[MESSAGE_HEADER_BYTES:]
        back = decode_body(body)
        if size < BULK_BYTES:
            assert type(back.data) is bytes
        else:
            assert type(back.data) is memoryview and back.data.obj is body
        assert back.view().readonly
        with pytest.raises(TypeError):
            back.view()[0] = 0
        assert back.as_bytes() == bytes(view)
        assert page_checksum(back) == page_checksum(payload)


def test_virtual_payload_travels_as_count_only():
    back = roundtrip(PagePayload.virtual(1 << 20))
    assert back.is_virtual
    assert back.nbytes == 1 << 20
    # a virtual terabyte page must not cost a terabyte frame
    assert len(encode_message(1, PagePayload.virtual(1 << 40))) < 256


@pytest.mark.parametrize("protocol", [2, 4, 5])
def test_in_band_pickle_of_payloads_loads_bytes_backed(protocol):
    # __reduce_ex__ serves any pickler, not just the codec: the journal
    # and mp.Pipe pickle without a buffer_callback, and
    # what they load back must be plain bytes-backed payloads
    for payload in (
        PagePayload.real(memoryview(b"z" * 128)),
        PagePayload.real(b"y" * 128),
        PagePayload.real(memoryview(b"w" * BULK_BYTES)),
        roundtrip(PagePayload.real(b"x" * BULK_BYTES)),  # a wire-built view
    ):
        back = pickle.loads(pickle.dumps(payload, protocol=protocol))
        assert type(back.data) is bytes
        assert back == PagePayload.real(payload.as_bytes())
    assert pickle.loads(
        pickle.dumps(PagePayload.virtual(9), protocol=protocol)
    ).is_virtual


def test_strided_view_is_snapshotted_so_it_can_travel():
    payload = PagePayload.real(memoryview(bytes(range(200)))[::2])
    assert type(payload.data) is bytes
    assert roundtrip(payload).as_bytes() == bytes(range(0, 200, 2))


def test_frames_without_buffers_keep_the_historical_layout():
    # [len u32][req_id u64][pickle]: byte-for-byte what it always was
    obj = ("rpc", [("meta.get_node", (NodeKey("b", 1, 0, 4096),))])
    body = pickle.dumps(obj, protocol=5)
    assert encode_message(7, obj) == (
        (8 + len(body)).to_bytes(4, "big") + (7).to_bytes(8, "big") + body
    )


def test_bulk_message_parts_are_the_page_views_themselves():
    pages = [bytes([i]) * BULK_BYTES for i in range(3)]
    obj = [PagePayload.real(memoryview(p)) for p in pages]
    parts = encode_parts(3, obj)
    assert len(parts) == 2 + len(pages)  # header+table, pickle, views
    for part, page in zip(parts[2:], pages):
        assert type(part) is memoryview and part == page  # views, not copies
    assert len(parts[1]) < 256  # page bytes never entered the pickle
    assert b"".join(parts) == encode_message(3, obj)
    back = decode_body(encode_message(3, obj)[MESSAGE_HEADER_BYTES:])
    assert [p.as_bytes() for p in back] == pages
    # a small page stays inside the pickle: one bytes, no buffer table
    (small,) = encode_parts(3, [PagePayload.real(memoryview(b"q" * 100))])
    assert small[MESSAGE_HEADER_BYTES] == 0x80


# ---------------------------------------------------------------------------
# metadata / control value round-trips
# ---------------------------------------------------------------------------


def test_tree_nodes_and_keys_roundtrip():
    leaf = TreeNode(
        NodeKey("blob-1", 4, 0, 4096), providers=(2, 5), write_uid="c1#9"
    )
    internal = TreeNode(
        NodeKey("blob-1", 4, 0, 8192), left_version=4, right_version=2
    )
    assert roundtrip(leaf) == leaf
    assert roundtrip(internal) == internal
    assert roundtrip(PageKey("b", "w", 7)) == PageKey("b", "w", 7)


def test_write_ticket_roundtrips():
    ticket = WriteTicket(
        blob_id="blob-2", version=9, border_refs=(((0, 4096), 3), ((8192, 4096), 7))
    )
    assert roundtrip(ticket) == ticket


def test_batched_rpc_shapes_roundtrip():
    frame = (
        17,
        "rpc",
        [
            ("data.put_page", (PageKey("b", "w", 0), PagePayload.real(b"x" * 64))),
            ("data.get_page", (PageKey("b", "w", 1),)),
        ],
    )
    req_id, kind, calls = roundtrip(frame)
    assert (req_id, kind) == (17, "rpc")
    assert calls[0][1][1].as_bytes() == b"x" * 64


# ---------------------------------------------------------------------------
# error round-trips
# ---------------------------------------------------------------------------


def test_semantic_error_survives_typed():
    err = RemoteError.wrap(VersionNotPublished("blob-3", 9, 4))
    back = roundtrip(err)
    assert isinstance(back, RemoteError)
    unwrapped = back.unwrap()
    assert isinstance(unwrapped, VersionNotPublished)
    assert (unwrapped.blob_id, unwrapped.requested, unwrapped.latest) == (
        "blob-3", 9, 4,
    )


def test_page_missing_survives_typed():
    back = roundtrip(RemoteError.wrap(PageMissing("no page")))
    assert isinstance(back.unwrap(), PageMissing)


def test_unpicklable_original_is_dropped_not_fatal():
    class Weird(Exception):
        def __init__(self):
            super().__init__("weird")
            self.payload = lambda: None  # unpicklable attribute

    err = RemoteError.wrap(Weird())
    back = roundtrip(err)
    assert isinstance(back, RemoteError)
    assert back.original is None
    assert back.error_type == "Weird"
    assert back.unwrap() is back  # non-semantic stays wrapped


# ---------------------------------------------------------------------------
# framing: self-delimiting streams, corruption
# ---------------------------------------------------------------------------


def canon(obj):
    """Decoded values in comparable form (payloads by their bytes)."""
    if isinstance(obj, PagePayload):
        return ("page", obj.nbytes, None if obj.is_virtual else obj.as_bytes())
    if type(obj) in (list, tuple):
        return type(obj)(canon(item) for item in obj)
    return obj


def test_decoder_reassembles_across_chunk_boundaries():
    objs = [PagePayload.real(b"a" * 1000), ("ctl", 1), list(range(50))]
    stream = b"".join(encode_message(i, o) for i, o in enumerate(objs))
    decoder = MessageDecoder()
    out = feed(decoder, stream, step=7)  # adversarial 7-byte chunks
    assert [rid for rid, _ in out] == [0, 1, 2]
    assert [canon(decode_body(body)) for _, body in out] == canon(objs)
    assert decoder.pending_bytes == 0


def test_messages_stream_over_a_real_socket():
    # the length prefix makes messages self-delimiting on a raw byte
    # stream; bulk ones leave as a sendmsg vector and land, past the
    # header, straight in a buffer of their own
    left, right = socket.socketpair()
    try:
        sent = [
            ("rpc", [("data.get_page", (PageKey("b", "w", i),))])
            for i in range(20)
        ]
        sent.append([PagePayload.real(bytes([7]) * (4 * BULK_BYTES))])
        for i, obj in enumerate(sent):
            send_parts(left, encode_parts(i, obj))
        decoder = MessageDecoder()
        received = []
        while len(received) < len(sent):
            n = right.recv_into(decoder.get_buffer()[:64])
            received.extend(decoder.buffer_updated(n))
        assert [rid for rid, _ in received] == list(range(len(sent)))
        assert [canon(decode_body(b)) for _, b in received] == canon(sent)
        bulk = received[-1][1]
        assert type(bulk) is memoryview and bulk.nbytes > 4 * BULK_BYTES
    finally:
        left.close()
        right.close()


def test_send_parts_resumes_partial_sends_and_splits_long_vectors():
    # more parts than one sendmsg takes, more bytes than the socket
    # buffers: the receiver must still see exactly the joined message
    left, right = socket.socketpair()
    try:
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        pages = [bytes([i % 251]) * BULK_BYTES for i in range(700)]
        parts = encode_parts(9, [PagePayload.real(p) for p in pages])
        assert len(parts) == 702
        expected = b"".join(parts)
        got = bytearray()

        def drain() -> None:
            while len(got) < len(expected):
                chunk = right.recv(3001)
                if not chunk:
                    return
                got.extend(chunk)

        import threading

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        send_parts(left, parts)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert bytes(got) == expected
    finally:
        left.close()
        right.close()


def test_message_layer_routes_by_header_without_decoding():
    # the RPC channel: req_id lives outside the pickle body, so a router
    # can dispatch replies without paying the unpickle
    payloads = {
        7: ("rpc", [("data.get_page", (PageKey("b", "w", 1),))]),
        1 << 40: [PagePayload.real(b"y" * 500)],  # u64 ids supported
    }
    stream = b"".join(encode_message(i, obj) for i, obj in payloads.items())
    decoder = MessageDecoder()
    seen = {}
    for req_id, body in feed(decoder, stream, step=11):  # adversarial chunking
        assert isinstance(body, bytes)  # still encoded at routing time
        seen[req_id] = decode_body(body)
    assert set(seen) == set(payloads)
    assert seen[7] == payloads[7]
    assert seen[1 << 40][0].as_bytes() == b"y" * 500
    assert decoder.pending_bytes == 0


def test_message_decoder_streams_over_real_tcp_with_byte_dribble():
    """The TCP transport's premise, proven adversarially: RPC messages
    reassemble from a *real* TCP connection (loopback listener + dialed
    socket, not a socketpair) even when the bytes arrive one at a time —
    every chunk boundary crosses the 12-byte header, including the
    header/body seam, which a socketpair test with large reads never
    exercises."""
    listener = socket.create_server(("127.0.0.1", 0))
    sender = receiver = None
    try:
        sender = socket.create_connection(listener.getsockname(), timeout=10)
        sender.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        receiver, _ = listener.accept()
        receiver.settimeout(10)

        payloads = {
            1: ("rpc", [("data.put_page", (PageKey("b", "w", 0),
                                           PagePayload.real(b"q" * 300)))]),
            2: ("stats", ()),
            1 << 40: [PagePayload.real(bytes(range(256)))],  # u64 req ids
        }
        stream = b"".join(encode_message(i, obj) for i, obj in payloads.items())
        done = []

        def dribble() -> None:
            # one byte per send: TCP may still coalesce, so the receive
            # side independently re-dribbles with one-byte recv_into
            for k in range(len(stream)):
                sender.sendall(stream[k : k + 1])
            done.append(True)

        import threading

        feeder = threading.Thread(target=dribble, daemon=True)
        feeder.start()

        decoder = MessageDecoder()
        seen = {}
        received = 0
        while received < len(stream):
            n = receiver.recv_into(decoder.get_buffer()[:1])
            assert n, "sender closed early"
            received += n
            for req_id, body in decoder.buffer_updated(n):
                assert isinstance(body, bytes)  # still encoded at routing
                seen[req_id] = decode_body(body)
        feeder.join(timeout=10)
        assert done, "dribbling sender stalled"
        assert decoder.pending_bytes == 0
        assert set(seen) == set(payloads)
        assert seen[2] == ("stats", ())
        assert seen[1][1][0][1][1].as_bytes() == b"q" * 300
        assert seen[1 << 40][0].as_bytes() == bytes(range(256))
    finally:
        for sock in (sender, receiver, listener):
            if sock is not None:
                sock.close()


@pytest.mark.parametrize(
    "prefix", [b"\xff\xff\xff\xff", b"\x00\x00\x00\x03", b"\x10\x00\x00\x09"]
)
def test_message_decoder_rejects_corrupt_length(prefix):
    # absurdly large, shorter than its own req-id field, just past the cap
    with pytest.raises(WireCodecError):
        feed(MessageDecoder(), prefix + b"\x00" * 16)


def test_short_prefix_stays_pending_not_an_error():
    decoder = MessageDecoder()
    message = encode_message(5, ("stats", ()))
    assert feed(decoder, message[:7]) == []  # inside the header
    assert decoder.pending_bytes == 7
    assert feed(decoder, message[7:-1]) == []  # one byte short
    assert decoder.pending_bytes == len(message) - 1
    assert feed(decoder, message[-1:]) == [(5, message[MESSAGE_HEADER_BYTES:])]


def test_decode_rejects_truncated_and_garbage():
    good = encode_message(1, [1, 2, 3])[MESSAGE_HEADER_BYTES:]
    for bad in (b"", b"\x00\x01", good[:-2], b"\xff" * len(good),
                good[:1] + b"\xff" * (len(good) - 1)):
        with pytest.raises(WireCodecError):
            decode_body(bad)


def test_encode_rejects_unpicklable_object():
    with pytest.raises(WireCodecError, match="function"):
        encode_message(1, lambda: None)
    with pytest.raises(WireCodecError, match="list"):
        encode_parts(1, [PagePayload.real(b"x" * BULK_BYTES), lambda: None])
    assert issubclass(WireCodecError, ReproError)


# ---------------------------------------------------------------------------
# seeded chunk-boundary and corruption fuzz on the buffer-owning decoder:
# streams mixing small messages, bulk ones (a buffer of their own) and
# out-of-band ones (a buffer table), cut at seeded boundaries — inside
# the 12-byte header, inside the table, one byte before the end — and
# driven through recv_into on a socketpair and the aio BufferedProtocol
# ---------------------------------------------------------------------------


def _fuzz_messages(rng):
    """A seeded mixed bag of realistic messages: ``{req_id: obj}``."""
    messages = {}
    req_id = 1
    for _ in range(rng.randrange(10, 24)):
        shape = rng.randrange(7)
        if shape == 0:
            obj = ("rpc", [("data.stats", ())])
        elif shape == 1:
            obj = ("rpc", [
                ("data.put", (("b", rng.randrange(64), rng.randrange(8)),
                              rng.randbytes(rng.randrange(0, 700))))
            ])
        elif shape == 2:
            obj = ("stats", ())
        elif shape == 3:
            obj = ("rpc", [("meta.get", (rng.randrange(1 << 30),))] * rng.randrange(1, 5))
        elif shape == 4:  # small pages: in band, one bytes
            obj = [
                PagePayload.real(rng.randbytes(rng.randrange(0, 2000)))
                for _ in range(rng.randrange(1, 4))
            ]
        elif shape == 5:  # out of band (mixed with in-band pages): a
            # buffer table, a vector out, a buffer of its own in
            obj = ("rpc", [
                ("data.put_page", (PageKey("b", "w", k), PagePayload.real(
                    rng.randbytes(BULK_BYTES // 2 + rng.randrange(BULK_BYTES)))))
                for k in range(rng.randrange(2, 5))
            ])
        else:  # bulk without a buffer table: one big in-band value
            obj = ("rpc", [("meta.put", (rng.randbytes(
                BULK_BYTES + rng.randrange(BULK_BYTES)),))])
        messages[req_id] = obj
        req_id += rng.choice((1, 1, 1, 7, 1 << 20))  # sparse 64-bit ids too
    return messages


def _cut_chunks(rng, frames, trial):
    """Chunk sizes covering ``frames`` back to back. Trial 0 cuts every
    frame inside its header, inside its buffer table (or first body
    bytes) and one byte before its end; later trials cut at random,
    biased toward tiny slices so header splits stay common."""
    total = sum(len(f) for f in frames)
    if trial == 0:
        cuts, offset = set(), 0
        for frame in frames:
            cuts.update(offset + k for k in (1, 4, 11, 12, 15, 21, len(frame) - 1))
            offset += len(frame)
        edges = sorted(c for c in cuts if 0 < c < total) + [total]
        return [b - a for a, b in zip([0] + edges, edges)]
    sizes, left = [], total
    while left:
        step = min(left, rng.choice((1, 2, 3, 5, 11, rng.randrange(1, 96),
                                     rng.randrange(1, 3 * BULK_BYTES))))
        sizes.append(step)
        left -= step
    return sizes


def _check_delivery(seen, messages):
    assert [rid for rid, _ in seen] == list(messages)
    for req_id, body in seen:
        assert canon(decode_body(body)) == canon(messages[req_id])


@pytest.mark.parametrize("seed", [0, 1, 0xC0DEC])
def test_fuzzed_chunk_boundaries_reassemble_through_recv_into(seed):
    """One encoded stream, received with ``recv_into(get_buffer()[:n])``
    at seeded ``n``: every slicing must deliver exactly the original
    (req_id, body) sequence, bit-identical, wherever the cuts land."""
    import random as random_mod
    import threading

    rng = random_mod.Random(seed)
    messages = _fuzz_messages(rng)
    frames = [encode_message(rid, obj) for rid, obj in messages.items()]
    stream = b"".join(frames)

    # a pure byte-dribble first: every boundary there is
    decoder = MessageDecoder()
    _check_delivery(feed(decoder, stream, step=1), messages)
    assert decoder.pending_bytes == 0

    for trial in range(6):
        left, right = socket.socketpair()
        try:
            right.settimeout(30)
            sender = threading.Thread(
                target=left.sendall, args=(stream,), daemon=True
            )
            sender.start()
            decoder = MessageDecoder()
            seen = []
            for size in _cut_chunks(rng, frames, trial):
                while size:
                    n = right.recv_into(decoder.get_buffer()[:size])
                    assert n, "sender closed early"
                    size -= n
                    seen.extend(decoder.buffer_updated(n))
            sender.join(timeout=30)
            assert decoder.pending_bytes == 0
            _check_delivery(seen, messages)
        finally:
            left.close()
            right.close()


@pytest.mark.parametrize("seed", [3, 0xA10])
def test_fuzzed_chunk_boundaries_reassemble_through_buffered_protocol(seed):
    """The same streams through the aio driver's ``BufferedProtocol`` on a
    real event loop: the transport ``recv_into``s the decoder's buffers."""
    import asyncio
    import random as random_mod

    from repro.net.aio import _WireProtocol

    rng = random_mod.Random(seed)
    messages = _fuzz_messages(rng)
    frames = [encode_message(rid, obj) for rid, obj in messages.items()]
    stream = memoryview(b"".join(frames))

    async def run(trial: int):
        loop = asyncio.get_running_loop()
        left, right = socket.socketpair()
        left.setblocking(False)
        seen = []
        _, proto = await loop.create_connection(
            lambda: _WireProtocol(loop, lambda rid, body: seen.append((rid, body))),
            sock=right,
        )
        try:
            pos = 0
            for size in _cut_chunks(rng, frames, trial):
                await loop.sock_sendall(left, stream[pos : pos + size])
                pos += size
                await asyncio.sleep(0)  # let the reader take this chunk
        finally:
            left.close()
        assert await asyncio.wait_for(proto.lost, 30) == "connection lost"
        return seen

    for trial in range(3):
        _check_delivery(asyncio.run(run(trial)), messages)


@pytest.mark.parametrize("seed", [2, 0xBAD])
def test_fuzzed_length_corruption_rejected_typed(seed):
    """Poison the length word of a random message (absurd, or shorter
    than its own req-id field) and the decoder must raise WireCodecError
    — never a struct error, never a silent resync — after delivering
    every message before it."""
    import random as random_mod

    rng = random_mod.Random(seed)
    messages = _fuzz_messages(rng)
    frames = [encode_message(rid, obj) for rid, obj in messages.items()]
    for _ in range(8):
        victim = rng.randrange(len(frames))
        corrupt = bytearray(b"".join(frames))
        offset = sum(len(f) for f in frames[:victim])
        corrupt[offset : offset + 4] = rng.choice(
            (b"\xff\xff\xff\xff", b"\x00\x00\x00\x00", b"\x00\x00\x00\x07",
             (0x10000009).to_bytes(4, "big"))
        )
        decoder = MessageDecoder()
        delivered = []
        with pytest.raises(WireCodecError):
            view = memoryview(corrupt)
            while view.nbytes:
                step = rng.randrange(1, 2 * BULK_BYTES)
                buf = decoder.get_buffer()
                n = min(step, view.nbytes, buf.nbytes)
                buf[:n] = view[:n]
                view = view[n:]
                delivered.extend(rid for rid, _ in decoder.buffer_updated(n))
        # the decoder fails exactly at the poisoned header, not earlier
        assert delivered == list(messages)[:victim]


@pytest.mark.parametrize("seed", [5, 0xF00])
def test_fuzzed_buffer_table_corruption_rejected_typed(seed):
    """Mutate one field of an out-of-band body's buffer table — the
    count, the pickle length, a buffer size — or truncate the body: the
    layout no longer adds up, and ``decode_body`` must say so as
    WireCodecError, never struct.error / IndexError / a short read."""
    import random as random_mod

    rng = random_mod.Random(seed)
    pages = [
        rng.randbytes(BULK_BYTES + rng.randrange(3000))
        for _ in range(rng.randrange(1, 6))
    ]
    body = encode_message(1, [PagePayload.real(p) for p in pages])[
        MESSAGE_HEADER_BYTES:
    ]
    assert [p.as_bytes() for p in decode_body(body)] == pages  # premise
    n_fields = 2 + len(pages)
    for _ in range(200):
        mutated = bytearray(body)
        kind = rng.randrange(4)
        if kind == 0:  # one table field becomes some other u32
            field = rng.randrange(n_fields)
            old = mutated[4 * field : 4 * field + 4]
            new = old
            while new == old:
                new = rng.choice((
                    rng.randrange(1 << 32), rng.randrange(64), 0xFFFFFFFF, 0,
                )).to_bytes(4, "big")
            mutated[4 * field : 4 * field + 4] = new
        elif kind == 1:  # truncated anywhere, including inside the table
            del mutated[rng.randrange(len(mutated)) :]
        elif kind == 2:  # trailing junk
            mutated += rng.randbytes(rng.randrange(1, 9))
        else:  # the table claims to be a plain pickle
            mutated[0] = 0x80
        with pytest.raises(WireCodecError):
            decode_body(bytes(mutated))
