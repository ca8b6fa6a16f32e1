"""Pins on the buffer-owning wire path (net/codec.py's ownership rule):

- envelope validation: a well-framed message of the wrong shape, or whose
  body does not unpickle at all, is answered typed and the agent keeps
  serving — the connection and every other call on it survive;
- aliasing and immutability: a page that crossed a socket never shares
  memory with the connection's reusable receive buffer, and can never be
  written through;
- a deterministic allocation budget for a plain READ (tracemalloc, no
  wall clock).
"""

from __future__ import annotations

import pickle
import socket
import struct
import tracemalloc

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.tcp import build_tcp
from repro.errors import RemoteError
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.provider import MetadataProvider
from repro.net import codec
from repro.net.aio import AioDriver
from repro.net.codec import (
    BULK_BYTES,
    MessageDecoder,
    decode_body,
    encode_message,
)
from repro.net.node import NodeAgent
from repro.net.sansio import Batch, Call
from repro.net.threaded import ThreadedDriver
from repro.providers.data_provider import DataProvider
from repro.providers.page import PageKey, PagePayload
from repro.util.sizes import KB, MB
from tests.conftest import forged_leaf

#: what a peer can frame and pickle that is not a request envelope
MALFORMED = [
    5,  # not a tuple
    ("rpc",),  # 1-tuple
    ("rpc", 7),  # payload is not a list
    ("rpc", [("data.stats",)]),  # a call that is not a (method, args) pair
    ("rpc", [(None, ())]),  # method is not a name
    (3, ()),  # kind is not a name
    ("rpc", [], None, None),  # too long
    # one group's trace context that is not (trace_id, span_id, request_bytes)
    ("rpc", [("data.stats", ())], (7,)),
    ("rpc", [("data.stats", ())], "x"),
    ("rpc", [("data.stats", ())], 7),
    ("rpc", [("data.stats", ())], (7, 9)),
    ("rpc", [("data.stats", ())], (7, 9, 11, 13)),
    # run lists (a coalesced frame's trace field) that do not cover the payload
    ("rpc", [("data.stats", ())], [(2, None)]),  # counts do not sum
    ("rpc", [("data.stats", ())], [(1, None), (0, None)]),  # zero count
    ("rpc", [("data.stats", ())], [(2, None), (-1, None)]),  # negative count
    ("rpc", [("data.stats", ())], [(True, None)]),  # count is not an int
    ("rpc", [("data.stats", ())], [[1, None]]),  # run is not a pair
    ("rpc", [("data.stats", ())], [(1, "trace")]),  # bad context type
    ("rpc", [("data.stats", ())], [(1, 7)]),  # bare trace id, no span id
    ("rpc", [("data.stats", ())], [(1, (7,))]),  # context is not (int, int, int)
    ("rpc", [("data.stats", ())], [(1, (7, 9, None))]),
]

#: a well-formed coalesced frame: an untraced run, then two traced ones
RUNS = ("rpc", [("data.stats", ())] * 4, [(2, None), (1, (7, 8, 1)), (1, (7, 9, 1))])


class RawBody(bytes):
    """A message body to frame as it is, instead of pickling an object."""


#: well-framed bodies that do not unpickle: an unknown class, and a request
#: carrying a tree node its constructor refuses
UNDECODABLE = [
    RawBody(b"\x80\x05cnonexistent_module\nNope\n)R."),
    RawBody(encode_message(0, ("rpc", [("meta.put_node", (forged_leaf(),))]))[12:]),
]


def _frame(req_id: int, message: object) -> bytes:
    if isinstance(message, RawBody):
        return struct.pack(">IQ", 8 + len(message), req_id) + message
    return encode_message(req_id, message)


def _exchange(sock: socket.socket, messages: dict[int, object]) -> dict[int, object]:
    """Send every message, then read one decoded reply per request id."""
    sock.settimeout(10)
    sock.sendall(b"".join(_frame(i, m) for i, m in messages.items()))
    decoder = MessageDecoder()
    seen: dict[int, object] = {}
    while len(seen) < len(messages):
        n = sock.recv_into(decoder.get_buffer())
        assert n, "peer closed the connection"
        for req_id, body in decoder.buffer_updated(n):
            seen[req_id] = decode_body(body)
    return seen


def test_agent_answers_malformed_envelopes_typed_and_keeps_serving():
    """Before PR 15 a malformed envelope killed the connection's pump
    thread (or the actor's service thread); before PR 17 an undecodable
    body dropped the whole connection, failing every other call
    multiplexed on it as ``PeerUnavailable``."""
    agent = NodeAgent({("data", 0): DataProvider(0)})
    agent.start()
    sock = socket.create_connection(
        (agent.endpoint.host, agent.endpoint.port), timeout=10
    )
    try:
        messages = {0: ("hello", "data/0")}
        messages.update(enumerate(MALFORMED + UNDECODABLE, start=1))
        messages[98] = RUNS
        messages[99] = ("rpc", [("data.stats", ())])
        seen = _exchange(sock, messages)
        assert seen[0] == ("welcome", "data/0")
        for req_id, message in enumerate(MALFORMED + UNDECODABLE, start=1):
            reply = seen[req_id]
            assert isinstance(reply, RemoteError), (req_id, reply)
            assert reply.error_type == (
                "WireCodecError" if isinstance(message, RawBody)
                else "WireProtocolError"
            )
        # ...and the requests pipelined behind them were served normally
        assert [stats["pages"] for stats in seen[98]] == [0] * 4
        (stats,) = seen[99]
        assert stats["pages"] == 0
        # the actor's service thread survived too: a fresh connection works
        driver = ThreadedDriver()
        try:
            driver.register_remote(("data", 0), agent.endpoint)
            driver.wait_connected(10)
            assert driver.call(("data", 0), "data.stats")["pages"] == 0
        finally:
            driver.abort()
    finally:
        sock.close()
        agent.close()


def test_a_bad_single_group_trace_context_is_answered_typed():
    """A lone group's third field gets the same ``(trace_id, span_id,
    request_bytes)`` check as a run's context: the request is refused typed, and the next
    one on the same connection is served (an unchecked ``(7,)`` used to
    kill the connection's pump with an ``IndexError``, unanswered)."""
    agent = NodeAgent({("data", 0): DataProvider(0)})
    agent.start()
    sock = socket.create_connection(
        (agent.endpoint.host, agent.endpoint.port), timeout=10
    )
    try:
        seen = _exchange(sock, {
            0: ("hello", "data/0"),
            1: ("rpc", [("data.stats", ())], (7,)),
            2: ("rpc", [("data.stats", ())], (7, 9, 11)),
        })
        assert isinstance(seen[1], RemoteError)
        assert seen[1].error_type == "WireProtocolError"
        (stats,) = seen[2]
        assert stats["pages"] == 0
    finally:
        sock.close()
        agent.close()


# -- a reply too large to frame ---------------------------------------------

BIG_PAGE = 40_000


def _big_puts() -> dict[int, object]:
    """Four requests storing one 40 000 B page each."""
    return {
        i: ("rpc", [("data.put_page",
                     (PageKey("blob", "w#1", i), PagePayload.real(_page(i, BIG_PAGE))))])
        for i in range(1, 5)
    }


BIG_GETS = [("data.get_page", (PageKey("blob", "w#1", i),)) for i in range(1, 5)]


def test_agent_answers_an_oversized_reply_typed_and_keeps_serving(monkeypatch):
    """Four stored pages fit a frame each, their one reply does not. At
    the parent commit ``encode_reply`` raised out of the actor's service
    thread: the thread died, the connection stayed up, the caller waited
    for ever."""
    monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 100_000)
    agent = NodeAgent({("data", 0): DataProvider(0)})
    agent.start()
    driver = ThreadedDriver()
    addr = ("data", 0)
    try:
        driver.register_remote(addr, agent.endpoint)
        driver.wait_connected(10)
        for (_method, args) in (m[1][0] for m in _big_puts().values()):
            assert driver.call(addr, "data.put_page", args)

        def proto():
            return (yield Batch(
                [Call(addr, m, a, allow_error=True) for m, a in BIG_GETS]
            ))

        future = driver.spawn(proto())
        results = future.result(timeout=10)
        assert len(results) == 4
        for result in results:  # the typed error, for every sub-call
            assert isinstance(result, RemoteError)
            assert result.error_type == "ReplyTooLarge"
        # same connection, next call: still served
        assert driver.call(addr, "data.get_page", BIG_GETS[0][1]).as_bytes() == _page(
            1, BIG_PAGE
        )
        assert driver.peer_status()[addr] == "connected"
    finally:
        driver.abort()
        agent.close()


def test_agent_answers_malformed_get_subtree_typed_and_keeps_serving():
    """``meta.get_subtree`` takes a key and an interval from the wire: a
    well-formed envelope whose arguments are not a NodeKey / a
    non-negative interval is answered with a typed error (never a
    crashed service thread, never a hang)."""
    provider = MetadataProvider(0)
    leaf = TreeNode(NodeKey("b", 1, 0, 4 * KB), providers=(0,), write_uid="u")
    provider.put_node(leaf)
    agent = NodeAgent({("meta", 0): provider})
    agent.start()
    sock = socket.create_connection(
        (agent.endpoint.host, agent.endpoint.port), timeout=10
    )
    bad_args = [
        ("not-a-key", 0, 4 * KB),
        (("b", 1, 0, 4 * KB), 0, 4 * KB),  # a plain tuple is not a NodeKey
        (leaf.key, -1, 4 * KB),
        (leaf.key, 0, -4 * KB),
        (leaf.key,),  # wrong arity
    ]
    try:
        messages = {0: ("hello", "meta/0")}
        for i, args in enumerate(bad_args, start=1):
            messages[i] = ("rpc", [("meta.get_subtree", args)])
        messages[99] = ("rpc", [("meta.get_subtree", (leaf.key, 0, 4 * KB))])
        seen = _exchange(sock, messages)
        for i in range(1, len(bad_args) + 1):
            (reply,) = seen[i]
            assert isinstance(reply, RemoteError), (i, reply)
            assert reply.error_type in ("ValueError", "TypeError")
        # ...and the well-formed request pipelined behind them was served
        assert seen[99] == [[leaf]]
    finally:
        sock.close()
        agent.close()


@pytest.mark.parametrize("client", ["tcp", "aio"])
def test_callers_see_an_undecodable_request_typed_and_the_connection_survives(client):
    """A request the agent cannot unpickle is that call's typed error on
    the caller — and the same connection serves the next call."""
    provider = MetadataProvider(0)
    agent = NodeAgent({("meta", 0): provider})
    agent.start()
    driver = ThreadedDriver() if client == "tcp" else AioDriver()
    addr = ("meta", 0)
    leaf = TreeNode(NodeKey("b", 1, 0, 4 * KB), providers=(0,), write_uid="u")
    try:
        driver.register_remote(addr, agent.endpoint)
        driver.wait_connected(10)
        for method, args in (
            ("meta.put_node", (forged_leaf(),)),
            ("meta.put_nodes", ([leaf, forged_leaf()],)),
        ):
            with pytest.raises(RemoteError) as refused:
                driver.call(addr, method, args)
            assert refused.value.error_type == "WireCodecError"
            assert "page reference" in refused.value.message
        assert provider.node_count == 0
        assert driver.call(addr, "meta.put_nodes", ([leaf],)) is True
        assert driver.call(addr, "meta.get_node", (leaf.key,)) == leaf
        # never reconnected: one connection served all of it
        assert driver.peer_status()[addr] == "connected"
        report = agent.telemetry()["meta/0"]
        assert (report["wire_rpcs"], report["sub_calls"]) == (2, 2)
    finally:
        driver.abort()
        agent.close()


# ---------------------------------------------------------------------------
# aliasing and immutability
# ---------------------------------------------------------------------------


def _page(tag: int, size: int) -> bytes:
    return bytes((tag + k) % 251 for k in range(size))


@pytest.mark.parametrize("client", ["tcp", "aio"])
@pytest.mark.parametrize(
    "size", [4 * KB, 64 * KB], ids=["via-connection-buffer", "own-buffer"]
)
def test_pages_never_alias_the_connection_buffer(client, size):
    """Put a page, push enough further frames down the *same* connection
    to recycle its receive buffer several times over (both directions),
    then read the page back bit-identical — from the provider's store,
    from a payload the client fetched before the churn, and afresh."""
    assert (size < BULK_BYTES) == (size == 4 * KB)  # premise: both paths
    provider = DataProvider(0)
    agent = NodeAgent({("data", 0): provider})
    agent.start()
    driver = ThreadedDriver() if client == "tcp" else AioDriver()
    addr = ("data", 0)
    try:
        driver.register_remote(addr, agent.endpoint)
        driver.wait_connected(10)
        key = PageKey("blob", "w#1", 0)
        original = _page(1, size)
        assert driver.call(addr, "data.put_page", (key, PagePayload.real(original)))
        fetched_early = driver.call(addr, "data.get_page", (key,))

        churn = max(8, 6 * BULK_BYTES // size)
        for i in range(1, churn + 1):
            other = PageKey("blob", "w#1", i)
            noise = PagePayload.real(_page(100 + i, size))
            assert driver.call(addr, "data.put_page", (other, noise))
            assert driver.call(addr, "data.get_page", (other,)).as_bytes() == _page(
                100 + i, size
            )
            driver.call(addr, "data.stats")  # small frames in between

        stored = provider._pages[key]
        assert stored.as_bytes() == original
        assert fetched_early.as_bytes() == original
        assert driver.call(addr, "data.get_page", (key,)).as_bytes() == original

        # immutable on both sides of the wire
        for payload in (stored, fetched_early):
            view = payload.view()
            assert view.readonly
            with pytest.raises(TypeError):
                view[0] = 0xFF
        # the in-band form (the journal) is plain bytes-backed
        for payload in (stored, fetched_early):
            back = pickle.loads(pickle.dumps(payload, protocol=5))
            assert type(back.data) is bytes and back.data == original
        # a stored page pins its own bytes, not the batch it arrived in
        if size >= BULK_BYTES:
            assert type(stored.data) is bytes
    finally:
        driver.abort()
        agent.close()


# ---------------------------------------------------------------------------
# allocation budget
# ---------------------------------------------------------------------------


def test_plain_read_allocation_budget():
    """One 1 MiB plain READ (64 KiB pages over 4 storage agents, run as OS
    processes so only the *client* is traced) may allocate, at its peak,
    at most 2.5x the request: the four reply buffers the pages land in
    plus the joined result, and small change.

    Measured with tracemalloc (deterministic; no wall clock): 2.01x here;
    9.01x at the parent commit — per reply a 1 MiB ``recv`` chunk, the
    decoder's regrown bytearray, the copied-out body and the unpickled
    pages, then ``bytearray(size)`` -> ``bytes(buf)`` for the result.
    """
    size = 1 * MB
    dep = build_tcp(DeploymentSpec(n_data=4, n_meta=4))
    try:
        client = dep.client("budget")
        blob = client.alloc(16 * MB, 64 * KB)
        client.write(blob, _page(7, size), 0)
        assert client.read_bytes(blob, 0, size) == _page(7, size)  # warm
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            data = client.read_bytes(blob, 0, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data == _page(7, size)
        assert (peak - base) / size <= 2.5, f"{(peak - base) / size:.2f}x"
    finally:
        dep.close()
