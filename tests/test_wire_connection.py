"""The client connection core (``net/wire.py::Connection`` and the envelope
helpers), without sockets.

Both client shells — :class:`~repro.net.tcp.TcpPeer` on threads and
:class:`~repro.net.aio.AioPeer` on an event loop — feed this one state
machine, so its rules are pinned here once: req-ids, drain exactly once
per connection, fail fast while down, the redial schedule, and an
envelope encoder that cannot drift from the validator the agent runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RemoteError
from repro.net.codec import encode_message
from repro.net.sansio import Call, WireGroup
from repro.net.wire import (
    BACKOFF_INITIAL,
    BACKOFF_MAX,
    HANDSHAKE_REQ_ID,
    Connection,
    backoff,
    control_result,
    parse_request,
    rpc_envelope,
    why_lost,
)

PEER = "data/0@127.0.0.1:7000"


def up() -> Connection:
    conn = Connection(PEER)
    conn.connected()
    return conn


def test_req_ids_are_unique_across_connections_and_never_the_handshake_id():
    conn = up()
    seen = []
    for _ in range(3):
        seen += [conn.open(("rpc", k)) for k in range(500)]
        conn.lost(why_lost())
        conn.connected()  # a redial: the count carries on
    assert len(set(seen)) == len(seen) == 1500
    assert HANDSHAKE_REQ_ID not in seen


def test_a_connection_drains_once_and_every_waiter_is_released_once():
    """Replies, a timeout and a drain each take their entries out of the
    registry; whatever signals death after the first drains nothing."""
    conn = up()
    ids = [conn.open(("rpc", k)) for k in range(6)]
    ctl = conn.open(("ctl", "box"))
    released: dict[object, int] = {}

    def release(entry):
        released[entry[1]] = released.get(entry[1], 0) + 1

    release(conn.pop(ids[0]))  # a reply
    assert conn.pop(ids[0]) is None  # ...arrives once
    error = conn.timed_out(ctl, "stats", 1.0)
    assert isinstance(error, TimeoutError) and PEER in str(error)
    drained = conn.lost(why_lost())
    for entry in drained:
        release(entry)
    # the racing signals of the same death: EOF, send failure, drop, close
    assert conn.send_failed(OSError("broken pipe")) is None
    assert conn.dropped() is None
    assert conn.stopped(True) is None
    assert conn.pop(ids[1]) is None  # a late reply finds nothing to complete
    assert released == {k: 1 for k in range(6)}
    assert conn.down_reason == f"peer {PEER} connection lost"


@pytest.mark.parametrize(
    "event, args, reason",
    [
        (None, (), f"peer {PEER} never connected"),
        ("dial_failed", (OSError("refused"),), f"peer {PEER} unreachable: refused"),
        ("lost", (why_lost(),), f"peer {PEER} connection lost"),
        ("lost", (why_lost(ValueError("bad length")),),
         f"peer {PEER} sent a corrupt message: bad length"),
        ("send_failed", (OSError(32),), f"send to peer {PEER} failed: OSError(32)"),
        ("dropped", (), "connection dropped (failure injection)"),
        ("stopped", (True,), "peer stopped by driver close"),
        ("stopped", (False,), "peer aborted (driver hang-up)"),
    ],
)
def test_requests_fail_fast_while_down(event, args, reason):
    """Every way down, rpc and control alike: ``open`` raises the typed
    ``PeerUnavailable`` carrying the reason, and registers nothing."""
    conn = Connection(PEER)
    if event is not None:
        if event != "dial_failed":  # a dial fails only while down
            conn.connected()
        getattr(conn, event)(*args)
    assert conn.down_reason == reason
    for entry in (("rpc", "slot"), ("ctl", "box")):
        with pytest.raises(RemoteError) as refused:
            conn.open(entry)
        assert (refused.value.error_type, refused.value.message) == (
            "PeerUnavailable", reason,
        )
    assert conn.dropped() is None  # nothing was registered to drain


def test_backoff_doubles_to_its_cap_and_starts_over_on_connect():
    schedule = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
    assert (BACKOFF_INITIAL, BACKOFF_MAX) == (0.05, 2.0)
    delays = backoff()
    assert [next(delays) for _ in schedule] == schedule
    conn = Connection(PEER)
    assert [conn.dial_failed(OSError()) for _ in schedule] == schedule
    conn.connected()
    conn.lost(why_lost())
    assert [conn.dial_failed(OSError()) for _ in range(3)] == schedule[:3]


def test_control_result_raises_what_a_control_came_back_as():
    def body(value):  # a reply as the receive path hands it over
        return encode_message(1, value)[12:]

    assert control_result(body({"wire_rpcs": 3})) == {"wire_rpcs": 3}
    drained = RemoteError("PeerUnavailable", "gone")
    with pytest.raises(RemoteError) as raised:
        control_result(drained)
    assert raised.value is drained
    with pytest.raises(RemoteError) as raised:
        control_result(body(RemoteError("UnknownControl", "x")))
    assert raised.value.error_type == "UnknownControl"


CONTEXTS = st.one_of(
    st.none(),
    st.tuples(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**32),
    ),
)


@given(st.lists(st.tuples(st.integers(1, 5), CONTEXTS), min_size=1, max_size=8))
def test_every_envelope_the_core_builds_passes_the_agents_validator(shape):
    """1..n groups with any mix of contexts: ``parse_request`` gives back
    the same payload, and the same context (one group) or run list."""
    items = []
    for g, (n_calls, context) in enumerate(shape):
        calls = [Call(("data", g), f"m{g}.{k}", (g, k)) for k in range(n_calls)]
        items.append((WireGroup(("data", g), calls, range(n_calls)), context))
    kind, payload, trace = parse_request(rpc_envelope(items))
    assert kind == "rpc"
    assert payload == [
        (call.method, call.args) for group, _ in items for call in group.calls
    ]
    contexts = [context for _, context in shape]
    if len(items) == 1:
        assert trace == contexts[0]
    elif all(context is None for context in contexts):
        assert trace is None
    else:
        assert trace == [(n_calls, context) for n_calls, context in shape]
