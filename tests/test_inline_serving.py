"""Pins on where RPCs run: no hand-off thread on either side of a wire.

A node agent serves each request on the pump thread of the connection it
arrived on, under the hosted actor's lock; a :class:`TcpPeer` caller
sends its own frame under the peer's send lock. These tests pin what that
must keep:

- **confinement**: an actor is never entered while a call is already
  inside it, however many connections feed it, and every call gets its
  own answer;
- **whole frames**: callers sharing one peer never interleave their
  frames — 256 KiB pages read back byte-exact;
- **isolation**: an actor wedged in a call stalls only itself, and
  controls and ``stop`` still time out behind a send it blocked;
- **queue wait**: a request's ``queue_ns`` includes the requests served
  ahead of it from the same read;
- **the thread inventory**: no client ``send-*`` thread, no per-actor
  agent service thread;
- **in-parent actors**: the blocking driver serves an in-parent group on
  the caller's own thread, after the batch's remote groups are sent, and
  starts no ``actor-*`` thread; aio keeps one service thread per actor,
  whose completions cross back to the loop; either way a batch wakes its
  caller at most once.

The stress tests shrink the interpreter's switch interval so threads
interleave as often as they can, and every wait carries a timeout.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.config import DeploymentSpec
from repro.metadata.provider import MetadataProvider
from repro.net.codec import MessageDecoder, encode_message
from repro.net.node import NodeAgent, connect_and_handshake
from repro.net.sansio import Batch, Call, WireGroup
from repro.net.threaded import ThreadedDriver
from repro.net.wire import force_close, rpc_envelope
from repro.providers.data_provider import DataProvider
from repro.providers.page import PageKey, PagePayload
from repro.util.sizes import KB
from repro.version.manager import VersionManager
from tests.conftest import BUILDERS

JOIN_TIMEOUT = 60.0
ADDR = ("data", 0)


def _run_threads(target, n: int) -> None:
    """Run ``target(i)`` on ``n`` threads with the shortest switch
    interval; fails if one does not finish in time."""
    switch = sys.getswitchinterval()
    threads = [threading.Thread(target=target, args=(i,), daemon=True) for i in range(n)]
    try:
        sys.setswitchinterval(1e-6)
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + JOIN_TIMEOUT
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads), "a caller hung"


class _ReentryProbe:
    """An actor that records whether a call ever starts while another one
    is still inside it."""

    def __init__(self) -> None:
        self._inside = threading.Lock()
        self.reentered = False
        self.calls = 0

    def handle(self, method: str, args: tuple):
        if not self._inside.acquire(blocking=False):
            self.reentered = True
            return args
        try:
            self.calls += 1
            time.sleep(0.0002)  # stay inside while other callers arrive
            return args
        finally:
            self._inside.release()


def test_an_agent_actor_is_never_reentered_by_concurrent_drivers():
    probe = _ReentryProbe()
    agent = NodeAgent({ADDR: probe})
    agent.start()
    drivers = [ThreadedDriver() for _ in range(8)]
    wrong: list[tuple] = []
    rounds = 40
    try:
        for driver in drivers:
            driver.register_remote(ADDR, agent.endpoint)
            driver.wait_connected(10)

        def hammer(i: int) -> None:
            for seq in range(rounds):
                answer = drivers[i].call(ADDR, "probe.echo", (i, seq))
                if answer != (i, seq):
                    wrong.append((i, seq, answer))

        _run_threads(hammer, len(drivers))
        assert not probe.reentered
        assert wrong == []
        assert probe.calls == len(drivers) * rounds
    finally:
        for driver in drivers:
            driver.abort()
        agent.close()


def _page(i: int, r: int) -> bytes:
    """A 256 KiB page no other (caller, round) writes."""
    return bytes((i * 37 + r * 11 + k) % 256 for k in range(256)) * 1024


def test_callers_sharing_one_peer_never_interleave_frames():
    agent = NodeAgent({ADDR: DataProvider(0)})
    agent.start()
    driver = ThreadedDriver()
    wrong: list[tuple] = []
    try:
        driver.register_remote(ADDR, agent.endpoint)
        driver.wait_connected(10)

        def put_then_get(i: int) -> None:
            for r in range(4):
                key = PageKey("blob", f"w#{i}", r)
                page = _page(i, r)
                driver.call(ADDR, "data.put_page", (key, PagePayload.real(page)))
                if driver.call(ADDR, "data.get_page", (key,)).as_bytes() != page:
                    wrong.append((i, r))

        _run_threads(put_then_get, 8)
        assert wrong == []
        assert driver.peer_status()[ADDR] == "connected"
        served_calls = agent.telemetry()["data/0"]["sub_calls"]
        assert served_calls == driver.transport_stats()["sub_calls"] == 8 * 4 * 2
    finally:
        driver.abort()
        agent.close()


class _Wedge:
    """An actor whose every call parks until released."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def handle(self, method: str, args: tuple):
        self.entered.set()
        self.release.wait(JOIN_TIMEOUT)
        return "released"


def test_a_wedged_actor_stalls_only_itself():
    wedge = _Wedge()
    meta = ("meta", 0)
    agent = NodeAgent({ADDR: wedge, meta: MetadataProvider(0)})
    agent.start()
    driver = ThreadedDriver()
    try:
        driver.register_remote(ADDR, agent.endpoint)
        driver.register_remote(meta, agent.endpoint)
        driver.wait_connected(10)

        def park():
            (result,) = yield Batch([Call(ADDR, "wedge.park", ())])
            return result

        parked = driver.spawn(park())
        assert wedge.entered.wait(10)
        assert driver.call(meta, "meta.stats")["nodes"] == 0
        assert not parked.done()
        wedge.release.set()
        assert parked.result(timeout=10) == "released"
    finally:
        wedge.release.set()
        driver.abort()
        agent.close()


def test_controls_and_stop_time_out_behind_a_send_blocked_on_a_wedged_actor():
    """A caller whose big frame is stuck in ``sendall`` (the wedged actor's
    pump stopped reading) holds the send lock; a control still times out,
    and ``stop`` still hangs up, which frees that caller."""
    wedge = _Wedge()
    agent = NodeAgent({ADDR: wedge})
    agent.start()
    driver = ThreadedDriver()
    try:
        peer = driver.register_remote(ADDR, agent.endpoint)
        driver.wait_connected(10)

        def call(method, args=()):
            (result,) = yield Batch([Call(ADDR, method, args, allow_error=True)])
            return result

        driver.spawn(call("wedge.park"))
        assert wedge.entered.wait(10)
        # far more than both sides' socket buffers hold
        stuck = driver.spawn(call("wedge.big", (bytes(16 << 20),)))
        deadline = time.monotonic() + 10
        while not peer._send_lock.locked() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)
        assert peer._send_lock.locked() and not stuck.done()

        t0 = time.monotonic()
        try:
            peer.control("telemetry", timeout=1)
        except TimeoutError:
            pass
        else:
            raise AssertionError("a control answered behind a wedged actor")
        assert time.monotonic() - t0 < 5

        t0 = time.monotonic()
        peer.stop(timeout=1)
        assert time.monotonic() - t0 < 5
        error = stuck.result(timeout=10)
        assert getattr(error, "error_type", None) == "PeerUnavailable", error
    finally:
        wedge.release.set()
        driver.abort()
        agent.close()


class _Nap:
    """An actor whose every call takes ``NAP_S`` (slow enough that the
    slow-RPC log keeps each call's queue/service split)."""

    def handle(self, method: str, args: tuple):
        time.sleep(NAP_S)
        return method


NAP_S = 0.15


def test_queue_wait_counts_requests_served_ahead_in_the_same_read():
    """Two requests written in one ``sendall`` reach the agent in one read:
    the second waits while the first is served, and its queue wait says
    so."""
    agent = NodeAgent({ADDR: _Nap()})
    agent.start()
    sock = connect_and_handshake(agent.endpoint, "data/0", 5.0)
    try:
        envelope = rpc_envelope(
            [(WireGroup(ADDR, [Call(ADDR, "nap.once", ())], range(1)), None)]
        )
        sock.sendall(encode_message(1, envelope) + encode_message(2, envelope))
        decoder = MessageDecoder()
        replies = []
        sock.settimeout(10)
        while len(replies) < 2:
            nbytes = sock.recv_into(decoder.get_buffer())
            assert nbytes, "agent hung up"
            replies += [req_id for req_id, _ in decoder.buffer_updated(nbytes)]
        assert replies == [1, 2]
        slow = agent.telemetry()["data/0"]["telemetry"]["slow"]
        waits = sorted(queue_ns for _, _, queue_ns, _, _, _ in slow)
        assert len(waits) == 2
        assert waits[0] < NAP_S * 1e9 / 2 and waits[1] >= NAP_S * 1e9 * 0.9, waits
    finally:
        force_close(sock)
        agent.close()


def test_no_hand_off_threads_on_either_side_of_the_wire():
    agent = NodeAgent({ADDR: DataProvider(0), ("meta", 0): MetadataProvider(0)})
    agent.start()
    driver = ThreadedDriver()
    try:
        for address in (ADDR, ("meta", 0)):
            driver.register_remote(address, agent.endpoint)
        driver.wait_connected(10)
        assert driver.call(ADDR, "data.stats")["pages"] == 0
        names = [thread.name for thread in threading.enumerate()]
        assert [n for n in names if n.startswith("recv-")], names
        assert not [n for n in names if n.startswith("send-")], names
        assert not {"agent-data/0", "agent-meta/0"} & set(names), names
    finally:
        driver.abort()
        agent.close()


def test_a_shut_down_actor_hangs_up_instead_of_serving():
    """After its ``shutdown`` control, an actor is never called again: a
    second driver's request is answered by a hang-up, which its peer
    drains as ``PeerUnavailable``."""
    agent = NodeAgent({ADDR: DataProvider(0), ("meta", 0): MetadataProvider(0)})
    agent.start()
    first, second = ThreadedDriver(), ThreadedDriver()
    try:
        for driver in (first, second):
            driver.register_remote(ADDR, agent.endpoint)
            driver.wait_connected(10)
        first.peer(ADDR).stop()  # the orderly shutdown control

        def stats():
            (result,) = yield Batch([Call(ADDR, "data.stats", (), allow_error=True)])
            return result

        error = second.spawn(stats()).result(timeout=10)
        assert getattr(error, "error_type", None) == "PeerUnavailable", error
    finally:
        first.abort()
        second.abort()
        agent.close()


def _actor_threads() -> set[str]:
    return {t.name for t in threading.enumerate() if t.name.startswith("actor-")}


def _spy_vm(monkeypatch) -> list[tuple[int, str]]:
    """Record ``(thread ident, thread name)`` of every vm call served."""
    served: list[tuple[int, str]] = []
    handle = VersionManager.handle

    def spy(self, method, args):
        thread = threading.current_thread()
        served.append((thread.ident, thread.name))
        return handle(self, method, args)

    monkeypatch.setattr(VersionManager, "handle", spy)
    return served


@pytest.mark.parametrize("name", ["threaded", "tcp"])
def test_an_in_parent_group_is_served_on_the_callers_thread(name, monkeypatch):
    served = _spy_vm(monkeypatch)
    before = _actor_threads()
    with BUILDERS[name](DeploymentSpec(n_data=2, n_meta=2)) as dep:
        assert _actor_threads() == before, "an actor-* thread was started"
        blob = dep.client("main").alloc(16 * KB, 4 * KB)
        callers: list[int] = []

        def call() -> None:
            callers.append(threading.get_ident())
            dep.client("worker").latest(blob)

        served.clear()
        call()
        worker = threading.Thread(target=call)
        worker.start()
        worker.join(JOIN_TIMEOUT)
        assert not worker.is_alive()
        assert [ident for ident, _ in served] == callers
        assert callers[0] != callers[1]


def test_aio_serves_an_in_parent_group_on_its_service_thread(monkeypatch):
    served = _spy_vm(monkeypatch)
    with BUILDERS["aio"](DeploymentSpec(n_data=2, n_meta=2)) as dep:
        client = dep.client("main")
        blob = client.alloc(16 * KB, 4 * KB)
        served.clear()
        version = client.latest(blob)  # the answer crossed back to the loop
        assert version == 0
        assert [name for _, name in served] == ["actor-vm"]
        assert served[0][0] != threading.get_ident()
        assert "actor-vm" in _actor_threads()


def test_a_batch_sends_its_remote_groups_before_serving_in_parent_ones():
    """The in-parent actor waits for the remote one to be entered: were
    the remote group sent after the in-parent one was served, it would
    time out waiting."""
    remote = _Wedge()
    agent = NodeAgent({ADDR: remote})
    agent.start()
    driver = ThreadedDriver()
    here = ("meta", 0)

    class AfterRemote:
        def handle(self, method, args):
            return remote.entered.wait(10)

    try:
        driver.register_remote(ADDR, agent.endpoint)
        driver.register(here, AfterRemote())
        driver.wait_connected(10)

        def both():
            saw_remote, _ = yield Batch(
                [Call(here, "after.wait", ()), Call(ADDR, "wedge.park", ())]
            )
            return saw_remote

        done = driver.spawn(both())
        assert remote.entered.wait(10)
        remote.release.set()
        assert done.result(timeout=20) is True
    finally:
        remote.release.set()
        driver.abort()
        agent.close()


@pytest.mark.parametrize("name", ["threaded", "tcp", "aio"])
def test_a_batch_wakes_its_caller_at_most_once(name):
    """Eight callers write their own pages and read the blob at once:
    each batch wakes its caller at most once, every sub-call a caller
    submitted was served exactly once, and the last snapshot holds every
    caller's last page (a lost update on a latch or an actor's state
    would break one of these)."""
    with BUILDERS[name](DeploymentSpec(n_data=2, n_meta=2)) as dep:
        seed = dep.client("seed")
        blob = seed.alloc(64 * KB, 4 * KB)

        def page(i: int, r: int) -> bytes:
            return bytes([i * 8 + r + 1]) * (4 * KB)

        def write_read(i: int) -> None:
            client = dep.client(f"c{i}")
            for r in range(5):
                client.write(blob, page(i, r), i * 4 * KB)
                client.read_bytes(blob, 0, 32 * KB)

        _run_threads(write_read, 8)
        assert seed.read_bytes(blob, 0, 32 * KB) == b"".join(
            page(i, 4) for i in range(8)
        )
        stats = dep.transport_stats()
        assert 0 < stats["completion_wakeups"] <= stats["batches"]
        served = dep.driver.server_stats()
        assert sum(calls for _, calls in served.values()) == stats["sub_calls"]
