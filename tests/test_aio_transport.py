"""Aio-transport pins: what only an event loop can express.

The transport semantics the event-loop driver shares with the thread-pair
one (submission counts, typed errors over the wire, killed-peer fail-fast
drain, replica fail-over, clean shutdown exit codes, reconnect to a
restarted agent) have one body each, in ``tests/test_tcp_transport.py``:
this module collects those functions again with their ``client`` fixture
set to ``aio``, so each runs once per shell. The rest of this file is
what the loop adds: coroutine clients interleaving on one thread,
async-side tracing, cross-operation coalescing (concurrent protocols'
wire groups to one peer share one frame and one reply — pinned as
behaviour: fewer frames, the same sub-calls, per-peer FIFO, a bad request
failing alone, bounded frames, drain exactly once, trace contexts riding
the frame) and the 1k-coroutine stress run — one agent SIGKILLed and
restarted mid-run, every client finishing or failing *typed*, with
asyncio debug mode and warning capture proving no task is orphaned and no
coroutine left unawaited.

Everything here is wall-clock bounded: every blocking wait carries a
timeout, and the module-level watchdog (conftest.py, enabled via
``REPRO_TEST_TIMEOUT``) hard-kills a stalled run.
"""

from __future__ import annotations

import asyncio
import inspect
import threading
import time
import warnings

import pytest

from repro.core.client import BlobClient
from repro.core.config import DeploymentSpec
from repro.deploy.tcp import build_tcp
from repro.errors import (
    ConfigError,
    PageMissing,
    RemoteError,
    ReproError,
)
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.provider import MetadataProvider
from repro.net import aio
from repro.net.aio import AioDriver, trace_async_operation
from repro.net.codec import WireCodecError
from repro.net.node import NodeAgent
from repro.net.sansio import Batch, Call
from repro.net.wire import COALESCE_MAX_BYTES, COALESCE_MAX_CALLS
from repro.obs.export import coverage, validate_spans
from repro.obs.metrics import agent_metrics, collect_spans
from repro.obs.spans import CALLER, trace_operation
from repro.providers.data_provider import DataProvider
from repro.providers.page import PageKey, PagePayload
from repro.util.sizes import KB, MB
from repro.version.manager import VersionManager
from tests.conftest import forged_leaf
from tests.test_tcp_transport import (  # noqa: F401 - collected here, on the loop
    tdep,
    test_calls_racing_connection_drops_each_complete_once,
    test_clean_shutdown_exits_all_agents,
    test_driver_rejects_registration_after_close,
    test_future_calls_fail_fast_after_agent_death,
    test_handshake_reject_for_unknown_actor,
    test_in_flight_calls_drain_when_connection_dies,
    test_killed_agent_fails_over_to_replica,
    test_killed_agent_raises_remote_error,
    test_peer_reconnects_after_agent_restart,
    test_peer_states_read_the_same_on_both_shells,
    test_refused_registration_never_reaches_the_live_actor,
    test_semantic_errors_cross_the_wire_typed as test_semantic_errors_cross_the_async_path_typed,
    test_serial_workload_and_submission_counts,
    test_unknown_address_raises_before_any_submission,
)

TOTAL = 1 * MB
PAGE = 4 * KB

JOIN_TIMEOUT = 60.0


@pytest.fixture
def client() -> str:
    """The shell the transport pins imported above run on."""
    return "aio"


@pytest.fixture
def adep():
    dep = build_tcp(
        DeploymentSpec(n_data=3, n_meta=2, cache_capacity=0), client="aio"
    )
    yield dep
    dep.close()


def fill(i: int) -> bytes:
    return bytes([i % 251 + 1]) * PAGE


def _call_proto(address, method, args=()):
    def proto():
        (result,) = yield Batch([Call(address, method, args)])
        return result

    return proto()


# ---------------------------------------------------------------------------
# coroutine clients and async-side tracing
# ---------------------------------------------------------------------------


def test_async_clients_interleave_on_one_loop(adep):
    """Concurrent AsyncBlobClients over disjoint ranges: coroutine
    multiplexing is real concurrency — the writes interleave on the wire
    but every program keeps read-your-writes."""
    setup = adep.client("setup")
    blob = setup.alloc(TOTAL, PAGE)
    n_clients, writes_each = 8, 3
    span = TOTAL // n_clients // PAGE * PAGE

    async def program(c):
        own = adep.async_client(f"c{c}")
        lo = c * span
        for k in range(writes_each):
            data = fill(c * 16 + k) * 2
            offset = lo + (k * 2 * PAGE) % span
            res = await own.write(blob, data, offset)
            if res.published:
                got = await own.read_bytes(blob, offset, len(data), version=res.version)
                assert got == data
        return c

    async def main():
        return await asyncio.gather(*(program(c) for c in range(n_clients)))

    results = adep.driver.run_async(main(), timeout=JOIN_TIMEOUT)
    assert sorted(results) == list(range(n_clients))
    assert adep.vm.get_latest(blob) == n_clients * writes_each


def test_traced_async_op_exports_parented_spans(adep):
    """Span parenting over the async path: rpc spans recorded by the
    event loop must parent to the coroutine's op span (ContextVar trace
    propagation), and caller RTTs must fold into the unified scrape."""
    client = adep.client("spans")
    blob = client.alloc(TOTAL, PAGE)
    CALLER.clear()

    async def main():
        aclient = adep.async_client("traced")
        async with trace_async_operation("aio-write") as tid:
            await aclient.write(blob, fill(1), 0)
        return tid

    tid = adep.driver.run_async(main(), timeout=JOIN_TIMEOUT)
    spans = [s for s in CALLER.snapshot() if s["trace"] == tid]
    ops = [s for s in spans if s["kind"] == "op"]
    rpcs = [s for s in spans if s["kind"] == "rpc"]
    assert len(ops) == 1 and ops[0]["name"] == "aio-write"
    assert rpcs, "no rpc spans recorded for the traced async op"
    assert all(s["parent"] == ops[0]["span"] for s in rpcs)
    assert all(
        ops[0]["start_ns"] <= s["start_ns"] <= s["end_ns"] <= ops[0]["end_ns"]
        for s in rpcs
    )
    # the PR 8 unified scrape picks up the aio driver's RTT histograms
    doc = adep.metrics()
    assert "caller_rtt" in doc and doc["caller_rtt"], "caller RTTs missing"


def test_thread_side_op_traces_the_sync_facade(adep):
    """A ``trace_operation`` on the calling thread reaches the loop with
    the protocol ``AioDriver.run`` hands over (the task copies the
    thread's context): rpc spans parent to the op, and the client
    compute between batches is covered too."""
    client = adep.client("sync-traced")
    blob = client.alloc(TOTAL, PAGE)
    CALLER.clear()
    with trace_operation("sync-write") as tid:
        client.write(blob, fill(2), 0)
    spans = [s for s in CALLER.snapshot() if s["trace"] == tid]
    assert validate_spans(spans) == []
    (op,) = [s for s in spans if s["kind"] == "op"]
    rpcs = [s for s in spans if s["kind"] == "rpc"]
    assert rpcs and all(s["parent"] == op["span"] for s in rpcs)
    assert coverage(spans)[tid] >= 0.95


def test_spawn_inside_a_traced_block_stays_untraced(adep):
    """Like a ``ThreadedDriver.spawn`` thread, a spawned protocol does not
    inherit the spawner's open operation: no rpc span on the caller side,
    no serving span on the agent."""
    CALLER.clear()
    with trace_operation("spawner") as tid:
        stats = adep.driver.spawn(
            _call_proto(("data", 0), "data.stats")
        ).result(JOIN_TIMEOUT)
    assert stats["pages"] == 0
    assert [s["kind"] for s in CALLER.snapshot()] == ["client", "op"]
    assert not [
        s for s in collect_spans(adep.metrics()) if s["trace"] == tid
    ]


# ---------------------------------------------------------------------------
# cross-operation coalescing: concurrent protocols' groups share frames
# ---------------------------------------------------------------------------


class _Parker:
    """An in-parent actor whose one call blocks until released: a protocol
    parked on it keeps the driver "driving something else", so every group
    the test then submits takes the outbox path — deterministically."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def handle(self, method, args):
        self.entered.set()
        self.release.wait(JOIN_TIMEOUT)
        return True


class _Cluster:
    """One in-thread agent hosting ``actor`` at ``ADDR`` plus an AioDriver
    with a protocol parked in flight."""

    ADDR = ("data", 0)

    def __init__(self, actor):
        self.actor = actor
        self.agent = NodeAgent({self.ADDR: actor})
        self.agent.start()
        self.driver = AioDriver()
        self.parker = _Parker()
        try:
            self.driver.register("parker", self.parker)
            self.driver.register_remote(self.ADDR, self.agent.endpoint)
            self.driver.wait_connected()
            self.peer = self.driver.peer(self.ADDR)
            self._parked = self.driver.spawn(_call_proto("parker", "park"))
            assert self.parker.entered.wait(JOIN_TIMEOUT)
            #: the groups of every frame the peer put together, in order
            self.frames: list[list] = []
            send = self.peer._send

            def recording_send(groups):
                self.frames.append(groups)
                send(groups)

            self.peer._send = recording_send
        except BaseException:
            self.close()
            raise

    def served(self) -> tuple[int, int]:
        """``(wire_rpcs, sub_calls)`` the agent's actor served so far."""
        report = self.agent.telemetry()["data/0"]
        return report["wire_rpcs"], report["sub_calls"]

    def together(self, protos) -> list:
        """Drive every protocol concurrently on the loop, all started in
        the same loop iteration; results or exceptions in order."""

        async def main():
            return await asyncio.gather(
                *(self.driver.drive(p) for p in protos), return_exceptions=True
            )

        return self.driver.run_async(main(), timeout=JOIN_TIMEOUT)

    def close(self):
        self.parker.release.set()
        self.driver.close()
        self.agent.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _page(i: int) -> PagePayload:
    return PagePayload.real(bytes([i % 251 + 1]) * PAGE)


def _key(i: int) -> PageKey:
    return PageKey("blob", "w#1", i)


def _put_then_get(i: int):
    def proto():
        (stored,) = yield Batch([Call(_Cluster.ADDR, "data.put_page", (_key(i), _page(i)))])
        assert stored
        (page,) = yield Batch([Call(_Cluster.ADDR, "data.get_page", (_key(i),))])
        return page.as_bytes()

    return proto()


def test_concurrent_groups_share_frames_and_keep_their_own_results():
    """N protocols submitting in one loop iteration: far fewer frames than
    groups on the wire, the same sub-calls served, and every op gets *its*
    slice of the shared reply — distinct pages, byte for byte."""
    n = 24
    with _Cluster(DataProvider(0)) as cl:
        results = cl.together([_put_then_get(i) for i in range(n)])
        assert results == [_page(i).as_bytes() for i in range(n)]
        rpcs, calls = cl.served()
        assert calls == 2 * n
        assert rpcs == 2, "two rounds of n one-call groups = two frames"
        assert [len(f) for f in cl.frames] == [n, n]
        stats = cl.driver.transport_stats()
        # the parked protocol's one in-parent call is the + 1
        assert stats["sub_calls"] == calls + 1
        assert stats["queue_submissions"] == 2 * n + 1 > rpcs + 1


def test_coalesced_clients_on_a_real_cluster_read_their_writes(adep):
    """The same through the public client surface on an OS-process
    cluster: served sub-calls equal submitted sub-calls, served wire RPCs
    are fewer than submitted groups, every client reads back its own page
    (at its own version, once that is published)."""
    setup = adep.client("setup")
    blob = setup.alloc(TOTAL, PAGE)
    n = 32
    base_t = adep.transport_stats()
    base_s = adep.driver.server_stats()

    async def program(i):
        client = adep.async_client(f"c{i}")
        for k in range(3):
            data = fill(i * 8 + k)
            res = await client.write(blob, data, i * PAGE)
            if res.published:
                got = await client.read_bytes(blob, i * PAGE, PAGE, version=res.version)
                assert got == data, (i, k)
        return i

    async def main():
        return await asyncio.gather(*(program(i) for i in range(n)))

    assert adep.driver.run_async(main(), timeout=JOIN_TIMEOUT) == list(range(n))
    transport = adep.transport_stats()
    served = adep.driver.server_stats()
    rpcs = sum(r - base_s[a][0] for a, (r, _) in served.items())
    calls = sum(c - base_s[a][1] for a, (_, c) in served.items())
    assert calls == transport["sub_calls"] - base_t["sub_calls"]
    assert rpcs < transport["queue_submissions"] - base_t["queue_submissions"]
    assert adep.vm.get_latest(blob) == 3 * n


def test_per_peer_fifo_across_and_inside_frames():
    """Per-destination FIFO is a correctness property (the vm publishes in
    version order; a ``vm.complete`` that overtakes a neighbour's makes the
    overtaker read stale bytes at LATEST): the actor must serve sub-calls
    in exactly the order their groups were submitted, and the callers must
    be resumed in that order too — whatever frames carried them."""

    class Recorder:
        def __init__(self):
            self.seen = []

        def handle(self, method, args):
            self.seen.append(args[0])
            return args[0]

    n, rounds = 20, 5
    with _Cluster(Recorder()) as cl:
        submitted, resumed = [], []
        submit = cl.peer.submit

        def recording_submit(group, *rest):
            submitted.extend(call.args[0] for call in group.calls)
            submit(group, *rest)

        cl.peer.submit = recording_submit

        def program(i):
            for r in range(rounds):
                # uneven group sizes, so frames fill and split unevenly
                tags = [(i, r, k) for k in range(1 + (i + r) % 4)]
                got = yield Batch([Call(cl.ADDR, "note", (t,)) for t in tags])
                assert got == tags
                resumed.extend(tags)

        assert cl.together([program(i) for i in range(n)]) == [None] * n
        assert len(submitted) == sum(
            1 + (i + r) % 4 for i in range(n) for r in range(rounds)
        )
        assert cl.actor.seen == submitted, "sub-calls served out of order"
        assert resumed == submitted, "callers resumed out of order"
        assert len(cl.frames) < n * rounds, "nothing coalesced"
        for groups in cl.frames:
            assert sum(len(g[0].calls) for g in groups) <= COALESCE_MAX_CALLS


def test_semantic_error_in_one_op_fails_only_that_op():
    """A typed handler error is one sub-call's result, not the frame's."""
    n, missing = 12, 5
    provider = DataProvider(0)
    for i in range(n):
        if i != missing:
            provider.put_page(_key(i), _page(i))

    def get(i):
        (page,) = yield Batch([Call(_Cluster.ADDR, "data.get_page", (_key(i),))])
        return page.as_bytes()

    with _Cluster(provider) as cl:
        results = cl.together([get(i) for i in range(n)])
        assert [len(f) for f in cl.frames] == [n]
        for i, result in enumerate(results):
            if i == missing:
                assert isinstance(result, PageMissing)
            else:
                assert result == _page(i).as_bytes()


def test_cancelling_one_reader_leaves_the_shared_frame_to_the_others():
    """A reader cancelled after its group joined a frame: the reply still
    completes the other groups (their verified bytes), the cancelled one
    raises ``CancelledError``, and completing its latch is a no-op — the
    loop's exception handler records nothing."""
    n, victim = 8, 3

    def get(i):
        (page,) = yield Batch([Call(_Cluster.ADDR, "data.get_page", (_key(i),))])
        return page.as_bytes()

    with _Cluster(DataProvider(0)) as cl:
        puts = [_call_proto(cl.ADDR, "data.put_page", (_key(i), _page(i)))
                for i in range(n)]
        assert cl.together(puts) == [True] * n
        errors = []

        async def main():
            cl.driver.loop.set_exception_handler(lambda loop, ctx: errors.append(ctx))
            tasks = [asyncio.ensure_future(cl.driver.drive(get(i))) for i in range(n)]
            await asyncio.sleep(0)  # every reader ran up to its submit
            assert len(cl.peer._outbox) == n
            tasks[victim].cancel()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await asyncio.sleep(0.05)  # room for a late callback to misfire
            return results

        results = cl.driver.run_async(main(), timeout=JOIN_TIMEOUT)
        assert [len(f) for f in cl.frames] == [n, n]
        for i, result in enumerate(results):
            if i == victim:
                assert isinstance(result, asyncio.CancelledError)
            else:
                assert result == _page(i).as_bytes()
        assert errors == []
        assert cl.driver.call(cl.ADDR, "data.get_page", (_key(0),)).as_bytes() == (
            _page(0).as_bytes()
        )


def test_remote_batches_resume_without_crossing_threads():
    """A batch whose last group completes on the loop thread — every
    remote reply — resolves its latch in place: no
    ``call_soon_threadsafe`` (no self-pipe write, no extra loop wake-up).
    A batch to an in-parent actor completes on its service thread and
    crosses over exactly once."""
    n = 12
    agent = NodeAgent({_Cluster.ADDR: DataProvider(0)})
    agent.start()
    driver = AioDriver()
    try:
        driver.register("vm", VersionManager())
        driver.register_remote(_Cluster.ADDR, agent.endpoint)
        driver.wait_connected()
        crossings = []
        call_soon_threadsafe = driver.loop.call_soon_threadsafe

        def counted(*args, **kwargs):
            crossings.append(args[0])
            return call_soon_threadsafe(*args, **kwargs)

        driver.loop.call_soon_threadsafe = counted

        async def main():
            marks = [len(crossings)]
            for i in range(n):
                proto = _call_proto(_Cluster.ADDR, "data.put_page", (_key(i), _page(i)))
                assert await driver.drive(proto) is True
            marks.append(len(crossings))
            for _ in range(n):
                assert (await driver.drive(_call_proto("vm", "vm.stats")))["assigns"] == 0
            marks.append(len(crossings))
            return marks

        before, remote, vm = driver.run_async(main(), timeout=JOIN_TIMEOUT)
        assert remote - before == 0
        assert vm - remote == n
        stats = driver.transport_stats()
        assert stats["batches"] == stats["completion_wakeups"] == 2 * n
    finally:
        driver.close()
        agent.close()


def test_a_group_completing_after_close_raises_nothing_on_its_service_thread(
    monkeypatch,
):
    """An in-parent actor that completes a group after ``close()`` closed
    the loop: nobody waits on that batch any more, so the latch drops the
    release instead of raising ``Event loop is closed`` from
    ``call_soon_threadsafe`` on the service thread."""
    raised = []
    monkeypatch.setattr(threading, "excepthook", lambda hook: raised.append(hook))
    parker = _Parker()
    driver = AioDriver()
    driver.register("parked", parker)
    future = driver.spawn(_call_proto("parked", "park"))
    assert parker.entered.wait(JOIN_TIMEOUT)
    closer = threading.Thread(target=driver.close)
    closer.start()
    deadline = time.monotonic() + JOIN_TIMEOUT
    while not driver.loop.is_closed():
        assert time.monotonic() < deadline, "close() never closed the loop"
        time.sleep(0.01)
    parker.release.set()  # the group completes now, on the service thread
    closer.join(JOIN_TIMEOUT)  # close() joins that thread last
    assert not closer.is_alive()
    assert future.done()
    assert raised == []


def test_a_protocol_of_many_batches_awaits_one_loop_future():
    """Batches are stepped from the completions that release them, remote
    and in-parent alike: a protocol of k batches creates one loop future
    (its waiter's), not one per batch, and still counts one wake-up per
    batch."""
    k = 6
    agent = NodeAgent({_Cluster.ADDR: DataProvider(0)})
    agent.start()
    driver = AioDriver()
    try:
        driver.register("vm", VersionManager())
        driver.register_remote(_Cluster.ADDR, agent.endpoint)
        driver.wait_connected()

        def proto():
            seen = []
            for i in range(k):
                dest, method = (("vm", "vm.stats") if i % 2
                                else (_Cluster.ADDR, "data.stats"))
                (result,) = yield Batch([Call(dest, method)])
                seen.append(type(result).__name__)
            return seen

        async def main():
            loop = asyncio.get_running_loop()
            created = []
            create_future = loop.create_future

            def counted():
                created.append(1)
                return create_future()

            loop.create_future = counted
            try:
                seen = await driver.drive(proto())
            finally:
                del loop.create_future
            return seen, len(created)

        seen, futures = driver.run_async(main(), timeout=JOIN_TIMEOUT)
        assert seen == ["dict"] * k
        assert futures == 1
        stats = driver.transport_stats()
        assert stats["batches"] == stats["completion_wakeups"] == k
    finally:
        driver.close()
        agent.close()


def test_thousands_of_chained_batches_to_a_failed_address_do_not_recurse():
    """Every group to a failed address completes inside its submit, so
    each batch is released while its step still runs: the trampoline
    steps it next, at the same stack depth, for any chain length."""
    n = 5000
    driver = AioDriver()
    try:
        driver.register(("data", 0), DataProvider(0))
        driver.fail(("data", 0))

        def proto():
            for _ in range(n):
                (result,) = yield Batch(
                    [Call(("data", 0), "data.stats", allow_error=True)]
                )
                assert result.error_type == "PeerUnavailable"
            return n

        assert driver.run(proto()) == n
        stats = driver.transport_stats()
        assert stats["batches"] == stats["completion_wakeups"] == n
    finally:
        driver.close()


def test_a_type_error_mid_protocol_fails_its_op_while_a_frame_mate_completes():
    """A protocol that breaks while being stepped from a shared frame's
    reply fails alone, with its own error at its ``await``: the frame's
    other group is still delivered, and nothing escapes into the loop."""

    def broken():
        yield Batch([Call(_Cluster.ADDR, "data.stats")])
        yield "not an op"

    def sound():
        (stats,) = yield Batch([Call(_Cluster.ADDR, "data.stats")])
        return stats["pages"]

    with _Cluster(DataProvider(0)) as cl:
        errors = []
        cl.driver.loop.call_soon_threadsafe(
            cl.driver.loop.set_exception_handler,
            lambda loop, ctx: errors.append(ctx),
        )
        failed, done = cl.together([broken(), sound()])
        assert [len(f) for f in cl.frames] == [2]
        assert isinstance(failed, TypeError) and "not an op" in str(failed)
        assert done == 0
        assert errors == []


def test_a_cancelled_waiter_closes_its_protocol_and_stops_counting_it():
    """Cancelling ``drive`` closes the protocol's generator and leaves
    ``_driving`` at 0 (peers coalesce by it); the abandoned group, when
    its service thread completes it later, steps nothing."""
    parker = _Parker()
    driver = AioDriver()
    closed = []

    def proto():
        try:
            yield Batch([Call("parked", "park")])
        finally:
            closed.append(True)

    try:
        driver.register("parked", parker)
        errors = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda loop, ctx: errors.append(ctx))
            task = asyncio.ensure_future(driver.drive(proto()))
            await loop.run_in_executor(None, parker.entered.wait, JOIN_TIMEOUT)
            assert driver._driving == 1
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert closed == [True] and driver._driving == 0
            parker.release.set()  # the abandoned group completes now...
            # ...ahead of this call on the same service thread
            return await loop.run_in_executor(
                None, driver.call, "parked", "again"
            )

        assert driver.run_async(main(), timeout=JOIN_TIMEOUT) is True
        assert errors == [] and closed == [True]
        assert driver._driving == 0
    finally:
        parker.release.set()
        driver.close()


@pytest.mark.parametrize("bad", ["unpicklable", "forged"])
def test_a_bad_request_in_a_coalesced_frame_fails_alone(bad):
    """One op's request cannot be encoded here (an unpicklable argument) or
    is refused by the peer's decoder (a forged tree node): only that op
    fails, typed; its frame-mates each go again in a frame of their own —
    once — and the connection serves the next call."""
    n, victim = 9, 4
    provider = MetadataProvider(0)

    def leaf(i):
        return TreeNode(NodeKey("b", 1, i * PAGE, PAGE), providers=(0,), write_uid="u")

    def put(i):
        node = leaf(i)
        if i == victim:
            node = threading.Lock() if bad == "unpicklable" else forged_leaf()
        (ok,) = yield Batch([Call(_Cluster.ADDR, "meta.put_nodes", ([node],))])
        return ok

    with _Cluster(provider) as cl:
        results = cl.together([put(i) for i in range(n)])
        for i, result in enumerate(results):
            if i != victim:
                assert result is True
            elif bad == "unpicklable":  # failed here: the original, typed
                assert isinstance(result, WireCodecError)
            else:  # refused over there: typed by name
                assert isinstance(result, RemoteError)
                assert result.error_type == "WireCodecError"
        # one coalesced attempt, then every group by itself — exactly once
        assert [len(f) for f in cl.frames] == [n] + [1] * n
        assert provider.node_count == n - 1
        # refused frames served nothing; each surviving group ran once
        assert cl.served() == (n - 1, n - 1)
        assert cl.driver.peer_status()[cl.ADDR] == "connected"
        assert cl.driver.call(cl.ADDR, "meta.get_node", (leaf(0).key,)) == leaf(0)


def test_coalesced_frames_respect_both_bounds():
    """At most ``COALESCE_MAX_CALLS`` sub-calls and ``COALESCE_MAX_BYTES``
    of declared request bytes per frame; one op's group is never split, so
    only a group that is itself larger exceeds them."""

    def stats(n_calls, request_bytes=None):
        def proto():
            got = yield Batch(
                [Call(_Cluster.ADDR, "data.stats", (), request_bytes)] * n_calls
            )
            return len(got)

        return proto()

    with _Cluster(DataProvider(0)) as cl:
        def frames_of(n_groups, n_calls, request_bytes=None):
            """Frames (as served, and as sent) of ``n_groups`` concurrent
            ``n_calls``-call groups."""
            before, first = cl.served()[0], len(cl.frames)
            results = cl.together(
                [stats(n_calls, request_bytes) for _ in range(n_groups)]
            )
            assert results == [n_calls] * n_groups
            sent = [len(f) for f in cl.frames[first:]]
            assert cl.served()[0] - before == len(sent)
            return sent

        assert frames_of(65, 1) == [64, 1]
        assert frames_of(1, 100) == [1], "a single group is never split"
        # 40 + 40 would exceed 64: each group opens a frame of its own
        assert frames_of(3, 40) == [1, 1, 1]
        # declared bytes: two half-bound groups fill a frame, the third waits
        assert frames_of(3, 1, COALESCE_MAX_BYTES // 2) == [2, 1]
        # undeclared bytes count as zero
        assert frames_of(10, 2) == [10]
        for groups in cl.frames:
            calls = [c for g in groups for c in g[0].calls]
            declared = sum(c.request_bytes or 0 for c in calls)
            assert len(groups) == 1 or (
                len(calls) <= COALESCE_MAX_CALLS and declared <= COALESCE_MAX_BYTES
            )


def test_peer_death_drains_frames_in_flight_and_the_outbox_exactly_once(monkeypatch):
    """The connection dies with a coalesced frame on the wire *and* groups
    still gathered in the outbox: every latch is released exactly once
    with ``PeerUnavailable``, later submits fail fast, and the connector's
    redial resumes service. The fail-fast call runs on the loop right
    after the take-down, so the redial cannot come in between."""

    class Staller:
        def __init__(self):
            self.entered = threading.Event()
            self.release = threading.Event()

        def handle(self, method, args):
            if method == "stall":
                self.entered.set()
                self.release.wait(JOIN_TIMEOUT)
            return method

    releases: dict[int, int] = {}
    group_done = aio._Stepper.group_done

    def counting_group_done(stepper, gen):
        releases[id(stepper)] = releases.get(id(stepper), 0) + 1
        group_done(stepper, gen)

    monkeypatch.setattr(aio._Stepper, "group_done", counting_group_done)

    with _Cluster(Staller()) as cl:
        driver, peer = cl.driver, cl.peer
        try:
            async def main():
                drive = lambda method: asyncio.ensure_future(  # noqa: E731
                    driver.drive(_call_proto(cl.ADDR, method))
                )
                in_flight = [drive("stall"), drive("a"), drive("b")]
                pending = peer._conn._pending  # the core's request registry
                while not pending:  # one coalesced frame on the wire
                    await asyncio.sleep(0)
                assert [len(f) for f in cl.frames] == [3]
                await asyncio.get_running_loop().run_in_executor(
                    None, cl.actor.entered.wait, JOIN_TIMEOUT
                )
                gathered = [drive("c"), drive("d")]
                await asyncio.sleep(0)  # both submitted; the flush not yet run
                assert len(peer._outbox) == 2 and len(pending) == 1
                peer._take_down(peer._conn.dropped)
                assert not peer._outbox and not pending
                # while down: fail fast, typed
                assert not peer.connected
                start = time.monotonic()
                with pytest.raises(RemoteError):
                    await driver.drive(_call_proto(cl.ADDR, "x"))
                assert time.monotonic() - start < 2.0
                return await asyncio.gather(
                    *in_flight, *gathered, return_exceptions=True
                )

            results = driver.run_async(main(), timeout=JOIN_TIMEOUT)
            assert len(results) == 5
            for result in results:
                assert isinstance(result, RemoteError), result
                assert result.error_type == "PeerUnavailable"
            # the five drained groups and the fail-fast one: once each
            assert sorted(releases.values()) == [1] * 6
        finally:
            cl.actor.release.set()
        assert peer.wait_connected(timeout=15), "connector did not redial"
        assert driver.call(cl.ADDR, "after") == "after"
        # the frame in flight ran (it may have: never re-sent), the outbox
        # never left, nothing was replayed on the new connection
        assert cl.served() == (2, 4)


def test_traced_and_untraced_ops_share_a_frame_and_keep_their_parents():
    """Tracing must not change what the system does: traced and untraced
    groups coalesce into one frame, whose envelope carries one trace
    context per group — every serving span parents to its *own* group's
    rpc span (and nests inside it), untraced sub-calls record none."""
    n = 10
    provider = DataProvider(0)
    for i in range(n):
        provider.put_page(_key(i), _page(i))
    CALLER.clear()
    with _Cluster(provider) as cl:
        async def program(i):
            proto = _call_proto(cl.ADDR, "data.get_page", (_key(i),))
            if i % 2:
                return None, await cl.driver.drive(proto)
            async with trace_async_operation(f"get-{i}") as tid:
                page = await cl.driver.drive(proto)
            return tid, page

        async def main():
            return await asyncio.gather(*(program(i) for i in range(n)))

        results = cl.driver.run_async(main(), timeout=JOIN_TIMEOUT)
        assert [page.as_bytes() for _, page in results] == [
            _page(i).as_bytes() for i in range(n)
        ]
        assert [len(f) for f in cl.frames] == [n], "traced ops left the frame"
        spans = collect_spans(agent_metrics(cl.agent)) + CALLER.snapshot()
    assert validate_spans(spans) == []
    tids = [tid for tid, _ in results if tid is not None]
    assert len(tids) == n // 2
    servers = [s for s in spans if s["kind"] == "server"]
    assert sorted(s["trace"] for s in servers) == sorted(tids)
    for tid in tids:
        (op,) = [s for s in spans if s["trace"] == tid and s["kind"] == "op"]
        (rpc,) = [s for s in spans if s["trace"] == tid and s["kind"] == "rpc"]
        (server,) = [s for s in servers if s["trace"] == tid]
        assert rpc["parent"] == op["span"]
        assert server["parent"] == rpc["span"]
        # in-thread agent: one clock domain, so windows nest unaligned
        assert rpc["start_ns"] <= server["start_ns"] <= server["end_ns"] <= rpc["end_ns"]


# ---------------------------------------------------------------------------
# choosing the shell
# ---------------------------------------------------------------------------


def test_build_tcp_rejects_unknown_client():
    with pytest.raises(ConfigError):
        build_tcp(DeploymentSpec(n_data=1, n_meta=1), client="curio")


def test_async_client_requires_aio_driver():
    dep = build_tcp(DeploymentSpec(n_data=1, n_meta=1))
    try:
        with pytest.raises(ConfigError):
            dep.async_client()
    finally:
        dep.close()


def _every_primitive(call, dep) -> list:
    """One serial workload through every public client method, each made
    by ``call(method, *args)``; returns what the workload observed."""
    blob = call("alloc", TOTAL, PAGE)
    seen = [call("open", blob).pagesize, call("geometry", blob).total_size]
    seen.append(call("write", blob, fill(1) * 2, 0).version)
    seen.append(call("write_pages", blob, 2 * PAGE, [PagePayload.real(fill(2))]).version)
    seen.append(call("write_virtual", blob, 4 * PAGE, PAGE).version)
    seen.append(call("write_unaligned", blob, b"xyz", PAGE - 1).version)
    seen.append(bytes(call("read", blob, 0, 3 * PAGE).data))
    seen.append(call("read_bytes", blob, PAGE - 2, 8, 3))
    out = bytearray(2 * PAGE)
    seen.append((call("read_into", blob, out, PAGE).version, bytes(out)))
    virtual = call("read_virtual", blob, 0, 2 * PAGE)
    seen.append((virtual.version, virtual.data, virtual.pages_fetched))
    latest = call("latest", blob)
    stats = call("gc", blob, [latest], dep.data_ids, dep.meta_ids)
    seen.append((latest, stats.kept_versions, stats.nodes_freed, stats.pages_freed))
    return seen


def test_blocking_and_async_clients_are_one_surface():
    """``client()`` and ``async_client()`` are one facade run two ways:
    the same serial workload, each on its own blob, observes the same
    versions and bytes and leaves equal ``transport_stats()`` deltas, and
    every public method of the async client returns an awaitable."""
    with build_tcp(DeploymentSpec(n_data=2, n_meta=2), client="aio") as dep:
        blocking, coroutine = dep.client("sync"), dep.async_client("async")
        called: set[str] = set()

        def awaited(method, *args):
            called.add(method)
            pending = getattr(coroutine, method)(*args)
            assert inspect.isawaitable(pending), method

            async def wait():
                return await pending

            return dep.driver.run_async(wait(), timeout=JOIN_TIMEOUT)

        seen, deltas = [], []
        for call in (lambda m, *a: getattr(blocking, m)(*a), awaited):
            before = dep.transport_stats()
            seen.append(_every_primitive(call, dep))
            after = dep.transport_stats()
            deltas.append({k: after[k] - before[k] for k in after})
    assert seen[0] == seen[1]
    assert seen[0][2:6] == [1, 2, 3, 4]
    assert deltas[0] == deltas[1] and deltas[0]["batches"] > 0
    public = {n for n in vars(BlobClient) if not n.startswith("_")}
    assert called == public


# ---------------------------------------------------------------------------
# the 1k-coroutine stress run: kill + restart mid-run, nothing orphaned
# ---------------------------------------------------------------------------

N_STRESS_CLIENTS = 1000
STRESS_AGENTS = 8


def test_thousand_clients_survive_agent_restart():
    """1000 concurrent client coroutines against an 8-agent loopback
    cluster, one storage agent SIGKILLed after a third of the clients
    finished and restarted before the last third starts. Every client
    must finish or fail *typed* (``ReproError``), and the run must leave
    nothing behind: asyncio debug mode is on, the loop's exception
    handler must stay silent (no destroyed-pending-task reports), and no
    never-awaited-coroutine warning may be emitted. The clients' calls must
    actually have shared frames while all of this happened."""
    spec = DeploymentSpec(
        n_data=STRESS_AGENTS, n_meta=2, cache_capacity=0, colocate=False
    )
    dep = build_tcp(spec, client="aio")
    loop_trouble: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            dep.driver.set_debug(True)
            dep.driver.loop.call_soon_threadsafe(
                dep.driver.loop.set_exception_handler,
                lambda loop, ctx: loop_trouble.append(ctx.get("message", repr(ctx))),
            )
            setup = dep.client("setup")
            blob = setup.alloc(TOTAL, PAGE)
            npages = TOTAL // PAGE

            finished: list[int] = []  # appended on the loop thread only
            gate_box: dict = {}  # {"event": asyncio.Event created on the loop}

            async def client_program(i):
                if i >= 2 * N_STRESS_CLIENTS // 3:
                    # the last third runs against the *revived* cluster
                    await asyncio.wait_for(
                        gate_box["event"].wait(), JOIN_TIMEOUT
                    )
                client = dep.async_client(f"s{i}")
                data = fill(i)
                offset = (i % npages) * PAGE
                try:
                    res = await client.write(blob, data, offset)
                    got = await client.read_bytes(
                        blob, offset, PAGE, version=res.version
                    )
                    assert got == data
                    return "ok"
                finally:
                    finished.append(i)

            async def main():
                gate_box["event"] = asyncio.Event()
                tasks = [
                    asyncio.create_task(client_program(i), name=f"client-{i}")
                    for i in range(N_STRESS_CLIENTS)
                ]
                return await asyncio.gather(*tasks, return_exceptions=True)

            fut = asyncio.run_coroutine_threadsafe(main(), dep.driver.loop)

            # kill one storage agent after ~a third of the clients are done
            deadline = time.monotonic() + JOIN_TIMEOUT
            while len(finished) < N_STRESS_CLIENTS // 3:
                assert time.monotonic() < deadline, "stress run stalled pre-kill"
                time.sleep(0.01)
            victim = ("data", STRESS_AGENTS - 1)
            idx = dep.agent_index_for(victim)
            dep.kill_agent(idx)
            deadline = time.monotonic() + 15
            while dep.driver.peer(victim).connected and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not dep.driver.peer(victim).connected

            dep.restart_agent(idx)
            assert dep.driver.peer(victim).wait_connected(timeout=15), (
                "connector did not redial the restarted agent"
            )
            dep.driver.loop.call_soon_threadsafe(gate_box["event"].set)

            results = fut.result(timeout=JOIN_TIMEOUT * 2)
            assert len(results) == N_STRESS_CLIENTS
            untyped = [
                r for r in results
                if isinstance(r, BaseException) and not isinstance(r, ReproError)
            ]
            assert untyped == [], f"untyped failures: {untyped[:5]}"
            oks = sum(1 for r in results if r == "ok")
            # the cluster must have kept serving around the dead agent and
            # fully recovered for the post-restart cohort
            assert oks >= N_STRESS_CLIENTS // 2, f"only {oks} clients succeeded"
            assert len(finished) == N_STRESS_CLIENTS
            # ...and did it coalesced: every group this workload sends a
            # metadata provider is one sub-call, so fewer frames than
            # sub-calls served means concurrent clients shared frames
            # (the metadata agents were never restarted: counters intact)
            meta = [
                stats for address, stats in dep.driver.server_stats().items()
                if address[0] == "meta"
            ]
            meta_rpcs = sum(r for r, _ in meta)
            meta_calls = sum(c for _, c in meta)
            assert 0 < meta_rpcs < meta_calls // 2, (meta_rpcs, meta_calls)
        finally:
            if "event" in gate_box:  # unblock any gated cohort on failure
                dep.driver.loop.call_soon_threadsafe(gate_box["event"].set)
            dep.close()

    assert loop_trouble == [], f"event-loop reports: {loop_trouble[:5]}"
    leaks = [
        str(w.message) for w in caught
        if "never awaited" in str(w.message) or "Task was destroyed" in str(w.message)
    ]
    assert leaks == [], f"leaked coroutines/tasks: {leaks[:5]}"
