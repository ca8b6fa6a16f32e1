"""Batched threaded transport: counter bounds and concurrency stress.

The acceptance bound for the batched transport: one wire RPC to a
destination costs exactly **one queue submission**, and a whole batch
costs **at most one completion wakeup** (only the last destination group
to finish notifies the waiting caller). `ThreadedDriver.transport_stats`
counts both from the caller side; `server_stats` counts served wire RPCs
from the service side — their equality is what proves no hidden per-call
round-trips exist.

The stress test runs N writer x M reader client threads against actors
with injected seeded service delays (which force deep interleavings and
keep many batches in flight), bounded by explicit wall-clock deadlines so
a livelock fails the test instead of hanging CI.
"""

from __future__ import annotations

import random
import threading
import time

from repro.core.client import BlobClient
from repro.core.config import DeploymentSpec
from repro.deploy.threaded import build_threaded
from repro.metadata.provider import MetadataProvider
from repro.metadata.router import StaticRouter
from repro.net.sansio import Batch, Call
from repro.net.threaded import ThreadedDriver
from repro.providers.data_provider import DataProvider
from repro.providers.manager import ProviderManager
from repro.providers.strategies import make_strategy
from repro.util.sizes import KB, MB
from repro.version.manager import VersionManager

PAGE = 4 * KB
TOTAL = 1 * MB


# ---------------------------------------------------------------------------
# transport counters
# ---------------------------------------------------------------------------


class TestTransportCounters:
    def test_single_batch_costs_one_submission_per_destination(self):
        """10 sub-calls to 2 destinations: exactly 2 queue submissions
        (one aggregated inbox item each) and 1 completion wakeup."""
        with ThreadedDriver() as driver:
            for i in range(2):
                driver.register(("data", i), DataProvider(i))

            def proto():
                results = yield Batch(
                    [Call(("data", i % 2), "data.stats") for i in range(10)]
                )
                return results

            results = driver.run(proto())
            assert len(results) == 10
            stats = driver.transport_stats()
            assert stats["batches"] == 1
            assert stats["queue_submissions"] == 2
            assert stats["completion_wakeups"] <= 1
            served = driver.server_stats()
            assert served[("data", 0)] == (1, 5)
            assert served[("data", 1)] == (1, 5)

    def test_wire_rpc_bound_for_a_full_write_read_workload(self):
        """Across a real protocol mix, caller-side submissions == served
        wire RPCs (nothing is enqueued per sub-call) and wakeups never
        exceed one per batch."""
        with build_threaded(DeploymentSpec(n_data=4, n_meta=4)) as dep:
            client = dep.client("counter")
            blob = client.alloc(TOTAL, PAGE)
            client.write(blob, bytes(8 * PAGE), 0)
            client.read_bytes(blob, 0, 8 * PAGE)
            stats = dep.transport_stats()
            served = dep.driver.server_stats()
            total_rpcs = sum(r for r, _ in served.values())
            total_calls = sum(c for _, c in served.values())
            assert stats["queue_submissions"] == total_rpcs
            assert stats["completion_wakeups"] <= stats["batches"]
            # aggregation really happened: the 8 page puts fanned out to 4
            # providers as 4 wire RPCs, not 8
            assert total_calls > total_rpcs

    def test_stale_group_completion_cannot_corrupt_next_batch(self):
        """If a caller unwinds out of a batch (e.g. KeyboardInterrupt)
        with wire groups still queued, their late completions carry a
        stale generation and must not decrement the next batch's
        countdown."""
        from repro.net.threaded import _BatchLatch

        latch = _BatchLatch()
        gen1 = latch.begin(2)
        latch.group_done(gen1)  # one of two groups drains...
        # ...then the caller unwinds without waiting and starts a new batch
        gen2 = latch.begin(1)
        latch.group_done(gen1)  # stale straggler from the aborted batch
        assert latch._pending == 1, "stale completion corrupted the countdown"
        latch.group_done(gen2)
        latch.wait()  # must return immediately

    def test_wakeups_are_the_notifies_the_latch_paid(self):
        """``wait`` reports the notifies of its own batch: one for a batch
        whose last group completes once, more for a group completed twice
        (a bug the ``completion_wakeups <= batches`` bound must catch)."""
        from repro.net.threaded import _BatchLatch

        latch = _BatchLatch()
        gen = latch.begin(3)
        for _ in range(3):
            latch.group_done(gen)
        assert latch.wait() == 1
        gen = latch.begin(1)
        latch.group_done(gen)
        latch.group_done(gen)  # duplicate completion: notifies again
        assert latch.wait() == 2

    def test_a_twice_completed_group_shows_in_the_counters(self, monkeypatch):
        """``completion_wakeups`` is measured at the latch, so a driver
        whose groups complete twice breaks the one-wakeup bound."""
        from repro.net import threaded

        group_done = threaded._BatchLatch.group_done

        def twice(latch, gen):
            with latch._cond:  # both notifies before the caller resumes
                group_done(latch, gen)
                group_done(latch, gen)

        monkeypatch.setattr(threaded._BatchLatch, "group_done", twice)
        with ThreadedDriver() as driver:
            driver.register(("data", 0), DataProvider(0))
            driver.call(("data", 0), "data.stats")
            stats = driver.transport_stats()
        assert stats["batches"] == 1
        assert stats["completion_wakeups"] == 2

    def test_retired_caller_threads_fold_into_stats(self):
        """Counters of dead caller threads must survive their exit."""
        with build_threaded(DeploymentSpec(n_data=2, n_meta=2)) as dep:
            client = dep.client("seed")
            blob = client.alloc(TOTAL, PAGE)

            def one_write(i: int) -> None:
                dep.client(f"w{i}").write(blob, bytes(PAGE), i * PAGE)

            for i in range(6):  # six short-lived caller threads, in turn
                t = threading.Thread(target=one_write, args=(i,))
                t.start()
                t.join(timeout=60)
                assert not t.is_alive()
            client.read_bytes(blob, 0, PAGE)
            stats = dep.transport_stats()
            served = dep.driver.server_stats()
            assert stats["queue_submissions"] == sum(
                r for r, _ in served.values()
            ), "retired threads' submissions were lost"

    def test_counters_aggregate_across_caller_threads(self):
        with build_threaded(DeploymentSpec(n_data=2, n_meta=2)) as dep:
            seed = dep.client("seed")
            blob = seed.alloc(TOTAL, PAGE)
            before = dep.transport_stats()

            def writer(i: int) -> None:
                client = dep.client(f"w{i}")
                client.write(blob, bytes(PAGE), i * PAGE)

            threads = [
                threading.Thread(target=writer, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            stats = dep.transport_stats()
            served = dep.driver.server_stats()
            assert stats["queue_submissions"] == sum(r for r, _ in served.values())
            assert stats["batches"] > before["batches"]
            assert stats["completion_wakeups"] <= stats["batches"]


# ---------------------------------------------------------------------------
# stress: N writers x M readers with injected provider delays
# ---------------------------------------------------------------------------


class DelayedActor:
    """Actor wrapper injecting a seeded service delay before dispatch.

    Delays are tiny but nonzero, which forces real interleavings: many
    caller batches are simultaneously waiting on service queues, readers
    overtake writers, and completion wakeups land while other groups are
    still in flight."""

    def __init__(self, inner, seed: int, max_delay: float = 0.002) -> None:
        self.inner = inner
        self.rng = random.Random(seed)
        self.max_delay = max_delay
        self.calls = 0

    def handle(self, method: str, args: tuple):
        # only the actor's own service thread touches self.rng: no locking
        self.calls += 1
        delay = self.rng.random() * self.max_delay
        if delay > 0:
            time.sleep(delay)
        return self.inner.handle(method, args)


def build_delayed_deployment(n_data: int, n_meta: int, seed: int):
    """A threaded deployment whose every actor has injected delays."""
    spec = DeploymentSpec(n_data=n_data, n_meta=n_meta)
    vm = VersionManager()
    pm = ProviderManager(make_strategy(spec.strategy), replication=1)
    driver = ThreadedDriver()
    driver.register("vm", DelayedActor(vm, seed ^ 1))
    driver.register("pm", DelayedActor(pm, seed ^ 2))
    data = {}
    for i in range(n_data):
        dp = DataProvider(i)
        data[i] = dp
        pm.register(i)
        driver.register(("data", i), DelayedActor(dp, seed ^ (10 + i)))
    meta = {}
    for i in range(n_meta):
        mp = MetadataProvider(i)
        meta[i] = mp
        driver.register(("meta", i), DelayedActor(mp, seed ^ (100 + i)))
    router = StaticRouter(sorted(meta), replication=1)
    return driver, router, vm, data, meta


class TestStressWithInjectedDelays:
    N_WRITERS = 4
    N_READERS = 3
    WRITES_EACH = 6
    DEADLINE = 90.0  # generous wall-clock bound; a hang fails, not stalls CI

    def test_writers_and_readers_under_delay_injection(self):
        driver, router, vm, data, meta = build_delayed_deployment(
            n_data=4, n_meta=3, seed=0x57E55
        )
        with driver:
            alloc_client = BlobClient(driver, router, name="alloc")
            blob = alloc_client.alloc(TOTAL, PAGE)
            npages = 4  # each writer rewrites its whole 4-page range per pass
            errors: list[str] = []
            err_lock = threading.Lock()
            writers_done = threading.Event()

            def fail(msg: str) -> None:
                with err_lock:
                    errors.append(msg)

            def fill(w: int, k: int) -> bytes:
                return bytes([(w * 40 + k) % 251 + 1]) * (npages * PAGE)

            def writer(w: int) -> None:
                client = BlobClient(driver, router, name=f"w{w}")
                base = w * npages * PAGE
                for k in range(self.WRITES_EACH):
                    res = client.write(blob, fill(w, k), base)
                    if res.version < 1:
                        fail(f"w{w}: bad version {res.version}")

            def reader(r: int) -> None:
                client = BlobClient(driver, router, name=f"r{r}")
                rng = random.Random(0xBEEF ^ r)
                while not writers_done.is_set():
                    w = rng.randrange(self.N_WRITERS)
                    base = w * npages * PAGE
                    got = client.read_bytes(blob, base, npages * PAGE)
                    # atomicity: a range is always exactly one writer pass
                    # (or untouched), never a torn mixture
                    legal = [bytes(npages * PAGE)] + [
                        fill(w, k) for k in range(self.WRITES_EACH)
                    ]
                    if got not in legal:
                        fail(f"r{r}: torn read of writer {w}'s range")

            threads = [
                threading.Thread(target=writer, args=(w,), name=f"writer-{w}")
                for w in range(self.N_WRITERS)
            ] + [
                threading.Thread(target=reader, args=(r,), name=f"reader-{r}")
                for r in range(self.N_READERS)
            ]
            start = time.monotonic()
            for t in threads:
                t.start()
            # writers finish first; then release the readers
            stalled: list[str] = []
            for t in threads[: self.N_WRITERS]:
                t.join(timeout=max(0.1, self.DEADLINE - (time.monotonic() - start)))
                if t.is_alive():
                    stalled.append(t.name)
            writers_done.set()
            for t in threads[self.N_WRITERS :]:
                t.join(timeout=max(0.1, self.DEADLINE - (time.monotonic() - start)))
                if t.is_alive():
                    stalled.append(t.name)
            assert not stalled, f"threads stalled past deadline: {stalled}"
            assert errors == []

            # liveness + bookkeeping after the storm
            total = self.N_WRITERS * self.WRITES_EACH
            assert vm.get_latest(blob) == total
            stats = driver.transport_stats()
            served = driver.server_stats()
            assert stats["queue_submissions"] == sum(r for r, _ in served.values())
            assert stats["completion_wakeups"] <= stats["batches"]
            # final state: every range holds its writer's last pass
            check = BlobClient(driver, router, name="check")
            for w in range(self.N_WRITERS):
                got = check.read_bytes(blob, w * npages * PAGE, npages * PAGE)
                assert got == fill(w, self.WRITES_EACH - 1)
