"""Workload generators for the benchmark harness.

Reproduces the paper's access patterns: single-client segment sweeps for
the metadata-overhead experiments, and the concurrent-clients loop —
"access various disjoint segments within a 1 GB interval of the data
string in a 100-iteration loop" — for the throughput experiment. The same
loop, given a :class:`SimRWLock`, runs every op under a global
reader-writer lock: the conventional design the paper's lock-free writes
are measured against (ablation bench A).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator, Literal

from repro.core.client import AsyncBlobClient, BlobClient
from repro.deploy.simulated import SimDeployment
from repro.sim.engine import Event, Simulator
from repro.util.rng import substream
from repro.util.sizes import GB

Kind = Literal["read", "write"]


@dataclass
class SegmentPicker:
    """Per-client pseudo-random disjoint segment selector.

    The window is divided into ``window // segment`` slots; each client
    walks its own seeded permutation of the slots, re-permuting every lap.
    Concurrent clients therefore hit *different* slots at any instant
    (disjoint segments, as in the paper) while all slots get used.
    """

    window: int = 1 * GB
    segment: int = 8 << 20
    base: int = 0
    seed: int = 1234

    def offsets(self, client_index: int) -> Generator[int, None, None]:
        nslots = self.window // self.segment
        if nslots < 1:
            raise ValueError("window smaller than one segment")
        rng = substream(self.seed, "picker", client_index)
        while True:
            for slot in rng.permutation(nslots):
                yield self.base + int(slot) * self.segment


class SimRWLock:
    """FIFO reader-writer lock on simulated time.

    Requests are granted strictly in arrival order; consecutive readers at
    the head of the queue are granted together (shared access), a writer
    is granted alone.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._queue: deque[tuple[Kind, Event]] = deque()
        self._active_readers = 0
        self._writer_active = False
        self.max_readers = 0

    def acquire(self, kind: Kind) -> Event:
        ev = self.sim.event()
        self._queue.append((kind, ev))
        self._drain()
        return ev

    def release(self, kind: Kind) -> None:
        if kind == "write":
            assert self._writer_active
            self._writer_active = False
        else:
            assert self._active_readers > 0
            self._active_readers -= 1
        self._drain()

    def _drain(self) -> None:
        while self._queue:
            kind, ev = self._queue[0]
            if kind == "write":
                if self._writer_active or self._active_readers:
                    return
                self._queue.popleft()
                self._writer_active = True
                ev.succeed(None)
                return
            if self._writer_active:
                return
            self._queue.popleft()
            self._active_readers += 1
            self.max_readers = max(self.max_readers, self._active_readers)
            ev.succeed(None)


def populate_window(
    client: BlobClient, blob_id: str, window: int, segment: int, base: int = 0
) -> int:
    """Pre-write a window so reads have data under them; returns versions
    written. Runs synchronously on the simulated clock (setup phase)."""
    versions = 0
    for offset in range(base, base + window, segment):
        client.write_virtual(blob_id, offset, segment)
        versions += 1
    return versions


def client_access_loop(
    dep: SimDeployment,
    client: AsyncBlobClient,
    blob_id: str,
    picker: SegmentPicker,
    client_index: int,
    iterations: int,
    kind: str,
    durations: list[float],
    lock: SimRWLock | None = None,
) -> Generator[Event, None, None]:
    """Simulated process: one client's access loop, unsynchronized unless
    a ``lock`` is given.

    With a lock, every op is bracketed by it, priced as messages through
    the deployment's network to a ``lock-manager`` node (added on first
    use): to acquire, a 64 B request, one ``rpc_overhead`` on that node's
    CPU, the grant, a 64 B reply; to release, a 32 B one-way message, after
    which the lock state changes. A writer holds the lock through its
    whole WRITE (alloc, data, metadata, publication), so writers serialize
    end to end while readers share it.

    Appends each operation's simulated duration, lock wait included, to
    ``durations``.
    """
    if kind not in ("read", "write"):
        raise ValueError(f"unknown access kind {kind!r}")
    if lock is not None:
        net, node = dep.network, dep.client_nodes[client_index]
        lock_node = net.nodes.get("lock-manager") or net.add_node("lock-manager")
    offsets = picker.offsets(client_index)
    for _ in range(iterations):
        offset = next(offsets)
        start = dep.sim.now
        if lock is not None:
            yield from net.transfer(node, lock_node, 64)
            yield lock_node.cpu.submit(net.spec.rpc_overhead)
            yield lock.acquire(kind)
            yield from net.transfer(lock_node, node, 64)
        if kind == "write":
            yield from client.write_virtual(blob_id, offset, picker.segment)
        else:
            yield from client.read_virtual(blob_id, offset, picker.segment)
        if lock is not None:
            yield from net.transfer(node, lock_node, 32)
            lock.release(kind)
        durations.append(dep.sim.now - start)


def run_concurrent_clients(
    dep: SimDeployment,
    blob_id: str,
    n_clients: int,
    iterations: int,
    picker: SegmentPicker,
    kind: str,
    cached: bool = False,
    lock: SimRWLock | None = None,
) -> list[float]:
    """Run the paper's concurrent-clients experiment for one point.

    Returns per-client mean bandwidth in MB/s. ``cached=True`` gives each
    reader a metadata cache and a warm-up lap over every slot first (the
    paper's "Read (cached metadata)" series; the uncached series disables
    caching entirely, the paper's worst case). ``lock`` runs every op
    under it (:func:`client_access_loop`).
    """
    per_client = run_concurrent_client_durations(
        dep, blob_id, n_clients, iterations, picker, kind, cached=cached, lock=lock
    )
    mb = picker.segment / (1 << 20)
    return [mb * len(ds) / sum(ds) for ds in per_client]


def run_concurrent_client_durations(
    dep: SimDeployment,
    blob_id: str,
    n_clients: int,
    iterations: int,
    picker: SegmentPicker,
    kind: str,
    cached: bool = False,
    lock: SimRWLock | None = None,
) -> list[list[float]]:
    """The same experiment, returning every operation's simulated duration
    (seconds), one list per client in client order.

    This is the raw series behind both the bandwidth means
    (:func:`run_concurrent_clients`) and the tail-latency quantiles
    (``benchmarks/test_tail_latency.py``): per-op durations preserve the
    distribution that a mean throws away.
    """
    clients = [
        dep.async_client(f"{kind}-client-{i}", index=i, cached=cached)
        for i in range(n_clients)
    ]
    # every client learns the geometry (one vm.stat) before the loops
    # start: the lanes idle out after, so no measured op contains it
    dep.sim.run(until=dep.sim.join(client.open(blob_id) for client in clients))
    if cached and kind == "read":
        # Steady-state cached reads: warm each client's cache out of band
        # (zero simulated time; the paper measures the warm regime). One
        # provider sweep fills a template; every client's private cache
        # bulk-adopts it at C speed.
        dep.warm_client_cache(clients[0], blob_id)
        template = clients[0].cache
        assert template is not None
        for client in clients[1:]:
            assert client.cache is not None
            client.cache.preload_from(template)
    per_client: list[list[float]] = [[] for _ in range(n_clients)]
    loops = dep.sim.join(
        client_access_loop(
            dep, clients[i], blob_id, picker, i, iterations, kind,
            per_client[i], lock,
        )
        for i in range(n_clients)
    )
    dep.sim.run(until=loops)
    return per_client
