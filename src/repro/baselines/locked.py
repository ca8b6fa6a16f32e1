"""Global reader-writer-lock baseline on the simulated cluster.

:class:`LockedClusterSim` is the performance baseline. Data movement is
identical to the lock-free system's data phase (pages striped over
providers, NIC-accurate transfers); the difference is a global lock
(:class:`SimRWLock`) around every access. Writers serialize end-to-end, so
aggregate write bandwidth is one client's bandwidth regardless of client
count — the collapse ablation bench A measures.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Literal

from repro.core.config import DeploymentSpec
from repro.sim.engine import Event, Simulator
from repro.sim.network import ClusterSpec, Network, SimNode

Kind = Literal["read", "write"]


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


class LockedClusterSim:
    """The lock-based system on the simulated cluster."""

    def __init__(
        self,
        spec: DeploymentSpec | None = None,
        cluster: ClusterSpec | None = None,
    ) -> None:
        self.spec = spec or DeploymentSpec()
        self.sim = Simulator()
        self.network = Network(self.sim, cluster)
        self.lock_node = self.network.add_node("lock-manager")
        self.lock = SimRWLock(self.sim)
        self.provider_nodes = [
            self.network.add_node(f"prov-{i}") for i in range(self.spec.n_data)
        ]
        self.client_nodes = [
            self.network.add_node(f"client-{i}", role="client")
            for i in range(self.spec.n_clients)
        ]

    def counters(self) -> dict[str, int]:
        """Engine-load counters (same keys as SimDeployment where defined)."""
        return {
            "events_processed": self.sim.events_processed,
            "processes_started": self.sim._processes_started,
            "messages_sent": self.network.messages_sent,
            "bytes_sent": self.network.bytes_sent,
        }

    def access_proto(
        self, client_index: int, size: int, kind: Kind
    ) -> Generator[Event, None, float]:
        """One locked access; returns its duration in simulated seconds."""
        sim, net, spec = self.sim, self.network, self.network.spec
        client = self.client_nodes[client_index]
        start = sim.now

        # 1. global lock acquisition (request + grant over the wire)
        yield from net.transfer(client, self.lock_node, 64)
        yield self.lock_node.cpu.submit(spec.rpc_overhead)
        yield self.lock.acquire(kind)
        yield from net.transfer(self.lock_node, client, 64)

        # 2. data phase: identical striping to the lock-free system
        try:
            per = size // len(self.provider_nodes)
            rem = size % len(self.provider_nodes)
            procs = []
            for i, prov in enumerate(self.provider_nodes):
                chunk = per + (1 if i < rem else 0)
                if chunk == 0:
                    continue
                procs.append(
                    sim.process(
                        self._chunk_transfer(client, prov, chunk, kind),
                        name=f"locked-{kind}-{i}",
                    )
                )
            if procs:
                yield sim.all_of(procs)
        finally:
            # 3. release (one-way message; lock state updates on delivery)
            yield from net.transfer(client, self.lock_node, 32)
            self.lock.release(kind)
        return sim.now - start

    def _chunk_transfer(
        self, client: SimNode, prov: SimNode, chunk: int, kind: Kind
    ) -> Generator[Event, None, None]:
        spec = self.network.spec
        if kind == "write":
            yield client.cpu.submit(spec.rpc_overhead)
            yield from self.network.transfer(client, prov, chunk)
            yield prov.cpu.submit(spec.rpc_overhead + spec.server_byte_cpu * chunk)
        else:
            yield from self.network.transfer(client, prov, 64)  # request
            yield prov.cpu.submit(spec.rpc_overhead + spec.server_byte_cpu * chunk)
            yield from self.network.transfer(prov, client, chunk)
            yield client.cpu.submit(spec.rpc_overhead)

    def run_clients(
        self, n_clients: int, iterations: int, size: int, kind: Kind
    ) -> list[float]:
        """Per-client mean bandwidth (MB/s) for a concurrent access loop."""
        results: list[list[float]] = [[] for _ in range(n_clients)]

        def client_loop(idx: int) -> Generator[Event, None, None]:
            for _ in range(iterations):
                duration = yield from self.access_proto(idx, size, kind)
                results[idx].append(duration)

        procs = [
            self.sim.process(client_loop(i), name=f"client-{i}")
            for i in range(n_clients)
        ]
        self.sim.run(until=self.sim.all_of(procs))
        mb = size / (1 << 20)
        return [mb * len(ds) / sum(ds) for ds in results]
