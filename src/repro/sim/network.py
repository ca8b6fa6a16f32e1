"""Cluster and network model calibrated to the paper's testbed.

The evaluation platform (paper §V.B): 50 nodes of the Grid'5000 Rennes
cluster, x86_64, 4 GB RAM, 1 Gbit/s intracluster Ethernet — measured
117.5 MB/s for TCP sockets with MTU 1500 — and 0.1 ms latency.

Model structure:

- every :class:`SimNode` has a CPU lane (rate 1.0: jobs are expressed in
  seconds of work) and full-duplex NIC lanes (``tx``/``rx``, rate in
  bytes/second);
- a remote procedure call is: client CPU (marshal + per-wire-RPC overhead)
  → client NIC tx → link latency → server NIC rx → server CPU (unmarshal +
  per-sub-call service time) → response along the reverse path;
- several sub-calls to the same destination ride one wire RPC (the paper's
  custom aggregating RPC framework, §V.A), paying the fixed overhead once.

All calibration constants live in :class:`ClusterSpec`; the defaults were
fitted so the protocol reproduces the *shape and magnitude* of Figures
3(a-c) — the ``benchmarks/`` targets print the paper-vs-measured
comparison (README.md, "Benchmarks").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.sim.engine import Event, Simulator
from repro.sim.resources import RateLane

MB = 1 << 20


def _default_service_fixed() -> dict[str, float]:
    # Fixed per-sub-call service CPU on the destination node, seconds.
    return {
        # Metadata providers sit on a DHT (BambooDHT in the paper): puts
        # carry an extra asynchronous completion latency (see
        # _default_service_async) on top of this CPU cost.
        "meta.put_node": 80e-6,
        "meta.get_node": 45e-6,
        # Data providers store/serve whole pages in RAM.
        "data.put_page": 40e-6,
        "data.get_page": 30e-6,
        # Version manager bookkeeping: version assignment walks the patch
        # history tree to precompute border references.
        "vm.get_latest": 10e-6,
        "vm.assign": 120e-6,
        "vm.complete": 20e-6,
        "vm.alloc": 20e-6,
        # Provider manager: pick providers for the fresh pages of a write.
        "pm.get_providers": 15e-6,
        "pm.register": 10e-6,
    }


def _default_client_reply_cpu() -> dict[str, float]:
    # Client-side CPU consumed to process each sub-call reply, seconds.
    # Tree-node processing dominates READs (paper §V.C: "the main limiting
    # factor is actually the performance of the client's processing power").
    return {
        "meta.get_node": 95e-6,
        "meta.put_node": 4e-6,
        "data.get_page": 12e-6,
        "data.put_page": 4e-6,
    }


def _default_service_async() -> dict[str, float]:
    # Pure per-sub-call completion latency on the destination that does NOT
    # occupy its CPU lane — models an asynchronous storage backend (the
    # paper's DHT puts are async: routing + replication acknowledgement).
    # Being a delay rather than lane occupancy, it slows a single writer's
    # aggregated put batch (Fig 3b's provider-count effect) without letting
    # twenty concurrent writers queue behind each other (Fig 3c stays flat).
    return {
        "meta.put_node": 120e-6,
        "meta.put_nodes": 120e-6,  # once per shard, whatever it carries
    }


def _default_compute() -> dict[str, float]:
    # Pure client-side computation steps declared by the protocol, priced
    # per unit (seconds/unit).
    return {
        # Building one fresh metadata tree node (hash keys, fill record).
        "client.build_node": 95e-6,
        # Assembling one page buffer for a write / scattering on a read.
        "client.touch_page": 6e-6,
    }


#: The calls that carry a list of tree nodes, each mapped to the per-node
#: method whose rows price every node carried — on top of the call's own
#: default per-call rows, so a batched call is never cheaper in the model
#: than the nodes it carries. ``meta.get_subtree`` and ``meta.get_leaves``
#: carry them in their reply: service CPU per node the provider's walk
#: visited (read off its ``nodes_served``: every node for the subtree, the
#: inner nodes too for the leaves-only reply), client reply CPU per node
#: returned, reply bytes from ``estimate_size`` of the list.
#: ``meta.put_nodes`` carries them in its request: service CPU per node
#: sent, request bytes per node (set by
#: ``metadata/router.py::store_nodes``). What batching saves is round
#: trips, sub-call framing and — for puts — the DHT's asynchronous
#: completion latency, paid once per call (``_default_service_async``).
PER_NODE_ROWS = {
    "meta.get_subtree": "meta.get_node",
    "meta.get_leaves": "meta.get_node",
    "meta.put_nodes": "meta.put_node",
}


@dataclass(frozen=True)
class ClusterSpec:
    """Calibration constants for the simulated cluster."""

    latency: float = 0.1e-3  # one-way link latency, seconds
    bandwidth: float = 117.5 * MB  # NIC rate, bytes/second (measured TCP)
    rpc_overhead: float = 25e-6  # fixed CPU per wire RPC, each side
    per_call_marshal: float = 3e-6  # marginal CPU per aggregated sub-call
    conn_mgmt: float = 45e-6  # client CPU per destination per batch
    wire_header: int = 96  # bytes of envelope per wire RPC
    per_call_header: int = 32  # bytes of framing per aggregated sub-call
    # Per-byte end-host costs folded into the effective NIC rates (a
    # CPU-bound endpoint runs below wire speed): effective tx rate =
    # 1 / (1/bandwidth + tx_byte_cpu), likewise rx. Client machines do the
    # application-side copying/deserialization and are the CPU-bound side
    # (this reproduces the paper's ~85 MB/s cached-read ceiling against a
    # 117.5 MB/s wire); providers are dedicated RAM stores and run close
    # to wire speed.
    client_tx_byte_cpu: float = 1.0e-9
    client_rx_byte_cpu: float = 3.1e-9
    server_tx_byte_cpu: float = 0.3e-9
    server_rx_byte_cpu: float = 0.3e-9
    server_byte_cpu: float = 0.8e-9  # request/response handling CPU per byte
    service_async: dict[str, float] = field(default_factory=_default_service_async)
    #: stream sub-calls to one destination in a single wire RPC (paper
    #: §V.A); False = naive one-RPC-per-call (ablation C)
    aggregate: bool = True
    service_fixed: dict[str, float] = field(default_factory=_default_service_fixed)
    client_reply_cpu: dict[str, float] = field(default_factory=_default_client_reply_cpu)
    compute: dict[str, float] = field(default_factory=_default_compute)

    #: default per-sub-call costs for methods absent from the tables
    DEFAULT_SERVICE_TIME = 25e-6
    DEFAULT_REPLY_CPU = 2e-6

    def tx_rate(self, role: str) -> float:
        """Effective transmit rate for a node role (client/server)."""
        byte_cpu = self.client_tx_byte_cpu if role == "client" else self.server_tx_byte_cpu
        return 1.0 / (1.0 / self.bandwidth + byte_cpu)

    def rx_rate(self, role: str) -> float:
        """Effective receive rate for a node role (client/server)."""
        byte_cpu = self.client_rx_byte_cpu if role == "client" else self.server_rx_byte_cpu
        return 1.0 / (1.0 / self.bandwidth + byte_cpu)

    def __post_init__(self) -> None:
        # Per-method cost rows, resolved once and memoized: the RPC hot path
        # pays one dict lookup per sub-call instead of three.
        object.__setattr__(self, "_cost_cache", {})

    def method_costs(self, method: str) -> tuple[float, float, float]:
        """``(service CPU, client reply CPU, async latency)`` for a method."""
        cache = self._cost_cache
        costs = cache.get(method)
        if costs is None:
            costs = (
                self.service_fixed.get(method, self.DEFAULT_SERVICE_TIME),
                self.client_reply_cpu.get(method, self.DEFAULT_REPLY_CPU),
                self.service_async.get(method, 0.0),
            )
            cache[method] = costs
        return costs

    def compute_cost(self, key: str, units: float) -> float:
        try:
            return self.compute[key] * units
        except KeyError:
            raise KeyError(f"unknown compute cost key {key!r}") from None


class SimNode:
    """One physical node: a CPU lane plus full-duplex NIC lanes."""

    __slots__ = ("name", "sim", "role", "cpu", "tx", "rx")

    def __init__(
        self, sim: Simulator, name: str, spec: ClusterSpec, role: str = "server"
    ) -> None:
        if role not in ("client", "server"):
            raise ValueError(f"role must be 'client' or 'server', got {role!r}")
        self.name = name
        self.sim = sim
        self.role = role
        self.cpu = RateLane(sim, 1.0)  # work expressed directly in seconds
        self.tx = RateLane(sim, spec.tx_rate(role))
        self.rx = RateLane(sim, spec.rx_rate(role))

    def __repr__(self) -> str:
        return f"<SimNode {self.name} ({self.role})>"


class Network:
    """A set of nodes plus the message-timing primitive."""

    def __init__(self, sim: Simulator, spec: ClusterSpec | None = None) -> None:
        self.sim = sim
        self.spec = spec or ClusterSpec()
        self.nodes: dict[str, SimNode] = {}
        self.messages_sent = 0
        self.bytes_sent = 0

    def add_node(self, name: str, role: str = "server") -> SimNode:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = SimNode(self.sim, name, self.spec, role)
        self.nodes[name] = node
        return node

    def transfer(
        self, src: SimNode, dst: SimNode, nbytes: int
    ) -> Generator[Event, Any, None]:
        """One-way message: tx serialization, latency, rx serialization.

        Loopback (src is dst) costs only a small in-memory handoff.
        """
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if src is dst:
            yield self.sim.timeout(1e-6)
            return
        # tx serialization and link latency ride one scheduled event; the
        # receive side is still submitted at the arrival instant.
        yield src.tx.submit(nbytes, self.spec.latency)
        yield dst.rx.submit(nbytes)
