"""Simulated RPC driver: runs sans-io protocols on the cluster model.

Each protocol instance becomes a process on its client's
:class:`~repro.sim.network.SimNode`; a :class:`SimDriver` is the driver
of one such node, so a :class:`~repro.core.client.BlobClient` runs on the
simulator as on any other deployment. Batches are executed with full cost
accounting:

1. client CPU: connection management per destination, per-wire-RPC fixed
   overhead, per-sub-call marshalling;
2. client NIC tx serialization of the aggregated request, link latency,
   server NIC rx;
3. server CPU: per-wire-RPC overhead plus per-sub-call service time — this
   lane is shared by all clients of that server, which is exactly where
   contention appears in the concurrent-clients experiment;
4. handler execution (state mutation) at the simulated completion instant,
   so e.g. version-number assignment is serialized in simulated time (a
   failed address answers ``PeerUnavailable`` at that instant instead);
5. the response travels back the same way; the client pays a per-reply
   processing cost (tree-node decoding dominates READs, per the paper).

``Compute`` operations charge the client CPU lane using the calibrated
per-unit costs in :class:`~repro.sim.network.ClusterSpec`.

:class:`SimDriver` is a :class:`~repro.net.sansio.Driver` with no
caller-side transport: ``transport_stats`` is ``None``, and
``server_stats`` reads ``telemetry`` as on every driver.

Hot-path notes: this driver executes every RPC of every benchmark figure,
so the batch path is written for constant-factor speed — single-call and
single-destination batches run their one group inline (no fan-in and no
completion hop), multi-group fan-out rides the engine's one fan-in,
:class:`~repro.sim.engine.Join`, per-method costs come from the memoized
:meth:`~repro.sim.network.ClusterSpec.method_costs` table, and
adjacent same-instant lane waits are fused with deferred-start
submissions (``RateLane.push`` + ``not_before``) so a wire RPC costs four
scheduled events end to end, with unchanged lane occupancy.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import RemoteError, ReproError
from repro.net.message import estimate_size
from repro.net.sansio import (
    Actor,
    Address,
    Batch,
    Call,
    Compute,
    Driver,
    Protocol,
    deliver,
    dispatch_call,
    plan_wire_groups,
    step,
)
from repro.obs.spans import SIM_DOMAIN, current_op, make_span, new_span_id
from repro.obs.telemetry import telemetry_report
from repro.sim.engine import Event, Process, Simulator
from repro.sim.network import PER_NODE_ROWS, Network, SimNode

#: the node-carrying calls that walk the provider's store
_WALKS = frozenset(("meta.get_subtree", "meta.get_leaves"))


class SimRpcExecutor:
    """Registry of simulated actors plus the batch executor every
    :class:`SimDriver` of the cluster shares."""

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self.spec = network.spec
        #: address -> (actor, its node, its served [wire RPCs, sub-calls])
        self._actors: dict[Address, tuple[Actor, SimNode, list[int]]] = {}
        self._down: dict[Address, str] = {}
        self.wire_rpcs = 0
        self.sub_calls = 0
        #: modeled-timeline spans (``repro.spans/1`` dicts, sim-time ns,
        #: domain :data:`~repro.obs.spans.SIM_DOMAIN`) recorded while a
        #: trace is open; appended at group completion, so tracing adds
        #: **no scheduled events** and never perturbs simulated series
        self.spans: list[dict[str, Any]] = []

    def register(self, address: Address, actor: Actor, node: SimNode) -> None:
        if address in self._actors:
            raise ValueError(f"address {address!r} already registered")
        self._actors[address] = (actor, node, [0, 0])

    def node_of(self, address: Address) -> SimNode:
        return self._actors[address][1]

    def _execute_batch(
        self, client_node: SimNode, batch: Batch
    ) -> Generator[Event, Any, list[Any]]:
        # One wire RPC per destination (the aggregating framework of paper
        # §V.A); with aggregation disabled every sub-call pays full freight.
        # Framing is shared with the threaded driver: both execute exactly
        # the groups `plan_wire_groups` plans.
        calls = batch.calls
        groups = plan_wire_groups(calls, self.spec.aggregate)

        # Fast path: a single wire RPC runs inline — no fan-out machinery,
        # and results come back already in call order. A one-child Join
        # gives the same series but measured ~4 % slower on a
        # single-client write/read series.
        if len(groups) == 1:
            dest, group_calls, _ = groups[0]
            values = yield from self._execute_group(client_node, dest, group_calls)
            return deliver(calls, values)

        # Fan-out: one Join drives every group generator in place.
        results: list[Any] = [None] * len(calls)
        gens = [
            self._execute_group(client_node, dest, group_calls)
            for dest, group_calls, _ in groups
        ]
        all_values = yield self.sim.join(gens)
        for group, values in zip(groups, all_values):
            for index, value in zip(group.indices, values):
                results[index] = value
        return deliver(calls, results)

    def _execute_group(
        self, client_node: SimNode, dest: Address, calls: list[Call]
    ) -> Generator[Event, Any, list[Any]]:
        """One aggregated wire RPC to a single destination."""
        entry = self._actors.get(dest)
        if entry is None:
            raise KeyError(f"no actor registered at address {dest!r}")
        actor, server_node, served = entry
        sim = self.sim
        spec = self.spec
        network = self.network
        method_costs = spec.method_costs
        n = len(calls)
        self.wire_rpcs += 1
        self.sub_calls += n
        op = current_op()
        t_req = sim.now if op is not None else 0.0

        # One pass over the sub-calls resolves request payload bytes and the
        # per-method cost rows (service CPU, reply CPU, async latency).
        # Aggregated groups are overwhelmingly single-method, so the cost
        # row is only re-fetched when the method string changes.
        req_payload = 0
        service_sum = 0.0
        reply_sum = 0.0
        async_sum = 0.0
        prev_method = None
        costs = (0.0, 0.0, 0.0)
        node_rows = None  # per-node rows of the current method, if it has
        walks = False
        for c in calls:
            rb = c.request_bytes
            req_payload += rb if rb is not None else estimate_size(c.args)
            method = c.method
            if method is not prev_method:
                costs = method_costs(method)
                prev_method = method
                node_rows = PER_NODE_ROWS.get(method)
                walks = walks or method in _WALKS
            service_sum += costs[0]
            reply_sum += costs[1]
            async_sum += costs[2]
            if node_rows is not None and c.args[0].__class__ is list:
                # a shard of nodes in the request: n × the per-node service
                service_sum += len(c.args[0]) * method_costs(node_rows)[0]

        # The cost pipeline below is the same lane sequence as ever —
        # client CPU -> client tx -> link -> server rx -> server CPU [->
        # async] -> handlers -> server CPU -> server tx -> link -> client
        # rx -> client CPU — but adjacent waits are fused: work whose
        # completion only gates the *next* lane is pushed without an
        # event (``push``) and the next lane starts ``not_before`` it
        # finishes. Four scheduled events per wire RPC instead of ten.
        # Sequential (uncontended) timing is arithmetically identical to
        # the unfused sequence. Under contention the queueing discipline
        # shifts slightly: a fused job reserves its lane slot when its
        # predecessor is *submitted* (arrival order) rather than when the
        # predecessor *finishes*, so two jobs racing for one lane can
        # swap places relative to the step-by-step model. This is still
        # deterministic and work-conserving — the benchmark series were
        # re-baselined with this discipline.
        send_cpu = spec.conn_mgmt + spec.rpc_overhead + spec.per_call_marshal * n
        service = spec.rpc_overhead + service_sum + spec.server_byte_cpu * req_payload
        req_bytes = spec.wire_header + spec.per_call_header * n + req_payload
        network.messages_sent += 1
        network.bytes_sent += req_bytes
        loopback = client_node is server_node
        # 1+2. client send CPU, tx serialization and link latency: one wait
        cpu_done = client_node.cpu.push(send_cpu)
        if loopback:
            yield sim.timeout(cpu_done - sim.now + 1e-6)
        else:
            yield client_node.tx.submit(
                req_bytes, extra_delay=spec.latency, not_before=cpu_done
            )
            # 3. arrival: rx serialization, then server-side service (fixed
            # per sub-call + payload-proportional) plus the asynchronous
            # backend completion latency (3b, a pure delay off the CPU lane)
        rx_done = 0.0 if loopback else server_node.rx.push(req_bytes)
        yield server_node.cpu.submit(
            service, extra_delay=async_sum, not_before=rx_done
        )
        t_served = sim.now
        # 4. handler execution at the simulated completion instant
        reason = self._down.get(dest)
        walked: list[int] | None = None
        if reason is not None:
            values = [RemoteError("PeerUnavailable", reason) for _ in calls]
        else:
            served[0] += 1
            served[1] += n
            if walks:
                # a walk's service is priced per node it visited, which only
                # the provider knows: its ``nodes_served`` moves by exactly that
                values = []
                walked = []
                for c in calls:
                    before = actor.nodes_served
                    values.append(dispatch_call(actor, c))
                    walked.append(actor.nodes_served - before)
            else:
                values = [dispatch_call(actor, c) for c in calls]
        # 5. response: server reply-handling CPU, tx, link, client rx
        resp_payload = 0
        for v in values:
            resp_payload += estimate_size(v)
        resp_bytes = spec.wire_header + spec.per_call_header * n + resp_payload
        network.messages_sent += 1
        network.bytes_sent += resp_bytes
        resp_cpu = spec.server_byte_cpu * resp_payload
        if walked is not None:
            # a reply carrying nodes costs what they would have one by one:
            # the per-node service row for each node the walk visited here
            # (known only now that the handler ran), the per-node reply row
            # on the client for each node returned
            for c, v, visited in zip(calls, values, walked):
                if v.__class__ is list and c.method in _WALKS:
                    node_service, node_reply, _ = method_costs(PER_NODE_ROWS[c.method])
                    resp_cpu += visited * node_service
                    reply_sum += len(v) * node_reply
        resp_cpu_done = server_node.cpu.push(resp_cpu)
        if loopback:
            yield sim.timeout(resp_cpu_done - sim.now + 1e-6)
            crx_done = 0.0
        else:
            yield server_node.tx.submit(
                resp_bytes, extra_delay=spec.latency, not_before=resp_cpu_done
            )
            crx_done = client_node.rx.push(resp_bytes)
        # 6. client-side receive path CPU (reply decoding / processing)
        yield client_node.cpu.submit(
            spec.rpc_overhead + reply_sum, not_before=crx_done
        )
        if op is not None:
            self._record_spans(
                op.trace, op.span, dest, calls, req_bytes, t_req, rx_done, t_served,
                sim.now,
            )
        return values

    def _record_spans(
        self,
        trace: int,
        parent: int,
        dest: Address,
        calls: list[Call],
        req_bytes: int,
        t_req: float,
        rx_done: float,
        t_served: float,
        t_done: float,
    ) -> None:
        """Append the group's modeled rpc + server spans (sim-time ns).

        Same schema as the real drivers' spans, so a modeled timeline
        diffs directly against a measured one. The server window runs
        from request arrival (``rx_done``; request enqueue for loopback)
        to service completion — queue wait on the server CPU lane is
        inside the window, reported as ``queue_ns`` zero because the
        lane model doesn't expose per-job start instants.
        """
        from repro.net.address import format_actor

        span_id = new_span_id()
        label = format_actor(dest)
        method = calls[0].method
        if any(c.method != method for c in calls):
            method = "mixed"
        t_arrive = rx_done if rx_done > t_req else t_req
        self.spans.append(
            make_span(
                trace, span_id, parent, "rpc", label, "client",
                int(t_req * 1e9), int(t_done * 1e9),
                domain=SIM_DOMAIN, nbytes=req_bytes,
            )
        )
        self.spans.append(
            make_span(
                trace, new_span_id(), span_id, "server", method, label,
                int(t_arrive * 1e9), int(t_served * 1e9),
                domain=SIM_DOMAIN, nbytes=req_bytes,
            )
        )


class SimDriver(Driver):
    """The driver of one simulated client node: ``run`` / ``spawn`` /
    ``call`` as on every driver, plus ``drive`` for protocols that run
    inside another simulated process. The drivers of one executor share
    its actors, served counters and failed addresses: a fault set through
    any of them holds for every simulated client."""

    def __init__(self, executor: SimRpcExecutor, node: SimNode) -> None:
        self.executor = executor
        self.node = node
        self._actors = executor._actors
        self._down = executor._down

    def addresses(self) -> list[Address]:
        return list(self._actors)

    def telemetry(self, address: Address) -> dict[str, Any]:
        """One actor's telemetry report, same shape as the real drivers';
        its service times are *host* nanoseconds around the handler body,
        unrelated to simulated time."""
        self._raise_if_failed(address)
        actor, _, (wire_rpcs, sub_calls) = self._actors[address]
        return telemetry_report(actor, wire_rpcs, sub_calls)

    def drive(self, proto: Protocol[Any]) -> Generator[Event, Any, Any]:
        """The process body running ``proto`` on this node, for
        ``yield from`` inside a simulated process: stepped by
        :func:`~repro.net.sansio.step`, which hands each ``Compute`` back
        to be charged to this node's CPU lane."""
        executor, node = self.executor, self.node
        try:
            op = step(proto, compute=True)
            while True:
                if op.__class__ is Compute:
                    cost = executor.spec.compute_cost(op.key, op.units)
                    if cost > 0:
                        yield node.cpu.submit(cost)
                    op = step(proto, compute=True)
                    continue
                try:
                    results = yield from executor._execute_batch(node, op)
                except ReproError as exc:
                    op = step(proto, error=exc, compute=True)
                else:
                    op = step(proto, results, compute=True)
        except StopIteration as stop:
            return stop.value

    def spawn(self, proto: Protocol[Any]) -> Process:
        """Start ``proto`` as a simulated process on this node; its
        ``result()`` advances the simulation until it ends."""
        proc = self.executor.sim.process(self.drive(proto), name=self.node.name)
        proc.defuse()  # its error goes to ``result()``, not to a later run
        return proc

    def run(self, proto: Protocol[Any]) -> Any:
        """Run ``proto`` to its end on this node; returns its value."""
        return self.spawn(proto).result()
