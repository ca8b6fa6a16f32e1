"""Sans-io protocol vocabulary.

A *protocol* is a generator that yields operations and receives their
results; the protocol never touches sockets, threads or clocks, so the same
code runs under direct dispatch, real threads, or the discrete-event
simulator. This mirrors how the paper's client logic is one algorithm
regardless of deployment.

Operations:

- :class:`Batch` — a set of RPCs to execute **in parallel**; the driver
  resumes the protocol with the list of results in call order. Calls to the
  same destination are aggregated into one wire message by every driver.
- :class:`Compute` — a declaration of pure client-side work (``units`` of a
  named cost), so the simulator can charge client CPU for work that in a
  real deployment happens between RPCs (building tree nodes, assembling
  buffers). Non-simulated drivers treat it as a no-op, because there the
  work is actually performed by the surrounding Python code.

Failure semantics: a handler exception is wrapped in
:class:`~repro.errors.RemoteError`. By default the driver raises it at the
protocol's ``yield`` point. Calls created with ``allow_error=True`` instead
deliver the error object in the result slot, which lets protocols implement
fail-over (e.g. reading a page replica after a provider crash).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from time import perf_counter_ns
from typing import (
    Any,
    Callable,
    Generator,
    Hashable,
    Mapping,
    NamedTuple,
    Protocol as TypingProtocol,
    Sequence,
    TypeVar,
    Union,
)

from repro.errors import RemoteError, ReproError
from repro.net.message import estimate_size
from repro.obs.telemetry import TELEMETRY_METHOD, telemetry_of

Address = Hashable
T = TypeVar("T")


class Call(NamedTuple):
    """One remote procedure call.

    A NamedTuple rather than a dataclass: protocols mint one ``Call`` per
    sub-call per batch (hundreds per WRITE), and tuple construction is a
    single C call where a frozen dataclass pays ``object.__setattr__`` per
    field.
    """

    dest: Address
    method: str
    args: tuple = ()
    #: estimated request payload bytes (defaults from args at driver level)
    request_bytes: int | None = None
    #: deliver RemoteError as a result instead of raising (fail-over paths)
    allow_error: bool = False

    def payload_bytes(self) -> int:
        if self.request_bytes is not None:
            return self.request_bytes
        return estimate_size(self.args)


@dataclass(frozen=True, slots=True)
class Batch:
    """Parallel RPC batch; results come back in call order."""

    calls: tuple[Call, ...]

    def __init__(self, calls: Any) -> None:
        object.__setattr__(self, "calls", tuple(calls))

    def __len__(self) -> int:
        return len(self.calls)


@dataclass(frozen=True, slots=True)
class Compute:
    """Pure client-side work declaration (priced only by the simulator)."""

    key: str
    units: float = 1.0


@dataclass(frozen=True, slots=True)
class Mark:
    """Ask the driver for the current time (phase instrumentation).

    The driver resumes the protocol with a float timestamp: simulated
    seconds under the simulator, ``time.monotonic()`` elsewhere. Protocols
    use it to fill caller-supplied trace dicts so benches can separate
    metadata-phase from data-phase time, matching what the paper's Figure
    3(a)/(b) actually plot.
    """

    name: str


Op = Union[Batch, Compute, Mark]
Protocol = Generator[Op, Any, T]


class WireGroup(NamedTuple):
    """One wire RPC: the sub-calls bound for a single destination.

    ``indices`` maps each sub-call back to its slot in the originating
    batch (``results[indices[k]] = value_of(calls[k])``); the single-group
    fast path uses a ``range``, which zips just like a list.
    """

    dest: Address
    calls: list[Call]
    indices: Sequence[int]


def plan_wire_groups(
    calls: Sequence[Call], aggregate: bool = True
) -> list[WireGroup]:
    """Frame a batch's sub-calls into wire RPCs, one per destination.

    This is the aggregating RPC framework of the paper (§V.A) as a shared,
    driver-agnostic planning step: the threaded and simulated drivers both
    execute exactly the groups returned here, so "one queue submission /
    one simulated message per destination" is a property of this function,
    not of each driver separately. With ``aggregate=False`` every sub-call
    becomes its own wire RPC (the paper's no-aggregation ablation).

    The common shapes never build the grouping dict: an empty batch, a
    single call, and an all-one-destination batch are recognized with one
    scan. Group order is first-occurrence order of each destination, which
    keeps simulated schedules (and therefore benchmark series) identical
    to per-driver grouping.
    """
    n = len(calls)
    if n == 0:
        return []
    first_dest = calls[0].dest
    if n == 1:
        return [WireGroup(first_dest, list(calls), range(1))]
    if not aggregate:
        return [
            WireGroup(call.dest, [call], (index,))
            for index, call in enumerate(calls)
        ]
    single_dest = True
    for call in calls:
        if call.dest != first_dest:
            single_dest = False
            break
    if single_dest:
        return [WireGroup(first_dest, list(calls), range(n))]
    grouped: dict[Address, tuple[list[Call], list[int]]] = {}
    for index, call in enumerate(calls):
        entry = grouped.get(call.dest)
        if entry is None:
            entry = grouped[call.dest] = ([], [])
        entry[0].append(call)
        entry[1].append(index)
    return [
        WireGroup(dest, group_calls, indices)
        for dest, (group_calls, indices) in grouped.items()
    ]


class Actor(TypingProtocol):
    """Anything that can serve RPCs: a single ``handle`` entry point."""

    def handle(self, method: str, args: tuple) -> Any: ...


def dispatch_call(actor: Actor, call: Call) -> Any:
    """Invoke a handler, converting exceptions into :class:`RemoteError`.

    Returns either the handler's value or a RemoteError instance; the
    caller decides (based on ``call.allow_error``) whether to raise.

    This is also where telemetry lives: every driver funnels sub-calls
    through here, so timing the handler here measures service time the
    same way on every deployment substrate, and intercepting the
    ``telemetry`` mini-protocol method here makes *every* actor answer it
    without any actor knowing about it.
    """
    if call.method == TELEMETRY_METHOD:
        return telemetry_of(actor).snapshot()
    t0 = perf_counter_ns()
    try:
        result = actor.handle(call.method, call.args)
        error = False
    except Exception as exc:  # noqa: BLE001 - boundary: wrap everything
        result = RemoteError.wrap(exc)
        error = True
    t1 = perf_counter_ns()
    telemetry_of(actor).record(call.method, t1 - t0, error, end_ns=t1)
    return result


def deliver(call: Call, result: Any) -> Any:
    """Apply the error-delivery policy for one call result.

    Semantic errors (``ReproError`` subclasses) re-raise with their precise
    type; infrastructure failures raise as :class:`RemoteError`.
    """
    if isinstance(result, RemoteError) and not call.allow_error:
        raise result.unwrap()
    return result


def gather_with_failover(
    items: list,
    routes_for: Callable[[Any], tuple[Address, ...]],
    call_for: Callable[[Any, Address, bool], Call],
    tolerate_exhaust: bool = False,
) -> Protocol[list]:
    """Fetch one value per item, retrying across each item's replica owners.

    Attempt ``k`` addresses replica ``k`` of every still-unresolved item in
    one parallel batch. The final replica's call is issued with
    ``allow_error=False`` so an unrecoverable loss raises with its precise
    error type — unless ``tolerate_exhaust``, where the final error is
    returned in the item's slot instead (callers with a further fallback,
    e.g. the pm relocation table, decide what exhaustion means).
    """
    if not items:
        return []
    out: list[Any] = [None] * len(items)
    pending = list(range(len(items)))
    attempt = 0
    while pending:
        calls = []
        for i in pending:
            routes = routes_for(items[i])
            last = attempt >= len(routes) - 1
            calls.append(
                call_for(
                    items[i],
                    routes[min(attempt, len(routes) - 1)],
                    last and not tolerate_exhaust,
                )
            )
        results = yield Batch(calls)
        still: list[int] = []
        for i, result in zip(pending, results):
            if isinstance(result, RemoteError):
                if (
                    tolerate_exhaust
                    and attempt >= len(routes_for(items[i])) - 1
                ):
                    out[i] = result  # exhausted: hand the error back
                else:
                    still.append(i)
            else:
                out[i] = result
        pending = still
        attempt += 1
    return out


def step(
    proto: Protocol[Any], results: list | None = None, error: ReproError | None = None
) -> Batch:
    """Resume ``proto`` and run it to its next :class:`Batch` — the one
    stepping rule every real loop shares. ``error`` is thrown in at the
    ``yield``, else ``results`` are sent (``None`` starts a fresh
    protocol); a :class:`Compute` resumes with ``None``, a :class:`Mark`
    with ``time.monotonic()``, anything else is a ``TypeError``. A
    finished protocol raises ``StopIteration`` carrying its value."""
    op = proto.send(results) if error is None else proto.throw(error)
    while not isinstance(op, Batch):
        if isinstance(op, Compute):
            op = proto.send(None)
        elif isinstance(op, Mark):
            op = proto.send(time.monotonic())
        else:
            raise TypeError(f"protocol yielded {op!r}, expected Batch or Compute")
    return op


def run_protocol(proto: Protocol[T], execute: Callable[[Batch], list]) -> T:
    """The blocking protocol loop: run ``proto`` to completion, handing
    each :class:`Batch` to ``execute`` (which returns the delivered
    results in call order). A ``ReproError`` from ``execute`` is thrown
    into the protocol at its ``yield``; anything else propagates."""
    try:
        batch = step(proto)
        while True:
            try:
                results = execute(batch)
            except ReproError as exc:
                batch = step(proto, error=exc)
            else:
                batch = step(proto, results)
    except StopIteration as stop:
        return stop.value


def run_inproc(proto: Protocol[T], registry: Mapping[Address, Actor]) -> T:
    """Execute a protocol by direct dispatch against actor objects.

    This is the reference driver: no parallelism, no timing — just the
    protocol semantics. Every other driver must be observationally
    equivalent to it (asserted by tests).
    """

    def execute(batch: Batch) -> list:
        results = []
        for call in batch.calls:
            actor = registry.get(call.dest)
            if actor is None:
                raise KeyError(f"no actor registered at address {call.dest!r}")
            results.append(dispatch_call(actor, call))
        return [deliver(c, r) for c, r in zip(batch.calls, results)]

    return run_protocol(proto, execute)
