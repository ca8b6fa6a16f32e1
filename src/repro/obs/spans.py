"""Span primitives: per-process clocks, span ids, bounded span buffers.

A *span* is one timed unit of a traced operation — the client-side
window of a wire RPC, the serving side of a dispatched sub-call, or the
whole logical operation ("op") a tool or benchmark wraps. Spans are
plain dicts (see :data:`SPAN_KEYS`) so they cross the wire inside the
``telemetry`` scrape and serialize to JSON without a schema layer.

**Clock domains.** Span timestamps are ``perf_counter_ns`` *relative to
a per-process epoch* minted at import (:func:`span_now`). On Linux
``perf_counter_ns`` is CLOCK_MONOTONIC with a system-wide base, which
would make cross-process timestamps accidentally comparable on one host
and silently incomparable across hosts; subtracting a per-process epoch
makes every process a genuinely distinct *clock domain*, so the export
layer's alignment step (:mod:`repro.obs.export`) is exercised on every
multi-process deployment instead of only on multi-host ones. Each
domain is named by :data:`CLOCK_DOMAIN`, a random 64-bit id minted at
import.

**Fork safety.** Nothing in the package forks (node agents are launched
with ``subprocess``), but an embedding program may: a forked child would
inherit the parent's epoch (collapsing the two clock domains into one)
and the parent's PRNG state (making sibling children mint colliding ids
in lockstep). ``os.register_at_fork`` re-mints the epoch and domain in
the child and clears the inherited caller buffer; ids come from
``random.SystemRandom`` (kernel entropy, no inherited state).

Simulated deployments use :data:`SIM_DOMAIN` (domain 0): simulated
event times share one global clock by construction, so they are born
aligned.

**Trace context.** Two ``contextvars.ContextVar`` carry it, so one
mechanism serves threads and coroutines alike (a thread has its own
context; an asyncio task copies the context it was created in — which
is how a thread's open operation reaches :meth:`repro.net.aio.AioDriver.run`
on the event loop with no hand-over):

- the *open operation* (:func:`operation_scope`): trace id, op span id
  and a coverage mark. Every wire group a driver executes while it is
  open carries ``(trace_id, span_id, request_bytes)`` as the envelope's
  third field and records an rpc span parented to the op span
  (:func:`record_group_spans`);
  with no operation open the envelope stays the 2-tuple (bit-identical
  wire traffic);
- the *serving context* (:func:`set_server_context`, opened only by
  :func:`repro.net.sansio.serve_group`): trace id, parent
  span, measured queue wait and request bytes of the wire RPC a service
  thread or agent connection is dispatching — which is where the
  slow-RPC ring log (:mod:`repro.obs.telemetry`) gets its queue-wait vs
  service split and its trace attribution from. On the same-thread
  drivers (inproc, simulated) no envelope exists and the dispatch point
  reads the caller's open operation instead.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import asynccontextmanager, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, AsyncIterator, Callable, Iterator

#: span schema tag (the export layer validates against this)
SPAN_SCHEMA = "repro.spans/1"

#: every span dict carries exactly these keys
SPAN_KEYS = (
    "trace",     # trace id (int)
    "span",      # span id (int)
    "parent",    # parent span id (int | None)
    "kind",      # "op" | "client" | "rpc" | "server"
    "name",      # op name / destination label / method name
    "actor",     # which party recorded it ("client" or the actor label)
    "domain",    # clock-domain id the timestamps are relative to
    "start_ns",  # domain-relative start, nanoseconds
    "end_ns",    # domain-relative end, nanoseconds
    "queue_ns",  # queue wait preceding start_ns (server spans; else 0):
                 # on a node agent, from the read that completed the
                 # request to holding the actor's lock, less its own
                 # decode (bytes still unread in socket buffers are not
                 # measured)
    "bytes",     # request payload bytes (0 when unknown)
    "error",     # bool: did the unit end in an error
)

#: the clock-domain id simulated timelines report (born aligned)
SIM_DOMAIN = 0

#: caller-side spans kept per process (ring; older spans overwritten)
CALLER_BUFFER_SIZE = 4096

_sysrand = random.SystemRandom()

_EPOCH = perf_counter_ns()
CLOCK_DOMAIN = _sysrand.getrandbits(64) | 1


def span_now() -> int:
    """Nanoseconds since this process's span epoch (import time)."""
    return perf_counter_ns() - _EPOCH


def to_span_ns(t_ns: int) -> int:
    """Convert an absolute ``perf_counter_ns`` reading to span time."""
    return t_ns - _EPOCH


def new_span_id() -> int:
    """A fresh non-zero 64-bit span id (kernel entropy, fork-safe)."""
    return _sysrand.getrandbits(63) | 1


def make_span(
    trace: int,
    span: int,
    parent: int | None,
    kind: str,
    name: str,
    actor: str,
    start_ns: int,
    end_ns: int,
    *,
    domain: int | None = None,
    queue_ns: int = 0,
    nbytes: int = 0,
    error: bool = False,
) -> dict[str, Any]:
    """Assemble one span dict in the :data:`SPAN_KEYS` shape."""
    return {
        "trace": trace,
        "span": span,
        "parent": parent,
        "kind": kind,
        "name": name,
        "actor": actor,
        "domain": CLOCK_DOMAIN if domain is None else domain,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "queue_ns": queue_ns,
        "bytes": nbytes,
        "error": error,
    }


class SpanBuffer:
    """Bounded, locked span ring shared by caller threads.

    Unlike the per-actor telemetry rings (single-writer by actor
    confinement), caller-side spans are recorded by every client thread
    of the process, so this buffer takes a lock per record. It is only
    touched while a trace is open — untraced traffic never enters.
    """

    def __init__(self, capacity: int = CALLER_BUFFER_SIZE) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: list[dict[str, Any]] = []
        self.seen = 0

    def record(self, span: dict[str, Any]) -> None:
        """Append one span, overwriting the oldest when full."""
        with self._lock:
            if len(self._spans) < self.capacity:
                self._spans.append(span)
            else:
                self._spans[self.seen % self.capacity] = span
            self.seen += 1

    def snapshot(self) -> list[dict[str, Any]]:
        """A stable copy of the buffered spans."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Drop all buffered spans (tools call this between operations)."""
        with self._lock:
            self._spans.clear()
            self.seen = 0


#: the process-wide caller-side span buffer (rpc + op spans)
CALLER = SpanBuffer()


def _reinit_after_fork() -> None:
    global _EPOCH, CLOCK_DOMAIN
    _EPOCH = perf_counter_ns()
    CLOCK_DOMAIN = _sysrand.getrandbits(64) | 1
    CALLER.clear()


os.register_at_fork(after_in_child=_reinit_after_fork)


@dataclass(slots=True)
class Operation:
    """The traced operation open in a context: its trace id, its op span
    (the parent of every rpc span recorded inside it, and of nested
    operations), that span's own parent, and the *coverage mark* — the
    span time up to which the op's wall clock is covered by recorded
    spans. A mark of ``None`` records no client-gap spans (async
    operations: their coroutines interleave on one loop thread, so gaps
    between one op's batches are not that op's compute)."""

    trace: int
    span: int
    parent: int | None
    mark: int | None


#: the operation open in this context (thread or task), or None
_OPEN_OP: ContextVar[Operation | None] = ContextVar("repro_op", default=None)

#: (trace_id, queue_wait_ns, request_bytes, parent_span) of the wire RPC
#: being served in this context, or None
_SERVED: ContextVar[tuple | None] = ContextVar("repro_served", default=None)


def current_op() -> Operation | None:
    """The operation open in the calling context, or None."""
    return _OPEN_OP.get()


def set_server_context(
    context: tuple[int, int, int] | None, queue_ns: int, request_bytes: int
) -> None:
    """Open the serving-side context for the wire RPC being dispatched.
    ``context`` is the envelope's ``(trace_id, parent_span_id,
    request_bytes)``, whose bytes are the ones the caller's rpc span
    records, or None: then ``request_bytes`` stands (a node agent's
    frame body length)."""
    if context is None:
        _SERVED.set((None, queue_ns, request_bytes, None))
    else:
        trace_id, parent, nbytes = context
        _SERVED.set((trace_id, queue_ns, nbytes, parent))


def clear_server_context() -> None:
    """Close the serving-side context (after the wire RPC's sub-calls)."""
    _SERVED.set(None)


def server_context() -> tuple:
    """``(trace_id, queue_wait_ns, request_bytes, parent_span)`` of the RPC
    being served here. On the same-thread drivers, where no envelope
    exists, the caller's open operation stands in (its op span the
    parent), with zero queue wait and bytes."""
    served = _SERVED.get()
    if served is not None:
        return served
    op = _OPEN_OP.get()
    return (None, 0, 0, None) if op is None else (op.trace, 0, 0, op.span)


def group_context(op: Operation, group: Any) -> tuple[int, int, int]:
    """The trace context a wire group of ``op`` carries in its envelope:
    ``(trace_id, rpc_span_id, request_bytes)``, the bytes being the sum
    of its calls' ``payload_bytes()``."""
    return (
        op.trace, new_span_id(), sum(call.payload_bytes() for call in group.calls)
    )


def record_group_spans(
    op: Operation,
    contexts: list[tuple[int, int, int]],
    groups: list,
    t_enq_ns: int,
    t_done_ns: int,
) -> None:
    """Record the caller-side rpc spans of one batch executed under ``op``.

    Every wire group of a batch shares the batch window — the drivers
    submit all groups before waiting and the batch completes as a unit,
    exactly the granularity at which the caller observes time. The span
    ids and request bytes are the ones that rode each group's wire
    envelope (:func:`group_context`), so serving spans parent to these
    and record the same bytes. Timestamps arrive as absolute
    ``perf_counter_ns`` readings (the drivers' existing RTT clock).

    The client compute *between* batches (splitting pages, walking the
    version tree to build the next batch) is wall time of the traced op
    too: when the op has a coverage mark, the gap from the mark to this
    batch's start is recorded as a ``client`` span and the mark advances
    to the batch's end — so a timeline accounts for (nearly) every
    nanosecond of the op, not just the wire.
    """
    from repro.net.address import format_actor

    start = to_span_ns(t_enq_ns)
    end = to_span_ns(t_done_ns)
    mark = op.mark
    if mark is not None:
        if start > mark:
            CALLER.record(
                make_span(
                    op.trace, new_span_id(), op.span, "client", "client",
                    "client", mark, start,
                )
            )
        op.mark = end
    for (_, sid, nbytes), group in zip(contexts, groups):
        CALLER.record(
            make_span(
                op.trace, sid, op.span, "rpc", format_actor(group.dest),
                "client", start, end, nbytes=nbytes,
            )
        )


@contextmanager
def operation_scope(
    name: str,
    trace_id: int | None = None,
    *,
    collector: Callable[[dict[str, Any]], None] | None = None,
    covered: bool = True,
    clock: Callable[[], int] = span_now,
    domain: int | None = None,
) -> Iterator[int]:
    """Open one traced operation in the calling context; yields its
    trace id.

    Every RPC issued inside the block carries the trace and parents to
    the op span; on exit the op's own span (parented to the enclosing
    operation's, if any) is recorded into :data:`CALLER` or handed to
    ``collector``. ``covered`` seeds the coverage mark at the op's
    start, so the exit also records one final ``client`` span from the
    last batch (or the op's start) to its end. ``clock`` and ``domain``
    let the simulator time the op span in simulated nanoseconds.
    """
    outer = _OPEN_OP.get()
    t0 = clock()
    op = Operation(
        new_span_id() if trace_id is None else trace_id,
        new_span_id(),
        None if outer is None else outer.span,
        t0 if covered else None,
    )
    token = _OPEN_OP.set(op)
    failed = False
    try:
        yield op.trace
    except BaseException:
        failed = True
        raise
    finally:
        t1 = clock()
        _OPEN_OP.reset(token)
        record = collector or CALLER.record
        if op.mark is not None and t1 > op.mark:
            record(
                make_span(
                    op.trace, new_span_id(), op.span, "client", "client",
                    "client", op.mark, t1, domain=domain, error=failed,
                )
            )
        record(
            make_span(
                op.trace, op.span, op.parent, "op", name, "client", t0, t1,
                domain=domain, error=failed,
            )
        )


def trace_operation(
    name: str,
    trace_id: int | None = None,
    *,
    collector: Callable[[dict[str, Any]], None] | None = None,
):
    """Trace one logical operation (a context manager yielding the trace
    id): the wire RPCs issued inside it carry the trace, record rpc spans
    parented to the op span, and the client compute between them is
    recorded as ``client`` spans (:func:`operation_scope`)."""
    return operation_scope(name, trace_id, collector=collector)


@asynccontextmanager
async def trace_async_operation(
    name: str,
    trace_id: int | None = None,
    *,
    collector: Callable[[dict[str, Any]], None] | None = None,
) -> AsyncIterator[int]:
    """Trace one logical async operation: :func:`trace_operation` for a
    coroutine (the context rides the task), without client-gap spans —
    the loop thread's time between one op's batches belongs to whichever
    coroutines ran meanwhile."""
    with operation_scope(name, trace_id, collector=collector, covered=False) as tid:
        yield tid
