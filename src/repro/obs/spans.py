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
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

from repro.obs.trace import (
    current_op_span,
    end_trace,
    set_op_span,
    start_trace,
    swap_op_mark,
)

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


def record_rpc_span(
    trace: int,
    span: int,
    parent: int | None,
    dest_label: str,
    start_ns: int,
    end_ns: int,
    nbytes: int = 0,
) -> None:
    """Record the caller-side window of one wire RPC group."""
    CALLER.record(
        make_span(
            trace, span, parent, "rpc", dest_label, "client",
            start_ns, end_ns, nbytes=nbytes,
        )
    )


def advance_op_mark(
    trace: int,
    parent: int | None,
    t_start_ns: int,
    t_end_ns: int,
) -> None:
    """Advance this thread's coverage watermark over one covered window.

    The watermark half of :func:`record_group_spans`, factored out for
    drivers whose wire activity happens off the calling thread (the aio
    driver records rpc spans from its event loop): the caller-side
    compute gap between the thread's current watermark and
    ``t_start_ns`` becomes a ``client`` span, and the watermark advances
    to ``t_end_ns`` — so the window's interior counts as covered op time
    even though its rpc spans were recorded elsewhere. Timestamps are
    absolute ``perf_counter_ns`` readings. When no op is open on this
    thread the watermark is left unset and nothing is recorded.
    """
    start = to_span_ns(t_start_ns)
    end = to_span_ns(t_end_ns)
    mark = swap_op_mark(end)
    if mark is None:
        swap_op_mark(None)  # no op open: leave the watermark unset
    elif start > mark:
        CALLER.record(
            make_span(
                trace, new_span_id(), parent, "client", "client", "client",
                mark, start,
            )
        )


def record_group_spans(
    trace: int,
    parent: int | None,
    span_ids: list[int],
    groups: list,
    t_enq_ns: int,
    t_done_ns: int,
) -> None:
    """Record the caller-side rpc spans of one executed batch.

    Every wire group of a batch shares the batch window — the drivers
    submit all groups before waiting and the batch completes as a unit,
    exactly the granularity at which the caller observes time. The span
    ids are the ones that rode each group's wire envelope, so serving
    spans parent to these. Timestamps arrive as absolute
    ``perf_counter_ns`` readings (the drivers' existing RTT clock).

    The client compute *between* batches (splitting pages, walking the
    version tree to build the next batch) is wall time of the traced op
    too: when an op's coverage watermark is open on this thread, the gap
    from the watermark to this batch's start is recorded as a ``client``
    span and the watermark advances to the batch's end
    (:func:`advance_op_mark`) — so a timeline accounts for (nearly)
    every nanosecond of the op, not just the wire.
    """
    from repro.net.address import format_actor

    advance_op_mark(trace, parent, t_enq_ns, t_done_ns)
    start = to_span_ns(t_enq_ns)
    end = to_span_ns(t_done_ns)
    for sid, group in zip(span_ids, groups):
        nbytes = sum(call.payload_bytes() for call in group.calls)
        record_rpc_span(
            trace, sid, parent, format_actor(group.dest), start, end, nbytes
        )


@contextmanager
def trace_operation(
    name: str,
    trace_id: int | None = None,
    *,
    collector: Callable[[dict[str, Any]], None] | None = None,
) -> Iterator[int]:
    """Trace one logical operation on the calling thread.

    Opens a trace (:func:`repro.obs.trace.start_trace`), installs an
    *op span* as the parent of every RPC the thread issues inside the
    block, and on exit records the op's own span into :data:`CALLER`
    (or hands it to ``collector``). Yields the trace id.

    Client compute is covered too: the block seeds the thread's coverage
    watermark, every recorded RPC batch closes the compute gap before it
    with a ``client`` span (:func:`record_group_spans`), and the exit
    records one final ``client`` span from the last batch (or the op's
    start, if no RPC ran) to the op's end.
    """
    tid = start_trace(trace_id)
    sid = new_span_id()
    prev = set_op_span(sid)
    t0 = span_now()
    prev_mark = swap_op_mark(t0)
    failed = False
    try:
        yield tid
    except BaseException:
        failed = True
        raise
    finally:
        t1 = span_now()
        mark = swap_op_mark(prev_mark)
        set_op_span(prev)
        end_trace()
        record = collector or CALLER.record
        if mark is not None and t1 > mark:
            record(
                make_span(
                    tid, new_span_id(), sid, "client", "client", "client",
                    mark, t1, error=failed,
                )
            )
        record(
            make_span(tid, sid, prev, "op", name, "client", t0, t1, error=failed)
        )
