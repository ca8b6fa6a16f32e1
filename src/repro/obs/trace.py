"""Trace-context propagation across the RPC message layer.

A *trace id* is a 64-bit integer a caller mints once per logical
operation (:func:`start_trace`); every wire RPC the calling thread
issues while the trace is open carries it as the optional third field of
the ``("rpc", payload, trace)`` envelope — a bare trace id historically,
a ``(trace_id, span_id)`` pair once the caller also mints span ids
(:mod:`repro.obs.spans`); :func:`set_server_context` accepts both. On the serving side the
transport loop opens a *server context* — trace id, measured queue wait,
request bytes — around the dispatched sub-calls, which is where the
slow-RPC ring log (:mod:`repro.obs.telemetry`) gets its queue-wait vs
service split and its trace attribution from.

Both contexts are thread-local, which is exactly right for this
codebase's threading model: a caller thread runs one protocol at a time,
a service thread (or a node agent's connection thread, under the actor's
lock) serves one wire RPC at a time. On a node agent the queue wait runs
from the read that completed the request to holding that lock, less the
request's own decode. On the in-process
drivers (inproc, simulated) caller and server share a thread, so the
caller's open trace is visible to the dispatch point with no envelope at
all — propagation is the degenerate same-thread case.

Nothing here is ever *required*: with no open trace the envelope stays
the historical 2-tuple (bit-identical wire traffic), and with no server
context slow spans record a ``None`` trace and zero queue wait.
"""

from __future__ import annotations

import random
import threading

_tls = threading.local()

#: (trace_id | None, queue_wait_ns, request_bytes) when no context is open
NO_SERVER_CONTEXT = (None, 0, 0)


def new_trace_id() -> int:
    """A fresh random 64-bit (non-zero) trace id."""
    return random.getrandbits(63) | 1


def start_trace(trace_id: int | None = None) -> int:
    """Open a trace on the calling thread; returns its id.

    Every RPC this thread issues until :func:`end_trace` carries the id.
    Nested calls overwrite (no stack): one logical operation per thread
    at a time, matching the drivers' execution model.
    """
    if trace_id is None:
        trace_id = new_trace_id()
    _tls.trace = trace_id
    return trace_id


def current_trace() -> int | None:
    """The calling thread's open trace id, or None."""
    return getattr(_tls, "trace", None)


def end_trace() -> None:
    """Close the calling thread's trace (no-op when none is open)."""
    _tls.trace = None


def set_op_span(span_id: int | None) -> int | None:
    """Install the calling thread's *operation span* id (the parent every
    caller-side RPC span links to); returns the previous value so scopes
    nest. ``None`` clears it."""
    prev = getattr(_tls, "op_span", None)
    _tls.op_span = span_id
    return prev


def current_op_span() -> int | None:
    """The calling thread's open operation span id, or None."""
    return getattr(_tls, "op_span", None)


def swap_op_mark(mark_ns: int | None) -> int | None:
    """Swap the calling thread's *coverage watermark* — the span-time up
    to which the open operation's wall clock is already covered by a
    recorded span. ``trace_operation`` seeds it with the op's start, each
    recorded RPC batch advances it to the batch's end (recording a
    ``client`` span over the compute gap it skipped), and the op's exit
    restores the previous mark so scopes nest. Returns the prior value;
    ``None`` means no span-recording op is open on this thread."""
    prev = getattr(_tls, "op_mark", None)
    _tls.op_mark = mark_ns
    return prev


def set_server_context(
    trace: "int | tuple | None", queue_ns: int, request_bytes: int
) -> None:
    """Open the serving-side context for the wire RPC being dispatched.

    ``trace`` is whatever rode the envelope's third field: a bare trace
    id (pre-span peers) or a ``(trace_id, parent_span_id)`` pair minted
    by a span-aware caller. Normalizing here keeps every transport
    loop's decode site unchanged.
    """
    if isinstance(trace, tuple):
        trace_id, parent = trace[0], trace[1]
    else:
        trace_id, parent = trace, None
    _tls.server = (trace_id, queue_ns, request_bytes, parent)


def server_context() -> tuple:
    """``(trace_id, queue_wait_ns, request_bytes)`` of the RPC being
    served on this thread; falls back to the caller-side trace (the
    same-thread drivers) with zero queue wait."""
    ctx = getattr(_tls, "server", None)
    if ctx is not None:
        return ctx[:3]
    trace = getattr(_tls, "trace", None)
    if trace is not None:
        return (trace, 0, 0)
    return NO_SERVER_CONTEXT


def server_span_parent() -> int | None:
    """The span id the RPC being served should parent to: the caller's
    RPC-group span from the wire, or — on the same-thread drivers, where
    no envelope exists — the caller's open operation span."""
    ctx = getattr(_tls, "server", None)
    if ctx is not None:
        return ctx[3]
    return current_op_span()


def clear_server_context() -> None:
    """Close the serving-side context (after the wire RPC's sub-calls)."""
    _tls.server = None
