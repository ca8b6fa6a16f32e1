"""Per-actor telemetry: method histograms, counters, slow-span ring.

One :class:`ActorTelemetry` rides on every actor object
(:func:`telemetry_of` attaches it lazily at the first dispatched call).
Because every driver confines an actor to one thread at a time — the
caller thread that holds the actor's lock on the blocking driver, its
service thread on aio, or on a node agent whichever connection holds the
actor's lock — the accumulator is strictly single-writer: no locks of its own on
the record path, which is what keeps telemetry cheap enough to stay
default-on.

What it holds:

- a :class:`~repro.obs.hist.LatencyHistogram` per method (service time,
  nanoseconds, measured around ``actor.handle`` by
  :func:`repro.net.sansio.dispatch_call`);
- an error counter per method (handler exceptions, i.e. results that
  became :class:`~repro.errors.RemoteError`);
- a fixed-size ring of **slow spans**: any sub-call whose queue wait +
  service time crosses the threshold (``REPRO_OBS_SLOW_MS``, default
  100 ms) is sampled with its trace id, method, request bytes and the
  queue-vs-service split — the on-node flight recorder the metrics
  scrape surfaces;
- a fixed-size ring of **trace spans**: while a trace is open, *every*
  dispatched sub-call (not just slow ones) is recorded with its span
  id, parent span, method, domain-relative start/end, queue wait and
  request bytes (:mod:`repro.obs.spans`), which is what the timeline
  export (:mod:`repro.obs.export`) assembles across actors;
- the actor's own ``stats()`` counters, when it has them (a provider's
  stored nodes / pages, puts, gets, ...), read at snapshot time — so a
  skewed shard shows in the same scrape as the latencies it causes.

The ``telemetry`` mini-protocol RPC: ``dispatch_call`` intercepts the
method name ``telemetry`` before the actor's own ``handle`` sees it, so
*every* actor — data, meta, vm, pm, and anything a test registers —
answers it on every driver, returning :meth:`ActorTelemetry.snapshot`
(plain picklable containers, histograms in wire form).
"""

from __future__ import annotations

import logging
import os
from typing import Any, Callable

from repro.obs import spans as _spans
from repro.obs.hist import LatencyHistogram
from repro.obs.spans import server_context

logger = logging.getLogger("repro.obs")

#: the mini-protocol method name every actor answers (intercepted in
#: dispatch_call, never forwarded to the actor's own handle)
TELEMETRY_METHOD = "telemetry"

#: snapshot schema tag (bump when the snapshot layout changes)
SNAPSHOT_SCHEMA = "repro.obs/1"

#: slow-span threshold, milliseconds (queue wait + service time)
SLOW_MS_ENV = "REPRO_OBS_SLOW_MS"
DEFAULT_SLOW_MS = 100.0

#: slow spans kept per actor (ring buffer; older spans are overwritten)
SLOW_RING_SIZE = 64

#: traced sub-call spans kept per actor (ring; older spans overwritten)
SPAN_RING_SIZE = 2048

def _slow_threshold_ns() -> int:
    try:
        ms = float(os.environ.get(SLOW_MS_ENV, DEFAULT_SLOW_MS))
    except ValueError:
        ms = DEFAULT_SLOW_MS
    return int(ms * 1e6)


class ActorTelemetry:
    """Single-writer telemetry accumulator for one actor.

    The writer is whichever thread serves the actor (exactly one, by the
    drivers' confinement invariant); any thread may call
    :meth:`snapshot` — counters only grow, so a concurrent snapshot is
    at worst slightly stale.
    """

    __slots__ = (
        "hists", "errors", "slow", "slow_seen", "slow_threshold_ns",
        "spans", "spans_seen", "actor_stats",
    )

    def __init__(
        self,
        slow_threshold_ns: int | None = None,
        actor_stats: Callable[[], dict] | None = None,
    ) -> None:
        #: the actor's own ``stats`` method, read at snapshot time
        self.actor_stats = actor_stats
        self.hists: dict[str, LatencyHistogram] = {}
        self.errors: dict[str, int] = {}
        self.slow: list[tuple] = []
        self.slow_seen = 0
        self.slow_threshold_ns = (
            _slow_threshold_ns() if slow_threshold_ns is None else slow_threshold_ns
        )
        self.spans: list[tuple] = []
        self.spans_seen = 0

    def record(
        self, method: str, service_ns: int, error: bool, end_ns: int = 0
    ) -> None:
        """Record one served sub-call (called from dispatch_call).

        ``end_ns`` is the dispatch point's absolute ``perf_counter_ns``
        at handler return; when a trace is open it turns the sub-call
        into a span in the per-actor span ring (zero means "timestamp
        not supplied" — histogram-only recording, no span).
        """
        hist = self.hists.get(method)
        if hist is None:
            hist = self.hists[method] = LatencyHistogram()
        hist.record(service_ns)
        if error:
            self.errors[method] = self.errors.get(method, 0) + 1
        trace_id, queue_ns, nbytes, parent = server_context()
        if trace_id is not None and end_ns:
            end_rel = _spans.to_span_ns(end_ns)
            self._record_span((
                trace_id,
                _spans.new_span_id(),
                parent,
                method,
                end_rel - service_ns,
                end_rel,
                queue_ns,
                nbytes,
                error,
            ))
        if service_ns + queue_ns >= self.slow_threshold_ns:
            self._record_slow(
                (trace_id, method, queue_ns, service_ns, nbytes, error)
            )

    def _record_span(self, span: tuple) -> None:
        if len(self.spans) < SPAN_RING_SIZE:
            self.spans.append(span)
        else:
            self.spans[self.spans_seen % SPAN_RING_SIZE] = span
        self.spans_seen += 1

    def _record_slow(self, span: tuple) -> None:
        if len(self.slow) < SLOW_RING_SIZE:
            self.slow.append(span)
        else:
            self.slow[self.slow_seen % SLOW_RING_SIZE] = span
        self.slow_seen += 1
        if logger.isEnabledFor(logging.DEBUG):
            trace_id, method, queue_ns, service_ns, nbytes, error = span
            logger.debug(
                "slow span: method=%s trace=%s queue=%.3fms service=%.3fms "
                "bytes=%d error=%s",
                method, trace_id, queue_ns / 1e6, service_ns / 1e6, nbytes,
                error,
            )

    @property
    def total_calls(self) -> int:
        """Sub-calls recorded across all methods."""
        return sum(h.count for h in self.hists.values())

    def snapshot(self) -> dict[str, Any]:
        """Wire-safe snapshot: histograms in compact wire form, spans as
        plain tuples. This is the ``telemetry`` RPC's reply."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "methods": {m: h.to_wire() for m, h in list(self.hists.items())},
            "errors": dict(self.errors),
            "slow": list(self.slow),
            "slow_seen": self.slow_seen,
            "slow_threshold_ms": self.slow_threshold_ns / 1e6,
            "spans": list(self.spans),
            "spans_seen": self.spans_seen,
            "clock_domain": _spans.CLOCK_DOMAIN,
            "stats": dict(self.actor_stats()) if self.actor_stats else {},
        }


class _DisabledTelemetry(ActorTelemetry):
    """Shared no-op accumulator for actors that refuse attributes:
    recording drops, snapshots stay empty."""

    def record(
        self, method: str, service_ns: int, error: bool, end_ns: int = 0
    ) -> None:
        pass


DISABLED = _DisabledTelemetry(slow_threshold_ns=1 << 62)

#: attribute name the accumulator rides on (one per actor object)
_ATTR = "_obs_telemetry"


def telemetry_of(actor: Any) -> ActorTelemetry:
    """The actor's telemetry accumulator, attached lazily.

    Actors that cannot take attributes (``__slots__``, frozen) get the
    shared no-op accumulator — telemetry silently off for them rather
    than a dispatch-path failure.
    """
    tele = getattr(actor, _ATTR, None)
    if tele is None:
        stats = getattr(actor, "stats", None)
        tele = ActorTelemetry(actor_stats=stats if callable(stats) else None)
        try:
            setattr(actor, _ATTR, tele)
        except (AttributeError, TypeError):
            return DISABLED
    return tele


def telemetry_report(
    actor: Any, wire_rpcs: int | None = None, sub_calls: int | None = None
) -> dict[str, Any]:
    """An actor's ``telemetry`` report, one shape on every driver: the
    wire RPCs and sub-calls it served (``None`` where the driver has no
    per-actor wire layer) and its :meth:`ActorTelemetry.snapshot`."""
    return {
        "wire_rpcs": wire_rpcs,
        "sub_calls": sub_calls,
        "telemetry": telemetry_of(actor).snapshot(),
    }
