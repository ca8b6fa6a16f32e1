"""Cluster-wide telemetry: latency histograms, traces, unified metrics.

The measurement layer every driver shares. The live drivers expose only
integer wire-RPC counters, and per-node utilization tracing exists solely
in the simulator — this package is the missing half: *time*, measured the
same way on every deployment substrate, cheap enough to stay default-on.

Two small pieces, threaded through the RPC dispatch point that every
driver already funnels through (:func:`repro.net.sansio.dispatch_call`):

- :mod:`repro.obs.hist` — a mergeable log-bucketed latency histogram
  (fixed int-array buckets, ≤ 1/16 relative error, compact wire form).
  One per actor per method records service time; one per caller thread
  per destination kind records round-trip time.
- :mod:`repro.obs.telemetry` — the per-actor accumulator behind
  ``dispatch_call`` and the ``telemetry`` mini-protocol RPC every actor
  answers; :mod:`repro.obs.metrics` assembles scraped snapshots into the
  unified schema ``repro.tools.metrics`` prints (simulated runs add
  per-node lane utilization under ``nodes``).

On top of the scrape, span-level distributed tracing:

- :mod:`repro.obs.spans` — the trace context (one ``ContextVar`` for the
  open operation, one for the RPC being served: trace id and parent span
  ride the RPC envelope from client batch to serving actor, with the
  queue-wait vs service split the slow-RPC ring log samples),
  per-process clock domains, span ids and the bounded span buffers:
  inside :func:`trace_operation` every dispatched sub-call and every
  wire RPC records a span (collected through the same uncounted
  ``telemetry`` control);
- :mod:`repro.obs.export` — assembles spans from all actors into one
  timeline: cross-process clock alignment from RPC parent/child pairs,
  Chrome trace-event JSON (Perfetto-loadable) and per-operation
  critical-path summaries;
- :mod:`repro.obs.recorder` — the flight recorder: a background sampler
  writing ``deployment.metrics()`` into a size-bounded on-disk segment
  ring, so a crashed agent leaves its last N seconds of metrics
  (default-off; ``repro.tools.node --flight-recorder DIR``).

Logging: telemetry events (slow spans) go to the ``repro.obs`` logger;
:func:`repro.obs.logconfig.configure_logging` installs one stderr handler
on the documented ``repro.*`` hierarchy (``repro.vm``, ``repro.pm``,
``repro.journal``, ``repro.obs``) for programmatic embedders — the node
CLI calls it, a library user may too.

Overhead: two ``perf_counter_ns`` reads plus one histogram increment per
sub-call (~1 µs).
"""

from repro.obs.export import (
    align_spans,
    chrome_trace,
    coverage,
    render_critical_path,
    validate_chrome,
    validate_spans,
)
from repro.obs.hist import LatencyHistogram
from repro.obs.logconfig import configure_logging
from repro.obs.metrics import (
    METRICS_SCHEMA,
    collect_spans,
    reconcile,
    render_metrics,
)
from repro.obs.recorder import FlightRecorder, read_flight_records
from repro.obs.spans import SPAN_SCHEMA, trace_operation
from repro.obs.telemetry import (
    ActorTelemetry,
    TELEMETRY_METHOD,
    telemetry_of,
)

__all__ = [
    "ActorTelemetry",
    "FlightRecorder",
    "LatencyHistogram",
    "METRICS_SCHEMA",
    "SPAN_SCHEMA",
    "TELEMETRY_METHOD",
    "align_spans",
    "chrome_trace",
    "collect_spans",
    "configure_logging",
    "coverage",
    "read_flight_records",
    "reconcile",
    "render_critical_path",
    "render_metrics",
    "telemetry_of",
    "trace_operation",
    "validate_chrome",
    "validate_spans",
]
