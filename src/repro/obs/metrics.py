"""The unified metrics schema: one scrape shape for sim and real runs.

Every scrape surface — the ``repro.tools.metrics`` CLI against a live
TCP cluster, ``inspect --metrics`` on an in-process deployment,
``SimDeployment.metrics()`` on a finished simulation — assembles the
same JSON-safe document::

    {
      "schema": "repro.metrics/1",
      "source": "tcp" | "inproc" | "threaded" | "simulated",
      "actors": {
        "data/0": {
          "wire_rpcs": 123, "sub_calls": 456, "calls": 456,
          "methods": {
            "data.put_page": {"count": ..., "errors": ...,
                              "mean_ms": ..., "p50_ms": ..., "p95_ms": ...,
                              "p99_ms": ..., "max_ms": ...},
            ...
          },
          "slow": [{"trace": ..., "method": ..., "queue_ms": ...,
                    "service_ms": ..., "bytes": ..., "error": ...}, ...],
          "slow_seen": 2, "slow_threshold_ms": 100.0,
          "spans": [...],     # traced sub-call spans (repro.spans/1 dicts)
          "spans_seen": 0, "clock_domain": 123...,
          "stats": {"pages": ..., "puts": ..., "gets": ...}  # the actor's
              # own counters; a metadata provider reports nodes, puts, gets,
              # subtree_gets, nodes_served (per-shard skew at a glance)
        },
        "data/1": {"down": "PeerUnavailable: ..."},  # unreachable: why
        ...
      },
      "caller_rtt": {  # drivers with a wire layer: caller-side RTT rows
        "data": {"count": ..., "mean_ms": ..., "p50_ms": ..., ...}, ...
      },
      "nodes": {  # simulated runs only: per-node lane utilization
        "client-0": {"role": "client", "cpu": 0.42, "tx": 0.1, "rx": 0.3},
        ...
      }
    }

Reconciliation invariant (pinned by ``tests/test_telemetry.py`` and the
CLI's ``--check``): for every actor, the sum of per-method histogram
counts equals the ``sub_calls`` wire counter — the histograms and the
counters observe the same dispatch point, so a scrape that cannot
reconcile means lost samples, not workload noise. (``telemetry``
*controls* are invisible to both sides, which is what keeps
scraping from perturbing workload-only counter assertions.)
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import RemoteError
from repro.net.address import format_actor
from repro.obs.hist import LatencyHistogram

METRICS_SCHEMA = "repro.metrics/1"

#: quantiles every method row carries, as (key, p) pairs
QUANTILES = (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99))


def method_row(wire_hist: tuple, errors: int = 0) -> dict[str, Any]:
    """One method's stats row from a histogram wire form."""
    hist = LatencyHistogram.from_wire(wire_hist)
    row: dict[str, Any] = {
        "count": hist.count,
        "errors": errors,
        "mean_ms": hist.mean / 1e6,
    }
    for key, p in QUANTILES:
        row[key] = hist.quantile(p) / 1e6
    row["max_ms"] = hist.max / 1e6
    return row


def span_row(span: tuple) -> dict[str, Any]:
    """One slow span as a JSON-safe dict."""
    trace_id, method, queue_ns, service_ns, nbytes, error = span
    return {
        "trace": trace_id,
        "method": method,
        "queue_ms": queue_ns / 1e6,
        "service_ms": service_ns / 1e6,
        "bytes": nbytes,
        "error": bool(error),
    }


def trace_span_row(
    span: tuple, actor: str = "", domain: int = 0
) -> dict[str, Any]:
    """One per-actor trace span (the telemetry ring's compact tuple) as a
    ``repro.spans/1`` dict (see :data:`repro.obs.spans.SPAN_KEYS`); the
    actor label and clock domain live once per snapshot, so the scrape
    reattaches them here."""
    trace_id, span_id, parent, method, start_ns, end_ns, queue_ns, nbytes, \
        error = span
    return {
        "trace": trace_id,
        "span": span_id,
        "parent": parent,
        "kind": "server",
        "name": method,
        "actor": actor,
        "domain": domain,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "queue_ns": queue_ns,
        "bytes": nbytes,
        "error": bool(error),
    }


def actor_entry(report: Mapping[str, Any], name: str = "") -> dict[str, Any]:
    """One actor's metrics entry from a driver ``telemetry()`` report
    (``{"wire_rpcs", "sub_calls", "telemetry": snapshot}``)."""
    snapshot = report.get("telemetry") or {}
    errors = snapshot.get("errors", {})
    methods = {
        m: method_row(wire, errors.get(m, 0))
        for m, wire in sorted(snapshot.get("methods", {}).items())
    }
    domain = snapshot.get("clock_domain", 0)
    return {
        "wire_rpcs": report.get("wire_rpcs"),
        "sub_calls": report.get("sub_calls"),
        "calls": sum(row["count"] for row in methods.values()),
        "methods": methods,
        "slow": [span_row(s) for s in snapshot.get("slow", ())],
        "slow_seen": snapshot.get("slow_seen", 0),
        "slow_threshold_ms": snapshot.get("slow_threshold_ms"),
        "spans": [
            trace_span_row(s, name, domain) for s in snapshot.get("spans", ())
        ],
        "spans_seen": snapshot.get("spans_seen", 0),
        "clock_domain": domain,
        "stats": snapshot.get("stats", {}),
    }


def scrape_driver(driver: Any, source: str = "live") -> dict[str, Any]:
    """Scrape every actor of a :class:`~repro.net.sansio.Driver`.
    An unreachable actor (a dead or failed peer, or one that does not
    answer in time) is kept as ``{"down": reason}``: one down node never
    blanks the rest of the scrape."""
    actors = {}
    for address in driver.addresses():
        name = format_actor(address)
        try:
            report = driver.telemetry(address)
        except (RemoteError, TimeoutError) as exc:
            actors[name] = {"down": str(exc)}
            continue
        actors[name] = actor_entry(report, name)
    doc = {"schema": METRICS_SCHEMA, "source": source, "actors": actors}
    # merged from the live callers' histograms now: a long-lived client's
    # RTTs show mid-run (None where no caller-side transport exists)
    rtt = driver.caller_rtt()
    if rtt is not None:
        doc["caller_rtt"] = {
            kind: method_row(hist.to_wire()) for kind, hist in sorted(rtt.items())
        }
    return doc


def agent_metrics(agent: Any) -> dict[str, Any]:
    """A node agent's own actors in the unified schema (in-process
    inspection; what the flight recorder samples on a node)."""
    return {
        "schema": METRICS_SCHEMA,
        "source": "node",
        "actors": {
            name: actor_entry(report, name)
            for name, report in sorted(agent.telemetry().items())
        },
    }


def collect_spans(metrics: Mapping[str, Any]) -> list[dict[str, Any]]:
    """All per-actor trace spans of one scrape document, flattened."""
    return [
        span
        for name in sorted(metrics.get("actors", {}))
        for span in metrics["actors"][name].get("spans", ())
    ]


def sim_node_entries(network: Any) -> dict[str, Any]:
    """The simulator's per-node lane utilization over the run so far, in
    the unified schema (real runs simply have no ``nodes``)."""
    elapsed = network.sim.now
    return {
        node.name: {
            "role": node.role,
            "cpu": node.cpu.utilization(elapsed),
            "tx": node.tx.utilization(elapsed),
            "rx": node.rx.utilization(elapsed),
        }
        for node in network.nodes.values()
    }


def reconcile(metrics: Mapping[str, Any]) -> list[str]:
    """Check the histogram-vs-counter invariant; returns problem strings
    (empty = every actor reconciles). Actors scraped without wire
    counters (``sub_calls`` None, e.g. inproc, or down) are skipped."""
    problems = []
    for name, entry in metrics.get("actors", {}).items():
        sub_calls = entry.get("sub_calls")
        if sub_calls is None:
            continue
        if entry.get("calls") != sub_calls:
            problems.append(
                f"{name}: {entry.get('calls')} histogram samples vs "
                f"{sub_calls} sub_calls served"
            )
    return problems


def render_metrics(
    metrics: Mapping[str, Any],
    slow_limit: int = 8,
    prev: Mapping[str, Any] | None = None,
) -> str:
    """Plain-text per-actor/per-method quantile table.

    With ``prev`` (an earlier scrape of the same cluster) every method
    row grows a trailing delta column — calls recorded since the
    previous scrape — which is what ``repro.tools.metrics --watch``
    reprints each period.
    """
    lines = [f"cluster metrics ({metrics.get('source', '?')}):"]
    header = (
        f"  {'actor':<10} {'method':<22} {'count':>8} {'err':>5} "
        f"{'mean':>9} {'p50':>9} {'p95':>9} {'p99':>9} {'max':>9}"
    )
    if prev is not None:
        header += f" {'Δcount':>8}"
    lines.append(header + "  (ms)")
    prev_actors = (prev or {}).get("actors", {})
    for name in sorted(metrics.get("actors", {})):
        entry = metrics["actors"][name]
        if "down" in entry:
            lines.append(f"  {name:<10} {'(down)':<22} {entry['down']}")
            continue
        prev_methods = prev_actors.get(name, {}).get("methods", {})
        for method, row in entry.get("methods", {}).items():
            line = (
                f"  {name:<10} {method:<22} {row['count']:>8} "
                f"{row['errors']:>5} {row['mean_ms']:>9.3f} "
                f"{row['p50_ms']:>9.3f} {row['p95_ms']:>9.3f} "
                f"{row['p99_ms']:>9.3f} {row['max_ms']:>9.3f}"
            )
            if prev is not None:
                delta = row["count"] - prev_methods.get(method, {}).get(
                    "count", 0
                )
                line += f" {'+' + str(delta):>8}"
            lines.append(line)
        stats = {
            k: v for k, v in entry.get("stats", {}).items() if k != "provider_id"
        }
        if stats:
            counters = ", ".join(f"{k} {v}" for k, v in stats.items())
            lines.append(f"  {name:<10} {'(stats)':<22} {counters}")
        if entry.get("wire_rpcs") is not None:
            lines.append(
                f"  {name:<10} {'(wire)':<22} {entry['wire_rpcs']:>8} rpcs, "
                f"{entry['sub_calls']} sub-calls"
            )
    if metrics.get("caller_rtt"):
        lines.append("  caller RTT (wire round-trips, by destination kind):")
        for kind in sorted(metrics["caller_rtt"]):
            row = metrics["caller_rtt"][kind]
            lines.append(
                f"    {kind:<10} {row['count']:>8} rpcs  "
                f"mean {row['mean_ms']:>8.3f}  p50 {row['p50_ms']:>8.3f}  "
                f"p95 {row['p95_ms']:>8.3f}  p99 {row['p99_ms']:>8.3f} (ms)"
            )
    spans = [
        (name, span)
        for name in sorted(metrics.get("actors", {}))
        for span in metrics["actors"][name].get("slow", ())
    ]
    if spans:
        spans.sort(
            key=lambda ns: ns[1]["queue_ms"] + ns[1]["service_ms"], reverse=True
        )
        lines.append(f"  slow spans (worst {min(slow_limit, len(spans))}):")
        for name, span in spans[:slow_limit]:
            lines.append(
                f"    {name:<10} {span['method']:<22} "
                f"queue {span['queue_ms']:.3f}ms + "
                f"service {span['service_ms']:.3f}ms "
                f"({span['bytes']} B, trace {span['trace']})"
            )
    if metrics.get("nodes"):
        lines.append("  node utilization (simulated):")
        for name in sorted(metrics["nodes"]):
            u = metrics["nodes"][name]
            lines.append(
                f"    {name:<14} {u['role']:<7} cpu {u['cpu']:>6.1%} "
                f"tx {u['tx']:>6.1%} rx {u['rx']:>6.1%}"
            )
    return "\n".join(lines)
