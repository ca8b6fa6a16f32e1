"""Cluster telemetry pins: the ``telemetry`` mini-protocol, the unified
scrape, trace propagation, and scrape invisibility.

Four contracts are pinned here:

- **every actor answers** ``telemetry`` on every driver — the method is
  intercepted at the one shared dispatch point, so actors need no code;
- **scrapes are invisible**: telemetry travels as a control message that
  neither side counts, so ``server_stats`` / ``workload_stats`` read the
  same before and after any number of scrapes (tests that assert exact
  wire-RPC counts cannot be perturbed by observability);
- **reconciliation**: per-actor histogram sample totals equal the
  ``sub_calls`` wire counter — the histograms and the counters watch the
  same dispatch point, so a mismatch means lost samples;
- **traces propagate**: a caller-opened trace id rides the RPC envelope
  to remote service threads and shows up in their slow-span rings
  (threshold forced to 0 so every sub-call qualifies).
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import build_inproc
from repro.deploy.simulated import SimDeployment
from repro.deploy.tcp import build_tcp
from repro.deploy.threaded import build_threaded
from repro.net.sansio import Call, dispatch_call
from repro.obs.hist import LatencyHistogram
from repro.obs.logconfig import configure_logging
from repro.obs.metrics import METRICS_SCHEMA, reconcile, render_metrics
from repro.obs.telemetry import (
    SLOW_RING_SIZE,
    SNAPSHOT_SCHEMA,
    ActorTelemetry,
    telemetry_of,
)
from repro.obs.spans import current_op, trace_operation
from repro.util.sizes import KB, MB

TOTAL = 1 * MB
PAGE = 4 * KB


def run_workload(dep, n_writes: int = 3) -> str:
    """A small write/read workload; returns the blob id."""
    client = dep.client("telemetry-test")
    blob = client.alloc(TOTAL, PAGE)
    for i in range(n_writes):
        res = client.write(blob, bytes([i + 1]) * (2 * PAGE), i * PAGE)
        client.read_bytes(blob, i * PAGE, PAGE, version=res.version)
    return blob


# ---------------------------------------------------------------------------
# the mini-protocol itself (dispatch-level)
# ---------------------------------------------------------------------------


class EchoActor:
    """Minimal actor; would raise on any unknown method."""

    def handle(self, method: str, args: tuple):
        if method != "echo":
            raise AssertionError(f"actor saw unexpected method {method!r}")
        return args


def test_every_actor_answers_telemetry_without_code():
    actor = EchoActor()
    assert dispatch_call(actor, Call("x", "echo", (1,))) == (1,)
    snap = dispatch_call(actor, Call("x", "telemetry"))
    assert snap["schema"] == SNAPSHOT_SCHEMA
    assert set(snap["methods"]) == {"echo"}


def test_telemetry_calls_are_not_recorded_as_samples():
    actor = EchoActor()
    dispatch_call(actor, Call("x", "echo"))
    for _ in range(5):
        dispatch_call(actor, Call("x", "telemetry"))
    snap = dispatch_call(actor, Call("x", "telemetry"))
    assert "telemetry" not in snap["methods"]
    hist = LatencyHistogram.from_wire(snap["methods"]["echo"])
    assert hist.count == 1


def test_handler_errors_are_counted_and_recorded():
    actor = EchoActor()
    result = dispatch_call(actor, Call("x", "boom"))
    from repro.errors import RemoteError

    assert isinstance(result, RemoteError)
    snap = telemetry_of(actor).snapshot()
    assert snap["errors"] == {"boom": 1}
    assert LatencyHistogram.from_wire(snap["methods"]["boom"]).count == 1


def test_slotted_actor_degrades_to_disabled_telemetry():
    class Slotted:
        __slots__ = ()

        def handle(self, method, args):
            return None

    actor = Slotted()
    assert dispatch_call(actor, Call("x", "anything")) is None
    snap = dispatch_call(actor, Call("x", "telemetry"))
    assert snap["methods"] == {}  # recording dropped, not a crash


def test_slow_ring_wraps_and_counts_overflow():
    tele = ActorTelemetry(slow_threshold_ns=0)
    for i in range(SLOW_RING_SIZE + 10):
        tele.record(f"m{i}", service_ns=1, error=False)
    assert len(tele.slow) == SLOW_RING_SIZE
    assert tele.slow_seen == SLOW_RING_SIZE + 10
    # the oldest spans were overwritten in place
    methods = {span[1] for span in tele.slow}
    assert "m0" not in methods and f"m{SLOW_RING_SIZE + 9}" in methods


# ---------------------------------------------------------------------------
# the unified scrape across deployments
# ---------------------------------------------------------------------------


def assert_metrics_shape(metrics: dict, source: str) -> None:
    assert metrics["schema"] == METRICS_SCHEMA
    assert metrics["source"] == source
    assert metrics["actors"]
    busy = [e for e in metrics["actors"].values() if e["methods"]]
    assert busy, "no actor recorded any method histogram"
    for entry in busy:
        for row in entry["methods"].values():
            assert row["count"] >= 1
            assert 0 <= row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
            assert row["p99_ms"] <= row["max_ms"] * (1 + 1 / 16)
    json.dumps(metrics)  # the whole document must be JSON-safe


def test_inproc_metrics_document(dep):
    run_workload(dep)
    metrics = dep.metrics()
    assert_metrics_shape(metrics, "inproc")
    # no wire layer -> no counters, and reconcile() skips such actors
    assert all(e["sub_calls"] is None for e in metrics["actors"].values())
    assert reconcile(metrics) == []
    assert "cluster metrics (inproc):" in render_metrics(metrics)


def test_threaded_metrics_reconcile(threaded_dep):
    run_workload(threaded_dep)
    metrics = threaded_dep.metrics()
    assert_metrics_shape(metrics, "threaded")
    assert reconcile(metrics) == []


def test_simulated_metrics_include_node_utilization():
    dep = SimDeployment(DeploymentSpec(n_data=2, n_meta=2, n_clients=1))
    blob = dep.alloc_blob(TOTAL, PAGE)
    sim_client = dep.client()
    sim_client.write_virtual(blob, 0, 8 * PAGE)
    sim_client.read_virtual(blob, 0, 8 * PAGE)
    metrics = dep.metrics()
    assert_metrics_shape(metrics, "simulated")
    assert metrics["nodes"], "simulated scrape must re-export utilization"
    for entry in metrics["nodes"].values():
        assert set(entry) == {"role", "cpu", "tx", "rx"}
    assert "node utilization (simulated):" in render_metrics(metrics)


def test_simulated_scrape_reconciles():
    """The simulator counts what each actor served, so its scrape is
    checked like the live drivers': calls to a failed address reach no
    actor and are counted nowhere."""
    dep = SimDeployment(DeploymentSpec(n_data=2, n_meta=2, n_clients=1, replication=2))
    client = dep.client()
    blob = client.alloc(TOTAL, PAGE)
    client.write_virtual(blob, 0, 8 * PAGE)
    dep.driver.fail(("data", 1))
    client.read_virtual(blob, 0, 8 * PAGE)
    dep.driver.heal(("data", 1))
    metrics = dep.metrics()
    touched = {
        name: entry for name, entry in metrics["actors"].items() if entry["calls"]
    }
    assert set(touched) == {"vm", "pm", "data/0", "data/1", "meta/0", "meta/1"}
    for entry in touched.values():
        assert entry["sub_calls"] == entry["calls"]
    assert reconcile(metrics) == []


# ---------------------------------------------------------------------------
# scrape invisibility (controls are never counted)
# ---------------------------------------------------------------------------


def test_scrape_does_not_perturb_server_stats(threaded_dep):
    run_workload(threaded_dep)
    before = threaded_dep.driver.server_stats()
    for _ in range(3):
        threaded_dep.metrics()
    assert threaded_dep.driver.server_stats() == before
    # and telemetry never shows up as a served method either
    for entry in threaded_dep.metrics()["actors"].values():
        assert "telemetry" not in entry["methods"]


def test_scrape_is_idempotent_on_quiescent_cluster(threaded_dep):
    run_workload(threaded_dep)
    first = threaded_dep.metrics()
    second = threaded_dep.metrics()
    assert first == second


# ---------------------------------------------------------------------------
# trace propagation + caller RTT
# ---------------------------------------------------------------------------


def test_trace_rides_to_service_threads(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_SLOW_MS", "0")  # every sub-call is "slow"
    with build_threaded(DeploymentSpec(n_data=2, n_meta=2)) as dep:
        client = dep.client("tracer")
        blob = client.alloc(TOTAL, PAGE)
        with trace_operation("write") as trace_id:
            client.write(blob, b"\x01" * (2 * PAGE), 0)
        assert current_op() is None
        traced = {
            span["trace"]
            for entry in dep.metrics()["actors"].values()
            for span in entry["slow"]
        }
        assert trace_id in traced
        # post-trace traffic must not inherit the closed trace
        client.read_bytes(blob, 0, PAGE)
        late = [
            span
            for entry in dep.metrics()["actors"].values()
            for span in entry["slow"]
            if span["method"] == "data.get_page"
        ]
        assert late and any(s["trace"] is None for s in late)


def test_caller_rtt_histograms_cover_destinations(threaded_dep):
    run_workload(threaded_dep)
    rtt = threaded_dep.driver.caller_rtt()
    assert {"vm", "data", "meta"} <= set(rtt)
    for hist in rtt.values():
        assert hist.count >= 1
        assert hist.quantile(0.99) >= hist.quantile(0.50)


# ---------------------------------------------------------------------------
# live TCP cluster: CLI scrape, reconciliation, workload_stats immunity
# ---------------------------------------------------------------------------


def test_tcp_scrape_cli_and_workload_stats(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_OBS_SLOW_MS", "0")  # agents inherit os.environ
    from repro.tools.metrics import main as metrics_main

    with build_tcp(DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0)) as dep:
        client = dep.client("tcp-tracer")
        blob = client.alloc(TOTAL, PAGE)
        with trace_operation("write") as trace_id:
            client.write(blob, b"\x02" * (2 * PAGE), 0)

        workload_before = dep.workload_stats()
        metrics = dep.metrics()
        assert_metrics_shape(metrics, "tcp")
        assert reconcile(metrics) == []
        # agent-hosted actors report real wire counters over the scrape control
        remote = metrics["actors"]["data/0"]
        assert remote["wire_rpcs"] >= 1
        assert remote["sub_calls"] == remote["calls"]
        # the trace id crossed real sockets into agent processes, with
        # the request size captured from the frame
        remote_spans = [
            span
            for name, entry in metrics["actors"].items()
            if name.startswith(("data/", "meta/"))
            for span in entry["slow"]
        ]
        assert any(s["trace"] == trace_id for s in remote_spans)
        assert any(s["bytes"] > 0 for s in remote_spans)

        # the CLI scrapes the same live cluster and reconciles clean
        endpoints = tmp_path / "cluster.json"
        endpoints.write_text(json.dumps(dep.cluster_map.to_spec()))
        rc = metrics_main(["--endpoints", f"@{endpoints}", "--json", "--check"])
        captured = capsys.readouterr()
        assert rc == 0
        doc = json.loads(captured.out)
        assert doc["schema"] == METRICS_SCHEMA
        assert "reconcile: OK" in captured.err

        # neither our scrape nor the CLI's moved a single counter,
        # and the cluster is still serving
        assert dep.workload_stats() == workload_before
        assert client.read_bytes(blob, 0, PAGE) == b"\x02" * PAGE


# ---------------------------------------------------------------------------
# logging hierarchy (satellite: repro.* loggers, one idempotent handler)
# ---------------------------------------------------------------------------


@pytest.fixture
def clean_repro_logger():
    root = logging.getLogger("repro")
    saved = (list(root.handlers), root.level)
    root.handlers = [h for h in root.handlers if not getattr(h, "_repro_obs_handler", False)]
    yield root
    root.handlers, root.level = saved


def test_configure_logging_is_idempotent(clean_repro_logger):
    first = configure_logging(logging.INFO)
    second = configure_logging(logging.DEBUG)
    assert first is second is clean_repro_logger
    marked = [
        h for h in clean_repro_logger.handlers
        if getattr(h, "_repro_obs_handler", False)
    ]
    assert len(marked) == 1
    assert clean_repro_logger.level == logging.DEBUG


def test_slow_spans_emit_debug_log_lines(clean_repro_logger, capsys):
    import sys

    configure_logging(logging.DEBUG, stream=sys.stderr)
    tele = ActorTelemetry(slow_threshold_ns=0)
    tele.record("data.get_page", service_ns=42, error=False)
    err = capsys.readouterr().err
    assert "DEBUG repro.obs: slow span: method=data.get_page" in err
    assert capsys.readouterr().out == ""  # stdout untouched (READY line)
