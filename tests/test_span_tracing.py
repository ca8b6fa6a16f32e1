"""Distributed span tracing: buffers, alignment, export, flight recorder.

The pins for PR 9's span layer, working outward from the primitives:

- span buffers and ``trace_operation`` (client-compute coverage spans);
- cross-process clock alignment — real node-agent OS processes whose raw
  timestamps provably do *not* nest until alignment shifts them;
- the end-to-end ``repro.tools.trace run --check`` acceptance on a live
  TCP cluster (>= 95 % op coverage, reconciliation, Chrome validity);
- simulated timelines: same schema, deterministic modulo random ids;
- the flight recorder: segment rotation, torn tails, and a SIGKILLed
  agent leaving readable samples behind;
- operator knobs that ride along: ``REPRO_LOG`` and ``--watch``.

Every blocking wait is wall-clock bounded (tests/conftest.py watchdog).
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.simulated import SimDeployment
from repro.deploy.tcp import build_tcp
from repro.deploy.threaded import build_threaded
from repro.obs.export import (
    align_spans,
    chrome_trace,
    coverage,
    render_critical_path,
    validate_chrome,
    validate_span,
    validate_spans,
)
from repro.obs.metrics import collect_spans, reconcile
from repro.obs.recorder import (
    FlightRecorder,
    list_segments,
    read_flight_records,
)
from repro.obs.spans import (
    CALLER,
    SIM_DOMAIN,
    SpanBuffer,
    make_span,
    new_span_id,
    trace_async_operation,
    trace_operation,
)
from repro.util.sizes import KB, MB, TB

PAGE = 4 * KB
TOTAL = 1 * MB


def strip_ids(span: dict) -> dict:
    """A span with its randomly minted identifiers removed — what must
    be reproducible across runs of a deterministic simulation."""
    return {
        k: v for k, v in span.items() if k not in ("trace", "span", "parent")
    }


# ---------------------------------------------------------------------------
# primitives: buffers, trace_operation, schema validation
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_span_buffer_is_a_bounded_ring(self):
        buf = SpanBuffer(capacity=4)
        for i in range(10):
            buf.record(
                make_span(1, i + 1, None, "rpc", f"s{i}", "client", i, i + 1)
            )
        spans = buf.snapshot()
        assert len(spans) == 4 and buf.seen == 10
        assert {s["name"] for s in spans} == {"s6", "s7", "s8", "s9"}
        buf.clear()
        assert buf.snapshot() == [] and buf.seen == 0

    def test_trace_operation_covers_its_own_window(self):
        """With no RPCs inside, the op's wall time is all client compute:
        exit records one client span spanning the whole op window."""
        got: list[dict] = []
        with trace_operation("idle-op", collector=got.append) as tid:
            pass
        assert validate_spans(got) == []
        kinds = {s["kind"]: s for s in got}
        assert set(kinds) == {"op", "client"}
        op, client = kinds["op"], kinds["client"]
        assert op["trace"] == client["trace"] == tid
        assert client["parent"] == op["span"]
        assert client["start_ns"] == op["start_ns"]
        assert client["end_ns"] <= op["end_ns"]
        assert coverage(got)[tid] == pytest.approx(1.0)

    def test_trace_operation_records_errors(self):
        got: list[dict] = []
        with pytest.raises(RuntimeError):
            with trace_operation("doomed", collector=got.append):
                raise RuntimeError("boom")
        op = next(s for s in got if s["kind"] == "op")
        assert op["error"] is True and op["name"] == "doomed"

    def test_an_open_op_does_not_tag_another_threads_batches(self):
        """The open operation is per context: a thread's batches run while
        another thread holds a ``trace_operation`` open stay untraced —
        no rpc span on the caller side, no serving span on the actors."""
        opened, release = threading.Event(), threading.Event()
        tids = []

        def holder():
            with trace_operation("holder") as tid:
                tids.append(tid)
                opened.set()
                release.wait(10)

        with build_threaded(DeploymentSpec(n_data=2, n_meta=2)) as dep:
            client = dep.client("bystander")
            blob = client.alloc(TOTAL, PAGE)
            CALLER.clear()
            thread = threading.Thread(target=holder)
            thread.start()
            try:
                assert opened.wait(10)
                client.write(blob, b"\x05" * PAGE, 0)
            finally:
                release.set()
                thread.join(10)
            assert [s["kind"] for s in CALLER.snapshot()] == ["client", "op"]
            assert collect_spans(dep.metrics()) == []

    def test_validate_span_rejects_malformed(self):
        good = make_span(1, 2, None, "rpc", "data/0", "client", 0, 5)
        assert validate_span(good) == []
        assert validate_span({**good, "kind": "banana"})
        assert validate_span({**good, "start_ns": 9, "end_ns": 3})
        assert validate_span({k: v for k, v in good.items() if k != "trace"})
        assert validate_span({**good, "extra": 1})


@pytest.mark.parametrize(
    "build", [build_threaded, build_tcp, partial(build_tcp, client="aio")],
    ids=["threaded", "tcp", "aio"],
)
def test_in_parent_server_spans_carry_their_rpc_bytes(build):
    """Every server span records the request bytes its parent rpc span
    records: an in-parent vm/pm's, served off its service thread's inbox
    rather than a frame; an agent-hosted data or meta provider's, served
    off a frame whose body length differs from the calls' payload bytes
    (tcp); and each run's of a frame several traced writers' groups
    coalesced into (aio), not the whole frame's."""
    aio = isinstance(build, partial)
    with build(DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0)) as dep:
        client = dep.client("span-bytes")
        blob = client.alloc(TOTAL, PAGE)
        CALLER.clear()
        if aio:
            writers = [dep.async_client(f"span-bytes-{i}") for i in range(8)]
            submitted = dep.transport_stats()["queue_submissions"]
            served = sum(r for r, _ in dep.driver.server_stats().values())

            async def write(i):
                async with trace_async_operation(f"write-{i}"):
                    await writers[i].write(blob, bytes([i + 1]) * PAGE, i * PAGE)

            async def main():
                await asyncio.gather(*(write(i) for i in range(len(writers))))

            dep.driver.run_async(main(), timeout=30)
            frames = sum(r for r, _ in dep.driver.server_stats().values()) - served
            groups = dep.transport_stats()["queue_submissions"] - submitted
            assert frames < groups, "no frame was coalesced"
        else:
            with trace_operation("span-bytes"):
                client.write(blob, b"\x04" * (2 * PAGE), 0)
        spans = collect_spans(dep.metrics()) + CALLER.snapshot()
    rpcs = {s["span"]: s for s in spans if s["kind"] == "rpc"}
    served = [s for s in spans if s["kind"] == "server"]
    assert {s["name"] for s in served} >= {
        "pm.get_providers", "data.put_page", "vm.assign", "meta.put_nodes",
        "vm.complete",
    }
    for span in served:
        assert span["bytes"] == rpcs[span["parent"]]["bytes"] > 0, span


# ---------------------------------------------------------------------------
# cross-process clock alignment (real node-agent OS processes)
# ---------------------------------------------------------------------------


class TestProcessAlignment:
    def test_children_nest_only_after_alignment(self):
        """Node agents mint their span epoch when they start, so their raw
        serving timestamps live in clock domains unrelated to the
        caller's. The negative control pins that the alignment step is
        load-bearing: raw server spans do NOT sit inside their parent rpc
        windows; aligned ones all do, and together the spans cover the
        traced op nearly wall-to-wall."""
        dep = build_tcp(DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0))
        try:
            client = dep.client("span-test")
            blob = client.alloc(TOTAL, PAGE)
            client.write(blob, b"\x01" * (4 * PAGE), 0)  # warm-up, untraced
            CALLER.clear()
            with trace_operation("proc-write") as tid:
                client.write(blob, b"\x02" * (4 * PAGE), 0)
            spans = collect_spans(dep.metrics()) + CALLER.snapshot()
        finally:
            dep.close()
        assert validate_spans(spans) == []
        assert {s["kind"] for s in spans} == {"op", "client", "rpc", "server"}
        # several genuine clock domains: the caller plus two agent processes
        assert len({s["domain"] for s in spans}) >= 3

        def nested(pairs):
            return [
                s["start_ns"] >= p["start_ns"] and s["end_ns"] <= p["end_ns"]
                for p, s in pairs
            ]

        def rpc_server_pairs(span_list):
            by_id = {s["span"]: s for s in span_list}
            return [
                (by_id[s["parent"]], s)
                for s in span_list
                if s["kind"] == "server" and s["parent"] in by_id
            ]

        # negative control: the agents' epochs were minted long after the
        # caller's, so unaligned serving times fall far outside the rpc
        # windows — no cross-process pair nests until the clocks are
        # reconciled. (Same-process pairs — the in-process control plane —
        # share the caller's domain and nest trivially; exclude them.)
        cross = [
            (p, s) for p, s in rpc_server_pairs(spans)
            if p["domain"] != s["domain"]
        ]
        assert cross, "agent serving spans must link to caller rpc spans"
        assert not any(nested(cross))

        aligned, offsets = align_spans(spans)
        assert len(offsets) == len({s["domain"] for s in spans})
        assert all(nested(rpc_server_pairs(aligned)))
        assert coverage(aligned)[tid] >= 0.95

    def test_chrome_export_of_aligned_timeline(self):
        dep = build_tcp(DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0))
        try:
            client = dep.client("chrome-test")
            blob = client.alloc(TOTAL, PAGE)
            CALLER.clear()
            with trace_operation("proc-read-write"):
                client.write(blob, b"\x03" * (2 * PAGE), 0)
                client.read_bytes(blob, 0, 2 * PAGE)
            spans = collect_spans(dep.metrics()) + CALLER.snapshot()
        finally:
            dep.close()
        aligned, _ = align_spans(spans)
        doc = chrome_trace(aligned)
        assert validate_chrome(doc) == []
        json.dumps(doc)  # must be serializable as-is
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert any(n.startswith("server:") for n in names)
        assert any(n.startswith("rpc:") for n in names)
        report = render_critical_path(aligned)
        assert "critical path:" in report and "serving side" in report


# ---------------------------------------------------------------------------
# the trace CLI on a live TCP cluster (the PR's acceptance gate)
# ---------------------------------------------------------------------------


class TestTraceCli:
    def test_run_check_exports_and_validates(self, tmp_path, capsys):
        """``trace run --check`` on a loopback TCP cluster: >= 95 % op
        coverage after alignment, clean reconciliation against the PR 8
        histograms, and a valid Chrome document on disk — exactly what CI
        runs as the trace-export conformance step."""
        from repro.tools.trace import main as trace_main

        chrome_out = tmp_path / "trace.json"
        spans_out = tmp_path / "spans.json"
        rc = trace_main([
            "run", "--data", "2", "--meta", "2",
            "--size", str(64 * KB), "--reads", "1",
            "--chrome", str(chrome_out), "--spans", str(spans_out),
            "--critical-path", "--check",
        ])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "check: OK" in captured.err
        assert "clock domain" in captured.out
        doc = json.loads(chrome_out.read_text())
        assert validate_chrome(doc) == []
        assert doc["traceEvents"], "exported timeline must not be empty"
        spans = json.loads(spans_out.read_text())
        assert validate_spans(spans) == []
        # one aligned timeline: every domain tag rewritten to the reference
        assert len({s["domain"] for s in spans}) == 1

    def test_attach_scrapes_live_cluster(self, tmp_path, capsys):
        from repro.tools.trace import main as trace_main

        with build_tcp(DeploymentSpec(n_data=2, n_meta=2, cache_capacity=0)) as dep:
            client = dep.client("attach-test")
            blob = client.alloc(TOTAL, PAGE)
            CALLER.clear()
            with trace_operation("attached-write"):
                client.write(blob, b"\x04" * (2 * PAGE), 0)
            endpoints = tmp_path / "cluster.json"
            endpoints.write_text(json.dumps(dep.cluster_map.to_spec()))
            before = dep.workload_stats()
            rc = trace_main([
                "attach", "--endpoints", f"@{endpoints}",
                "--chrome", str(tmp_path / "attached.json"),
            ])
            captured = capsys.readouterr()
            assert rc == 0, captured.err
            assert "attached:" in captured.out
            # attaching is control-only: no workload counter moved
            assert dep.workload_stats() == before
        doc = json.loads((tmp_path / "attached.json").read_text())
        assert validate_chrome(doc) == []

    def test_attach_bad_endpoints_exits_2(self, capsys):
        from repro.tools.trace import main as trace_main

        assert trace_main(["attach", "--endpoints", "[]"]) == 2
        assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# simulated timelines: same schema, deterministic modulo ids
# ---------------------------------------------------------------------------


class TestSimSpans:
    def make(self):
        return SimDeployment(
            DeploymentSpec(n_data=4, n_meta=4, n_clients=1, cache_capacity=0)
        )

    def run_traced(self, dep):
        client = dep.client()
        blob = client.alloc(1 * TB, 64 * KB)
        dep.clear_spans()
        with dep.traced("sim-write") as tid:
            client.write_virtual(blob, 0, 8 * 64 * KB)
        return dep.spans(), tid

    def test_sim_spans_share_the_real_schema(self):
        spans, tid = self.run_traced(self.make())
        assert validate_spans(spans) == []
        assert {s["kind"] for s in spans} >= {"op", "rpc", "server"}
        assert all(s["domain"] == SIM_DOMAIN for s in spans)
        assert all(s["trace"] == tid for s in spans)
        # born aligned: exporting needs no offset estimation
        aligned, offsets = align_spans(spans)
        assert offsets == {SIM_DOMAIN: 0}
        assert validate_chrome(chrome_trace(aligned)) == []
        # serving spans nest inside their rpc windows by construction
        by_id = {s["span"]: s for s in spans}
        servers = [s for s in spans if s["kind"] == "server"]
        assert servers
        for s in servers:
            parent = by_id[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]

    def test_sim_spans_are_deterministic_modulo_ids(self):
        """Two identical simulations must model the identical timeline;
        only the randomly minted trace/span ids may differ. This pins
        that recording spans schedules no extra simulator events."""
        first, _ = self.run_traced(self.make())
        second, _ = self.run_traced(self.make())
        assert [strip_ids(s) for s in first] == [strip_ids(s) for s in second]

    def test_tracing_leaves_sim_timing_untouched(self):
        dep_plain, dep_traced = self.make(), self.make()
        blob_p = dep_plain.alloc_blob(1 * TB, 64 * KB)
        blob_t = dep_traced.alloc_blob(1 * TB, 64 * KB)
        dep_plain.client().write_virtual(blob_p, 0, 8 * 64 * KB)
        with dep_traced.traced():
            dep_traced.client().write_virtual(blob_t, 0, 8 * 64 * KB)
        assert dep_plain.sim.now == dep_traced.sim.now


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_segment_ring_rotates_and_reclaims(self, tmp_path):
        ticks = iter(range(10_000))
        rec = FlightRecorder(
            tmp_path,
            lambda: {"tick": next(ticks), "pad": "x" * 200},
            max_segment_bytes=1024,
            max_segments=3,
        )
        for _ in range(64):
            rec.sample()
        segments = [Path(p) for p in list_segments(str(tmp_path))]
        assert 1 <= len(segments) <= 3
        assert all(p.stat().st_size <= 1024 + 512 for p in segments)
        records = read_flight_records(tmp_path)
        assert records, "the ring must retain the newest samples"
        kept = [r["sample"]["tick"] for r in records]
        assert kept == sorted(kept) and kept[-1] == 63
        assert 0 not in kept, "oldest segments must have been reclaimed"

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path, caplog):
        rec = FlightRecorder(tmp_path, lambda: {"ok": True})
        rec.sample()
        rec.sample()
        seg = list_segments(str(tmp_path))[-1]
        with open(seg, "a") as fh:
            fh.write('{"t": 1, "sample": {"torn...')  # crash mid-write
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            records = read_flight_records(tmp_path)
        assert len(records) == 2
        assert all(r["sample"] == {"ok": True} for r in records)
        assert any("skipping" in r.message for r in caplog.records)

    def test_source_errors_are_recorded_not_raised(self, tmp_path):
        rec = FlightRecorder(tmp_path, lambda: 1 / 0)
        rec.sample()  # must not raise: keep recording through a crash
        (record,) = read_flight_records(tmp_path)
        assert "error" in record and "division" in record["error"]

    def test_background_sampler_start_stop(self, tmp_path):
        rec = FlightRecorder(tmp_path, lambda: {"n": 1}, interval_s=0.02)
        with rec:
            time.sleep(0.1)
        assert rec.samples_taken >= 2  # several periodic + the final one
        records = read_flight_records(tmp_path)
        assert len(records) == rec.samples_taken

    def test_sigkilled_agent_leaves_readable_samples(self, tmp_path):
        """The whole point: a node agent killed with SIGKILL (no atexit,
        no flush handlers) leaves a readable metrics trail on disk."""
        flight = tmp_path / "flight"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.node",
             "--actor", "data/0", "--port", "0",
             "--flight-recorder", str(flight), "--flight-interval", "0.05"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            assert proc.stdout.readline().startswith("READY")
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if flight.is_dir() and read_flight_records(flight):
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        records = read_flight_records(flight)
        assert records, "samples must survive a SIGKILLed agent"
        sample = records[-1]["sample"]
        assert sample["source"] == "node"
        assert "data/0" in sample["actors"]


# ---------------------------------------------------------------------------
# operator knobs: REPRO_LOG, metrics --watch
# ---------------------------------------------------------------------------


@pytest.fixture
def clean_repro_logger():
    root = logging.getLogger("repro")
    saved = (list(root.handlers), root.level)
    root.handlers = [
        h for h in root.handlers if not getattr(h, "_repro_obs_handler", False)
    ]
    yield root
    root.handlers, root.level = saved


class TestReproLogEnv:
    def test_env_overrides_requested_level(self, monkeypatch, clean_repro_logger):
        from repro.obs.logconfig import configure_logging

        monkeypatch.setenv("REPRO_LOG", "debug")
        assert configure_logging(logging.INFO).level == logging.DEBUG
        monkeypatch.setenv("REPRO_LOG", "15")
        assert configure_logging(logging.INFO).level == 15

    def test_unrecognized_value_is_ignored_with_note(
        self, monkeypatch, clean_repro_logger, capsys
    ):
        from repro.obs.logconfig import configure_logging

        monkeypatch.setenv("REPRO_LOG", "shouty")
        assert configure_logging(logging.INFO).level == logging.INFO
        assert "ignoring unrecognized REPRO_LOG" in capsys.readouterr().err


class TestMetricsWatch:
    def test_watch_reprints_with_delta_column(self, tmp_path, capsys):
        from repro.tools.metrics import main as metrics_main

        with build_tcp(DeploymentSpec(n_data=1, n_meta=1, cache_capacity=0)) as dep:
            client = dep.client("watcher")
            blob = client.alloc(TOTAL, PAGE)
            client.write(blob, b"\x05" * (2 * PAGE), 0)
            endpoints = tmp_path / "cluster.json"
            endpoints.write_text(json.dumps(dep.cluster_map.to_spec()))
            rc = metrics_main([
                "--endpoints", f"@{endpoints}",
                "--watch", "0.05", "--iterations", "2",
            ])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        # initial table plus two re-scrapes; re-scrapes carry the Δ column
        assert captured.out.count("actor") >= 3
        assert captured.out.count("Δcount") == 2

    def test_caller_rtt_is_folded_into_the_scrape(self):
        from repro.deploy.threaded import build_threaded

        with build_threaded(DeploymentSpec(n_data=2, n_meta=2)) as dep:
            client = dep.client("rtt")
            blob = client.alloc(TOTAL, PAGE)
            client.write(blob, b"\x06" * (2 * PAGE), 0)
            doc = dep.metrics()
        assert "caller_rtt" in doc
        assert {"vm", "data", "meta"} <= set(doc["caller_rtt"])
        assert all(row["count"] >= 1 for row in doc["caller_rtt"].values())
