"""Engine determinism: the guardrail behind the fast-path event loop.

The discrete-event engine promises that identical inputs produce identical
simulated trajectories — same timestamps, same series, same event counts.
Every benchmark figure rests on this, and the zero-delay "now" queue /
counter-based join rewrite must preserve it. These tests run real protocol
workloads (not just toy timeouts) twice and require bit-identical results.
"""

from __future__ import annotations

from repro.bench.workloads import SegmentPicker, populate_window, run_concurrent_clients
from repro.core.config import DeploymentSpec
from repro.deploy.simulated import SimDeployment
from repro.util.sizes import KB, MB


def _run_mixed_workload() -> dict:
    """A small but representative workload: writes, then concurrent reads."""
    dep = SimDeployment(
        DeploymentSpec(n_data=4, n_meta=4, n_clients=3, cache_capacity=0)
    )
    blob = dep.alloc_blob(64 * MB, 64 * KB)
    picker = SegmentPicker(window=4 * MB, segment=1 * MB)

    setup = dep.client("populator", cached=False)
    populate_window(setup, blob, window=4 * MB, segment=1 * MB)
    write_done_at = dep.now

    bandwidths = run_concurrent_clients(
        dep, blob, n_clients=3, iterations=4, picker=picker, kind="read"
    )

    # one traced read so its modeled span times are part of the fingerprint
    reader = dep.client("traced", index=1, cached=False)
    with dep.traced("read") as tid:
        result = reader.read_virtual(blob, 0, 1 * MB)
    trace = [
        (s["kind"], s["name"], s["start_ns"], s["end_ns"])
        for s in dep.spans()
        if s["trace"] == tid
    ]

    return {
        "write_done_at": write_done_at,
        "bandwidths": bandwidths,
        "trace": trace,
        "final_now": dep.now,
        "events_processed": dep.sim.events_processed,
        "wire_rpcs": dep.executor.wire_rpcs,
        "sub_calls": dep.executor.sub_calls,
        "messages_sent": dep.network.messages_sent,
        "bytes_sent": dep.network.bytes_sent,
        "nodes_fetched": result.nodes_fetched,
        "pages_fetched": result.pages_fetched,
    }


def _run_concurrent_writers() -> dict:
    """Concurrent writers exercise the multi-destination fan-out join."""
    dep = SimDeployment(
        DeploymentSpec(n_data=6, n_meta=6, n_clients=4, cache_capacity=0)
    )
    blob = dep.alloc_blob(64 * MB, 64 * KB)
    picker = SegmentPicker(window=8 * MB, segment=2 * MB)
    bandwidths = run_concurrent_clients(
        dep, blob, n_clients=4, iterations=3, picker=picker, kind="write"
    )
    return {
        "bandwidths": bandwidths,
        "final_now": dep.now,
        "events_processed": dep.sim.events_processed,
        "wire_rpcs": dep.executor.wire_rpcs,
        "bytes_sent": dep.network.bytes_sent,
        "latest": dep.vm.stat(blob)[2],
    }


class TestEngineDeterminism:
    def test_mixed_workload_identical_across_runs(self):
        first = _run_mixed_workload()
        second = _run_mixed_workload()
        assert first == second  # timestamps, series, and counters all match

    def test_mixed_workload_trace_timestamps_are_exact(self):
        trace = _run_mixed_workload()["trace"]
        # the op and its rpc + serving spans exist; the rpc spans (the
        # READ's batches) end in order in simulated time
        assert {kind for kind, *_ in trace} == {"op", "rpc", "server"}
        ends = [end for kind, _, _, end in trace if kind == "rpc"]
        assert len(ends) >= 3 and ends == sorted(ends)
        # and they are bit-identical on a re-run (not just approximately)
        assert _run_mixed_workload()["trace"] == trace

    def test_concurrent_writers_identical_across_runs(self):
        assert _run_concurrent_writers() == _run_concurrent_writers()

    def test_event_counter_advances(self):
        stats = _run_mixed_workload()
        assert stats["events_processed"] > 0
        assert stats["wire_rpcs"] > 0
        assert stats["sub_calls"] >= stats["wire_rpcs"]
        # two messages (request + response) per wire RPC
        assert stats["messages_sent"] == 2 * stats["wire_rpcs"]
