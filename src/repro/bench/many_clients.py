"""Many-client tail latency: the asyncio driver under thousands of clients.

The thread-per-client deployments top out at a few dozen concurrent
client programs — each one costs an OS thread, and the interesting
regime for a storage *service* starts where threads stop scaling. The
:class:`~repro.net.aio.AioDriver` exists for exactly that regime: one
event loop multiplexes every peer socket, so a "client" is a coroutine
plus a pending-call table entry, and ten thousand of them need neither
ten thousand threads nor ten thousand file descriptors.

This module drives a *real* loopback TCP cluster (node-agent OS
processes behind the length-prefixed wire codec — nothing simulated)
with N concurrent :class:`~repro.core.client.AsyncBlobClient` programs
per tier. Every client awaits one page WRITE then reads its page back,
and each operation's host duration feeds a
:class:`~repro.obs.hist.LatencyHistogram` — the identical log-bucketed
accumulator the live telemetry path records into — from which the
figure plots Read/Write p50/p95/p99 versus client count.

Numbers are host wall-clock (NOT simulated, NOT deterministic): results
are published under ``benchmarks/out`` for trajectory tracking but are
deliberately never pinned in ``benchmarks/baseline/``.
"""

from __future__ import annotations

import asyncio
import gc
import time

from repro.bench.figures import FigureData, Series
from repro.core.config import DeploymentSpec
from repro.deploy.tcp import build_tcp
from repro.obs.hist import LatencyHistogram
from repro.util.sizes import KB, human_size

#: per-op ceiling generous enough for a loaded CI host; a tier that
#: cannot finish inside this is a hang, not a slow run
TIER_TIMEOUT = 600.0


async def _client_program(
    dep,
    idx: int,
    blob: str,
    page: int,
    reads_per_client: int,
    gate: asyncio.Event,
    read_hist: LatencyHistogram,
    write_hist: LatencyHistogram,
) -> None:
    """One simulated open connection: connect, write a page, read it back.

    The gate models the "open" in open connection: every client of the
    tier is constructed and parked before any operation starts, so the
    measured quantiles reflect N *concurrent* programs, not a ramp.
    """
    client = dep.async_client(f"mc-{idx}")
    payload = bytes([(idx % 251) + 1]) * page
    offset = idx * page
    await gate.wait()
    t0 = time.perf_counter_ns()
    await client.write(blob, payload, offset)
    write_hist.record(time.perf_counter_ns() - t0)
    for _ in range(reads_per_client):
        t0 = time.perf_counter_ns()
        data = await client.read_bytes(blob, offset, page)
        read_hist.record(time.perf_counter_ns() - t0)
        if data != payload:
            raise AssertionError(f"client {idx} read back corrupt bytes")


async def _run_tier(
    dep, n_clients: int, blob: str, page: int, reads_per_client: int
) -> tuple[LatencyHistogram, LatencyHistogram]:
    """Run one client-count tier to completion on the driver's loop."""
    read_hist = LatencyHistogram()
    write_hist = LatencyHistogram()
    gate = asyncio.Event()
    tasks = [
        asyncio.ensure_future(
            _client_program(
                dep, i, blob, page, reads_per_client, gate, read_hist, write_hist
            )
        )
        for i in range(n_clients)
    ]
    gate.set()
    try:
        await asyncio.gather(*tasks)
    finally:
        for t in tasks:
            t.cancel()
    return read_hist, write_hist


def many_clients_quantiles(
    client_counts: tuple[int, ...] = (256, 2048),
    *,
    reads_per_client: int = 2,
    n_data: int = 4,
    n_meta: int = 2,
    page: int = 4 * KB,
) -> FigureData:
    """Read/Write latency quantiles vs concurrent asyncio clients.

    One loopback TCP cluster (``build_tcp(client="aio")``) is built and
    reused across all tiers; each tier launches ``client_counts[i]``
    coroutine clients that all start together behind a gate, perform one
    page write plus ``reads_per_client`` reads of their own page, and
    record per-operation host nanoseconds into Read/Write histograms.
    Histograms are recorded on the single event-loop thread — the
    single-writer convention :class:`~repro.obs.hist.LatencyHistogram`
    documents — and quantiles are reported in milliseconds.
    """
    spec = DeploymentSpec(
        n_data=n_data, n_meta=n_meta, cache_capacity=0
    )
    fig = FigureData(
        figure_id="Many clients",
        title="Async client tail latency under simulated open connections",
        xlabel="concurrent asyncio clients",
        ylabel="operation latency (ms)",
        notes=f"{human_size(page)} pages on a real loopback TCP cluster "
        f"({n_data} data + {n_meta} meta agents), 1 write + "
        f"{reads_per_client} reads per client; host wall-clock, never "
        "baseline-pinned",
    )
    quantiles = {
        f"{kind} {q}": [] for kind in ("Read", "Write") for q in ("p50", "p95", "p99")
    }
    with build_tcp(spec, client="aio") as dep:
        setup = dep.client("mc-setup")
        # one private page per client at the widest tier, rounded up to the
        # power-of-two total the tree geometry requires
        total = 1 << (max(client_counts) * page - 1).bit_length()
        blob = setup.alloc(total, page)
        for n_clients in client_counts:
            # Each tier starts from a collected heap with every survivor
            # frozen, so a full collection scans only what the tier itself
            # allocates. Otherwise the heap the calling process already
            # holds (a pytest session's earlier tests: ~160k objects) costs
            # one ~0.25 s gen-2 pass inside the ~0.5 s 256-client tier on a
            # 2-vCPU VM: a stall of the caller's heap, not of the scheduler.
            gc.collect()
            gc.freeze()
            try:
                read_hist, write_hist = dep.driver.run_async(
                    _run_tier(dep, n_clients, blob, page, reads_per_client),
                    timeout=TIER_TIMEOUT,
                )
            finally:
                gc.unfreeze()
            assert write_hist.count == n_clients
            assert read_hist.count == n_clients * reads_per_client
            for kind, hist in (("Read", read_hist), ("Write", write_hist)):
                for q, p in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                    quantiles[f"{kind} {q}"].append(hist.quantile(p) / 1e6)
        transport = dep.driver.transport_stats()
        served = dep.driver.server_stats().values()
    for label, ys in quantiles.items():
        fig.series.append(Series(label, list(client_counts), ys))
    fig.counters = {
        "wire_rpcs_served": sum(rpcs for rpcs, _calls in served),
        "sub_calls_served": sum(calls for _rpcs, calls in served),
        "batches": transport["batches"],
        "queue_submissions": transport["queue_submissions"],
        "sub_calls_submitted": transport["sub_calls"],
        "completion_wakeups": transport["completion_wakeups"],
    }
    return fig
