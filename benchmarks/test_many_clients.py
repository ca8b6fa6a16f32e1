"""Many-client tail latency: p50/p95/p99 vs concurrent asyncio clients.

The thread-per-client drivers stop at tens of clients; the asyncio
driver's reason to exist is the thousands-of-connections regime. This
bench runs N coroutine clients (one simulated open connection each)
against a *real* loopback TCP cluster and publishes Read/Write
p50/p95/p99 per tier, recorded through the same
:class:`repro.obs.hist.LatencyHistogram` the live telemetry scrape
serves — the tail claim is measured with the instrument operators get.

Tiers come from the profile: (256, 2048) by default, (256, 2048, 10240)
under ``REPRO_BENCH_FULL=1``, overridable via a comma-separated
``REPRO_BENCH_AIO_CLIENTS`` (CI's dedicated step runs only 256).

Numbers are host wall-clock (NOT simulated, NOT deterministic): results
are printed and written to ``benchmarks/out`` but deliberately **never
pinned in benchmarks/baseline/** — see the baseline README policy. The
assertions pin *shape* only: quantile ordering per tier, and the
single-loop scheduler surviving every tier with every byte intact.
"""

import time

from repro.bench.figures import render_series_table
from repro.bench.many_clients import many_clients_quantiles


def test_many_clients_tail_latency(benchmark, publish, publish_json, profile):
    t0 = time.perf_counter()
    fig = benchmark.pedantic(
        many_clients_quantiles,
        kwargs=dict(client_counts=profile.aio_clients),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    wall = time.perf_counter() - t0
    publish(
        "many_clients", render_series_table(fig, y_format=lambda v: f"{v:.2f}")
    )
    publish_json("many_clients", fig.figure_id, fig.series, wall, fig.counters)

    for kind in ("Read", "Write"):
        p50 = fig.series_by_label(f"{kind} p50").y
        p95 = fig.series_by_label(f"{kind} p95").y
        p99 = fig.series_by_label(f"{kind} p99").y
        assert len(p50) == len(profile.aio_clients)
        # quantile ordering at every tier
        for lo, mid, hi in zip(p50, p95, p99):
            assert 0 < lo <= mid <= hi, (kind, lo, mid, hi)
        # the scheduler claim: with all N clients in flight at once the
        # distribution is queueing delay, and a fair single-loop scheduler
        # keeps it *flat* — p99 within a small factor of the median at
        # every tier (a stalled loop or unfair wakeup order shows up here
        # long before it shows up in means)
        for n, lo, hi in zip(profile.aio_clients, p50, p99):
            assert hi < 5.0 * lo, (kind, n, lo, hi)

    # every tier's every operation completed and verified its bytes:
    # 1 write + 2 reads per client per tier, each op 1+ wire RPCs
    total_ops = sum(3 * n for n in profile.aio_clients)
    assert fig.counters["queue_submissions"] >= total_ops
    # nothing was lost: every sub-call submitted was served — in fewer
    # frames than groups, because concurrent clients' groups to one peer
    # share frames (queue_submissions / wire_rpcs_served is the
    # coalescing factor, not a loss)
    assert fig.counters["sub_calls_served"] == fig.counters["sub_calls_submitted"]
    assert fig.counters["wire_rpcs_served"] <= fig.counters["queue_submissions"]
    assert fig.counters["completion_wakeups"] == fig.counters["batches"]
