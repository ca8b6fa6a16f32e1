"""Ablation A: lock-free versioning vs a global reader-writer lock.

The design's raison d'être. Both series run this system's own WRITE on
the same simulated deployment; the locked series brackets every WRITE
with a global RW lock (``bench.workloads.SimRWLock``, a 64 B request and
grant to a lock-manager node and a 32 B release), so the lock's messages
and the wait for it are the only difference. Under the lock, concurrent
writers serialize end-to-end and per-writer bandwidth collapses as 1/n;
the paper's design keeps it nearly flat.
"""

import time

from repro.bench.figures import ablation_lockfree, render_series_table


def test_ablation_lockfree(benchmark, publish, publish_json, profile):
    t0 = time.perf_counter()
    fig = benchmark.pedantic(
        ablation_lockfree,
        kwargs=dict(
            client_counts=profile.ablation_clients,
            iterations=profile.ablation_iterations,
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    wall = time.perf_counter() - t0
    publish(
        "ablation_lockfree", render_series_table(fig, y_format=lambda v: f"{v:.1f}")
    )
    publish_json("ablation_lockfree", fig.figure_id, fig.series, wall, fig.counters)

    lockfree = fig.series_by_label("lock-free (this system)").y
    locked = fig.series_by_label("global RW lock").y
    n = fig.series_by_label("global RW lock").x

    # single writer: nothing to wait for, so the lock adds only its messages
    assert 0.99 * lockfree[0] < locked[0] < lockfree[0]

    # the collapse: at the largest writer count the lock costs >= ~(n/2)x
    assert locked[-1] < lockfree[-1] / (n[-1] / 2)

    # lock-free stays nearly flat
    assert lockfree[-1] > 0.7 * lockfree[0]
    # locked bandwidth scales like 1/n (within 40% of the ideal collapse)
    ideal = locked[0] / n[-1]
    assert locked[-1] < ideal * 1.6
