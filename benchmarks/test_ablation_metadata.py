"""Ablation B: DHT-distributed metadata vs a centralized metadata server.

The paper distributes tree nodes over a DHT so metadata access scales with
providers. Concentrating all nodes on a single metadata server leaves the
protocol identical but turns that server's CPU into the bottleneck under
concurrent uncached readers.

Between those poles sits this repository's subtree-local routing cut ``S``
(``DeploymentSpec.meta_subtree_bytes``): the same figure sweeps it over
{0, 1 MB, 64 MB, whole blob} for segment readers, one-page readers and
writers confined to one 64 MB region, and reports the per-provider skew —
the hops-saved vs hot-spot trade the default ``SUBTREE_BYTES`` is read from.
"""

import time

from repro.bench.figures import ablation_metadata, render_series_table


def test_ablation_metadata(benchmark, publish, publish_json, profile):
    t0 = time.perf_counter()
    fig = benchmark.pedantic(
        ablation_metadata,
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
        "ablation_metadata", render_series_table(fig, y_format=lambda v: f"{v:.1f}")
    )
    publish_json("ablation_metadata", fig.figure_id, fig.series, wall, fig.counters)

    distributed = fig.series_by_label("distributed (20 providers)").y
    centralized = fig.series_by_label("centralized (1 provider)").y

    # with one reader the difference is modest
    assert centralized[0] > 0.5 * distributed[0]
    # under maximum concurrency the central server throttles readers
    assert centralized[-1] < 0.85 * distributed[-1]
    # distributed metadata keeps per-client bandwidth nearly flat
    assert distributed[-1] > 0.7 * distributed[0]
    # centralized degrades monotonically with concurrency
    assert all(b <= a * 1.05 for a, b in zip(centralized, centralized[1:]))

    # -- the subtree-local sweep ------------------------------------------
    def y(label):
        return fig.series_by_label(label).y

    # fine-grain reads are hop-bound. Between the poles the vm names the
    # region root, so a READ is three round trips whatever S is and what
    # is left is per-node work: the fewer levels below the cut, the faster
    pages = [y(f"one-page reads, S={s}") for s in ("0", "1 MB", "64 MB", "1 TB")]
    assert pages[0][0] < pages[3][0] < pages[2][0] < pages[1][0]
    assert pages[2][0] > 2.5 * pages[0][0]
    # ...at S = 64 MB without a hot spot (readers spread over 16 regions),
    # at S = whole blob with one: all readers queue on a single provider
    assert pages[2][-1] > 0.9 * pages[2][0]
    assert pages[3][-1] < 0.8 * pages[3][0]
    # segment-sized reads are client-bound: the cut never costs them more
    # than a few %, and buys some back where it skips many levels
    # (S = whole blob only up to 8 readers: past that its one provider
    # throttles them like the centralized layout does). These readers keep
    # no cache, so below the cut they receive the leaves only: at S = 1 MB,
    # where every level but the top ones is below it, they read about a
    # quarter faster than with per-node dispersal
    readers = fig.series_by_label("distributed (20 providers)").x
    for s, limit, lo, hi in (("1 MB", 16, 1.15, 1.35), ("64 MB", 16, 0.95, 1.15),
                             ("1 TB", 8, 0.95, 1.15)):
        local = y(f"subtree-local S={s}")
        assert all(
            lo * b < a < hi * b
            for n, a, b in zip(readers, local, distributed) if n <= limit
        )
    # the price: writers confined to one region all put on its one owner.
    # One meta.put_nodes per shard pays the DHT's async latency once, so a
    # lone writer is within 10 % of per-node dispersal; concurrent ones
    # still queue on that owner's per-node service time
    spread = y("writers in one 64 MB region, S=0")
    hot = y("writers in one 64 MB region, S=64 MB")
    assert spread[-1] > 0.9 * spread[0]
    assert hot[0] > 0.9 * spread[0]
    assert hot[-1] < 0.7 * spread[-1]
    # and the skew an operator would see grows with S, up to "everything
    # on one of the 20 providers"
    for label in ("lookups max/mean by S (readers)",
                  "puts max/mean by S (one-region writers)"):
        skew = y(label)
        assert skew == sorted(skew) and skew[0] < 2 and skew[-1] == 20.0
