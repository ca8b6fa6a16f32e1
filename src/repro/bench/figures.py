"""Figure generators: one function per paper figure + ablations.

Each generator builds fresh simulated deployments, runs the paper's
workload, and returns a :class:`FigureData` with measured series plus the
paper's (approximately digitized) curves for side-by-side comparison. The
bench targets under ``benchmarks/`` print these tables and assert shape
properties; ``benchmarks/out/`` records a snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.locked import LockedClusterSim
from repro.bench.workloads import (
    SegmentPicker,
    populate_window,
    run_concurrent_client_durations,
    run_concurrent_clients,
)
from repro.core.config import DeploymentSpec
from repro.deploy.simulated import SimDeployment
from repro.sim.network import ClusterSpec
from repro.util.sizes import GB, KB, MB, TB, human_size

#: the paper's testbed geometry
PAPER_TOTAL_SIZE = 1 * TB
PAPER_PAGESIZE = 64 * KB
#: Figure 3(a)/(b) x-axis (segment sizes)
PAPER_SEGMENT_SIZES = (64 * KB, 256 * KB, 1 * MB, 4 * MB, 16 * MB)
#: Figure 3(a)/(b) provider counts
PAPER_PROVIDER_COUNTS = (10, 20, 40)

# Approximate values digitized from the published plots (seconds; MB/s for
# 3c). Used for *shape* comparison only — the paper never tabulates them.
PAPER_FIG3A = {
    10: (0.006, 0.011, 0.021, 0.043, 0.092),
    20: (0.007, 0.012, 0.023, 0.047, 0.100),
    40: (0.008, 0.014, 0.026, 0.052, 0.110),
}
PAPER_FIG3B = {
    10: (0.010, 0.018, 0.038, 0.080, 0.165),
    20: (0.009, 0.015, 0.030, 0.062, 0.130),
    40: (0.008, 0.013, 0.026, 0.053, 0.110),
}
PAPER_FIG3C_CLIENTS = (1, 4, 8, 12, 16, 20)
PAPER_FIG3C = {
    "read": (66.0, 65.0, 64.0, 63.0, 62.0, 61.0),
    "write": (72.0, 71.0, 70.0, 69.0, 68.0, 67.0),
    "read_cached": (84.0, 83.0, 82.5, 82.0, 81.5, 81.0),
}


def paper_spec(providers: int, n_clients: int = 1, **overrides) -> DeploymentSpec:
    """The paper's testbed shape: N data + N metadata providers, no client
    cache, and BambooDHT's per-node metadata dispersal
    (``meta_subtree_bytes=0``) — the figures reproduce the paper, not this
    repository's subtree-local routing, which Ablation B sweeps."""
    fields = dict(
        n_data=providers, n_meta=providers, n_clients=n_clients,
        cache_capacity=0, meta_subtree_bytes=0,
    )
    fields.update(overrides)
    return DeploymentSpec(**fields)


@dataclass
class Series:
    label: str
    x: list
    y: list


@dataclass
class FigureData:
    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)
    paper: list[Series] = field(default_factory=list)
    notes: str = ""
    #: engine-load counters summed over every deployment the figure ran
    #: (events processed, wire RPCs, ... — see SimDeployment.counters())
    counters: dict = field(default_factory=dict)

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    def absorb_counters(self, dep) -> None:
        """Accumulate a finished deployment's engine counters."""
        totals = self.counters
        for key, value in dep.counters().items():
            totals[key] = totals.get(key, 0) + value


def render_series_table(fig: FigureData, x_format=str, y_format=None) -> str:
    """Plain-text rendering of a figure: measured next to paper curves."""
    y_format = y_format or (lambda v: f"{v:.4f}")
    lines = [f"{fig.figure_id}: {fig.title}", f"  x = {fig.xlabel}; y = {fig.ylabel}"]
    all_series = [(s, "measured") for s in fig.series] + [
        (s, "paper") for s in fig.paper
    ]
    for s, origin in all_series:
        lines.append(f"  [{origin}] {s.label}")
        xs = "  ".join(f"{x_format(x):>10}" for x in s.x)
        ys = "  ".join(f"{y_format(y):>10}" for y in s.y)
        lines.append(f"    x: {xs}")
        lines.append(f"    y: {ys}")
    if fig.notes:
        lines.append(f"  note: {fig.notes}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 3(a): metadata overhead, single client, READs
# ---------------------------------------------------------------------------


def fig3a_metadata_read(
    sizes: tuple[int, ...] = PAPER_SEGMENT_SIZES,
    provider_counts: tuple[int, ...] = PAPER_PROVIDER_COUNTS,
    cluster: ClusterSpec | None = None,
) -> FigureData:
    """Time for metadata to be completely read, vs segment size.

    Workload (paper §V.C): 1 TB blob, 64 KB pages, a single client, N
    nodes each hosting one data and one metadata provider; the client
    writes then reads segments of growing size; we plot the tree-descent
    phase of the READ.
    """
    fig = FigureData(
        figure_id="Fig 3(a)",
        title="Metadata overhead, single client: reads",
        xlabel="segment size",
        ylabel="time (s)",
        notes="metadata phase of READ = version_resolved .. metadata_read",
    )
    for n in provider_counts:
        dep = SimDeployment(paper_spec(n), cluster=cluster)
        blob = dep.alloc_blob(PAPER_TOTAL_SIZE, PAPER_PAGESIZE)
        client = dep.client(0, cached=False)
        ys = []
        for i, size in enumerate(sizes):
            offset = i * GB  # independent regions of the 1 TB blob
            client.write_virtual(blob, offset, size)
            trace: dict[str, float] = {}
            client.run(client.read_virtual_proto(blob, offset, size, trace=trace))
            ys.append(trace["metadata_read"] - trace["version_resolved"])
        fig.series.append(Series(f"{n} providers", list(sizes), ys))
        fig.absorb_counters(dep)
    for n, ys in PAPER_FIG3A.items():
        if n in provider_counts:
            fig.paper.append(Series(f"{n} providers", list(PAPER_SEGMENT_SIZES), list(ys)))
    return fig


# ---------------------------------------------------------------------------
# Figure 3(b): metadata overhead, single client, WRITEs
# ---------------------------------------------------------------------------


def fig3b_metadata_write(
    sizes: tuple[int, ...] = PAPER_SEGMENT_SIZES,
    provider_counts: tuple[int, ...] = PAPER_PROVIDER_COUNTS,
    cluster: ClusterSpec | None = None,
) -> FigureData:
    """Time for metadata to be completely written, vs segment size.

    The measured phase is version assignment → all tree nodes stored
    (includes building the woven subtree client-side). More metadata
    providers *reduce* this cost: the aggregated node puts spread over
    more nodes working in parallel (paper §V.C).
    """
    fig = FigureData(
        figure_id="Fig 3(b)",
        title="Metadata overhead, single client: writes",
        xlabel="segment size",
        ylabel="time (s)",
        notes="metadata phase of WRITE = version_assigned .. metadata_stored",
    )
    for n in provider_counts:
        dep = SimDeployment(paper_spec(n), cluster=cluster)
        blob = dep.alloc_blob(PAPER_TOTAL_SIZE, PAPER_PAGESIZE)
        client = dep.client(0, cached=False)
        ys = []
        for i, size in enumerate(sizes):
            offset = i * GB
            trace: dict[str, float] = {}
            client.run(client.write_virtual_proto(blob, offset, size, trace=trace))
            ys.append(trace["metadata_stored"] - trace["version_assigned"])
        fig.series.append(Series(f"{n} providers", list(sizes), ys))
        fig.absorb_counters(dep)
    for n, ys in PAPER_FIG3B.items():
        if n in provider_counts:
            fig.paper.append(Series(f"{n} providers", list(PAPER_SEGMENT_SIZES), list(ys)))
    return fig


# ---------------------------------------------------------------------------
# Figure 3(c): throughput of concurrent clients
# ---------------------------------------------------------------------------


def fig3c_throughput(
    client_counts: tuple[int, ...] = PAPER_FIG3C_CLIENTS,
    iterations: int = 25,
    segment: int = 8 * MB,
    window: int = 1 * GB,
    providers: int = 20,
    cluster: ClusterSpec | None = None,
    kinds: tuple[str, ...] = ("read", "write", "read_cached"),
) -> FigureData:
    """Average per-client bandwidth vs number of concurrent clients.

    Workload (paper §V.D): 1 TB blob, 64 KB pages, 20 provider nodes;
    every client runs an unsynchronized loop over disjoint segments within
    a 1 GB window. Three series: uncached reads (the paper's worst case:
    "client-level caching has been totally disabled"), writes, and reads
    with the client-side metadata cache.

    ``iterations`` defaults below the paper's 100 to keep host runtime
    sane; bandwidth is a per-op mean, so the estimate is unbiased.
    """
    fig = FigureData(
        figure_id="Fig 3(c)",
        title="Throughput of concurrent client access",
        xlabel="concurrent clients",
        ylabel="avg bandwidth per client (MB/s)",
        notes=f"{human_size(segment)} segments in a {human_size(window)} window, "
        f"{iterations}-iteration loop",
    )
    labels = {
        "read": "Read",
        "write": "Write",
        "read_cached": "Read (cached metadata)",
    }
    # Setup reuse (host-time only): READs never mutate blob state and every
    # lane drains to idle between series, so both read kinds at a given
    # client count share one populated deployment — the measured durations
    # are identical to fresh-deployment runs (FIFO lanes are time-shift
    # invariant), but the dominant populate cost is paid once, not twice.
    read_kinds = [k for k in kinds if k != "write"]
    ys_by_kind: dict[str, list] = {k: [] for k in kinds}
    for n in client_counts:
        picker = SegmentPicker(window=window, segment=segment)
        if "write" in kinds:
            dep = SimDeployment(paper_spec(providers, n), cluster=cluster)
            blob = dep.alloc_blob(PAPER_TOTAL_SIZE, PAPER_PAGESIZE)
            bandwidths = run_concurrent_clients(
                dep, blob, n, iterations, picker, kind="write"
            )
            ys_by_kind["write"].append(sum(bandwidths) / len(bandwidths))
            fig.absorb_counters(dep)
        if read_kinds:
            dep = SimDeployment(paper_spec(providers, n), cluster=cluster)
            blob = dep.alloc_blob(PAPER_TOTAL_SIZE, PAPER_PAGESIZE)
            setup = dep.client(0, cached=False, name="populator")
            populate_window(setup, blob, window, segment)
            for kind in read_kinds:
                bandwidths = run_concurrent_clients(
                    dep, blob, n, iterations, picker,
                    kind="read", cached=(kind == "read_cached"),
                )
                ys_by_kind[kind].append(sum(bandwidths) / len(bandwidths))
            fig.absorb_counters(dep)
    for kind in kinds:
        fig.series.append(Series(labels[kind], list(client_counts), ys_by_kind[kind]))
    for kind in kinds:
        fig.paper.append(
            Series(
                labels[kind], list(PAPER_FIG3C_CLIENTS), list(PAPER_FIG3C[kind])
            )
        )
    return fig


def tail_latency_quantiles(
    client_counts: tuple[int, ...] = (1, 8, 20),
    iterations: int = 8,
    segment: int = 8 << 20,
    window: int = 1 * GB,
    providers: int = 20,
    cluster: ClusterSpec | None = None,
) -> FigureData:
    """Per-operation latency quantiles vs concurrent clients (tail view).

    The Fig 3(c) workload, but instead of collapsing each client's loop to
    a bandwidth *mean*, every operation's simulated duration feeds a
    :class:`~repro.obs.hist.LatencyHistogram` — the same log-bucketed
    accumulator the live telemetry path records into — and the figure
    plots p50/p95/p99 per access kind. The paper's headline ("per client
    bandwidth hardly decreases") is a statement about means; this is the
    companion claim the lock-free design implies but the paper never
    plots: the *tail* doesn't degenerate under concurrency either.

    Simulated durations are deterministic, so the series are bit-stable
    and ``repro.bench.compare`` gates them at rtol 1e-9.
    """
    from repro.obs.hist import LatencyHistogram

    fig = FigureData(
        figure_id="Tail latency",
        title="Per-operation latency quantiles under concurrent access",
        xlabel="concurrent clients",
        ylabel="operation latency (ms)",
        notes=f"{human_size(segment)} segments in a {human_size(window)} window, "
        f"{iterations}-iteration loop; quantiles via the telemetry "
        f"histogram (log buckets, <=1/16 relative error)",
    )
    quantiles = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
    ys: dict[tuple[str, str], list[float]] = {
        (kind, qname): []
        for kind in ("Read", "Write")
        for qname, _ in quantiles
    }
    for n in client_counts:
        picker = SegmentPicker(window=window, segment=segment)
        for kind in ("read", "write"):
            dep = SimDeployment(paper_spec(providers, n), cluster=cluster)
            blob = dep.alloc_blob(PAPER_TOTAL_SIZE, PAPER_PAGESIZE)
            if kind == "read":
                populate_window(dep.client(0, name="populator"), blob,
                                window, segment)
            durations = run_concurrent_client_durations(
                dep, blob, n, iterations, picker, kind=kind
            )
            hist = LatencyHistogram()
            for per_client in durations:
                for seconds in per_client:
                    hist.record(int(seconds * 1e9))
            for qname, p in quantiles:
                ys[(kind.capitalize(), qname)].append(hist.quantile(p) / 1e6)
            fig.absorb_counters(dep)
    for (kind, qname), series in ys.items():
        fig.series.append(Series(f"{kind} {qname}", list(client_counts), series))
    return fig


# ---------------------------------------------------------------------------
# Ablation A: lock-free versioning vs global reader-writer lock
# ---------------------------------------------------------------------------


def ablation_lockfree(
    client_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    iterations: int = 15,
    segment: int = 8 * MB,
    providers: int = 20,
) -> FigureData:
    """Per-client WRITE bandwidth: this system vs a global RW lock."""
    fig = FigureData(
        figure_id="Ablation A",
        title="Lock-free versioning vs global RW lock (writes)",
        xlabel="concurrent writers",
        ylabel="avg bandwidth per client (MB/s)",
        notes="same striping and cluster model; only concurrency control differs",
    )
    lockfree, locked = [], []
    for n in client_counts:
        dep = SimDeployment(paper_spec(providers, n))
        blob = dep.alloc_blob(PAPER_TOTAL_SIZE, PAPER_PAGESIZE)
        picker = SegmentPicker(segment=segment)
        bw = run_concurrent_clients(dep, blob, n, iterations, picker, kind="write")
        lockfree.append(sum(bw) / len(bw))
        fig.absorb_counters(dep)

        base = LockedClusterSim(
            DeploymentSpec(n_data=providers, n_meta=1, n_clients=n)
        )
        bw2 = base.run_clients(n, iterations, segment, "write")
        locked.append(sum(bw2) / len(bw2))
        fig.absorb_counters(base)
    fig.series.append(Series("lock-free (this system)", list(client_counts), lockfree))
    fig.series.append(Series("global RW lock", list(client_counts), locked))
    return fig


# ---------------------------------------------------------------------------
# Ablation B: DHT-distributed vs centralized metadata
# ---------------------------------------------------------------------------


def ablation_metadata(
    client_counts: tuple[int, ...] = (1, 4, 8, 16),
    iterations: int = 15,
    segment: int = 8 * MB,
    providers: int = 20,
) -> FigureData:
    """Uncached READ bandwidth: 20 metadata providers vs a single one —
    and, between those two poles, the subtree-local routing sweep.

    With ``0 < S = meta_subtree_bytes < blob`` a READ is three round trips
    (the vm names the region root) and a WRITE one ``meta.put_nodes`` per
    region owner; each doubling of ``S`` concentrates one more level of
    every region on that region's owner. Three workloads per ``S`` show
    both effects: segment readers over the 1 GB window (the paper's),
    one-page readers over it (fine-grain access: hops dominate), and
    writers confined to one 64 MB region (the worst case for
    concentration); the ``max/mean`` series report the per-provider skew
    of node lookups / puts.
    """
    fig = FigureData(
        figure_id="Ablation B",
        title="Distributed vs centralized metadata (uncached reads)",
        xlabel="concurrent readers",
        ylabel="avg bandwidth per client (MB/s)",
        notes="centralized = all tree nodes on one metadata provider; "
        "S = subtree-local routing cut (0 = the paper's per-node dispersal, "
        "the 'distributed' series); skew series: x = S, y = max/mean over "
        "the 20 metadata providers",
    )
    counts = list(client_counts)
    cuts = (0, 1 * MB, 64 * MB, PAPER_TOTAL_SIZE)
    cut_labels = [human_size(cut) if cut else "0" for cut in cuts]
    picker = SegmentPicker(segment=segment)
    page_picker = SegmentPicker(segment=PAPER_PAGESIZE)
    region_picker = SegmentPicker(window=64 * MB, segment=1 * MB)

    def deployment(n_meta: int, cut: int, populate: bool) -> tuple[SimDeployment, str]:
        dep = SimDeployment(
            paper_spec(
                providers, max(client_counts), n_meta=n_meta, colocate=False,
                meta_subtree_bytes=cut,
            )
        )
        blob = dep.alloc_blob(PAPER_TOTAL_SIZE, PAPER_PAGESIZE)
        if populate:
            setup = dep.client(0, cached=False, name="populator")
            populate_window(setup, blob, picker.window, segment)
        return dep, blob

    def sweep(label, dep, blob, picker, kind, iters) -> Series:
        ys = []
        for n in client_counts:
            bw = run_concurrent_clients(dep, blob, n, iters, picker, kind=kind)
            ys.append(sum(bw) / len(bw))
        return Series(label, counts, ys)

    def skew(per_provider: list[int]) -> float:
        return max(per_provider) * len(per_provider) / sum(per_provider)

    # Setup reuse (host-time only): the populated blob is read-only under
    # the reader workloads and lanes idle out between points, so one
    # deployment per metadata layout serves every client count — per-point
    # durations match fresh-deployment runs exactly, while the dominant
    # populate phase runs once per layout instead of once per point.
    segment_reads, page_reads, region_writes = [], [], []
    gets_skew, puts_skew = [], []
    for cut, cut_label in zip(cuts, cut_labels):
        dep, blob = deployment(providers, cut, populate=True)
        label = f"subtree-local S={cut_label}" if cut else "distributed (20 providers)"
        segment_reads.append(sweep(label, dep, blob, picker, "read", iterations))
        page_reads.append(sweep(
            f"one-page reads, S={cut_label}", dep, blob, page_picker, "read",
            4 * iterations,
        ))
        gets_skew.append(skew([m.gets for m in dep.meta.values()]))
        fig.absorb_counters(dep)

        dep, blob = deployment(providers, cut, populate=False)
        region_writes.append(sweep(
            f"writers in one 64 MB region, S={cut_label}", dep, blob,
            region_picker, "write", iterations,
        ))
        puts_skew.append(skew([m.puts for m in dep.meta.values()]))
        fig.absorb_counters(dep)
    dep, blob = deployment(1, 0, populate=True)
    centralized = sweep("centralized (1 provider)", dep, blob, picker, "read", iterations)
    fig.absorb_counters(dep)
    fig.series += [segment_reads[0], centralized, *segment_reads[1:]]
    fig.series += page_reads + region_writes
    fig.series.append(Series("lookups max/mean by S (readers)", cut_labels, gets_skew))
    fig.series.append(
        Series("puts max/mean by S (one-region writers)", cut_labels, puts_skew)
    )
    return fig


# ---------------------------------------------------------------------------
# Ablation C: RPC aggregation on/off
# ---------------------------------------------------------------------------


def ablation_rpc_aggregation(
    sizes: tuple[int, ...] = PAPER_SEGMENT_SIZES,
    providers: int = 20,
) -> FigureData:
    """Metadata-write time with and without the aggregating RPC framework
    (the 'tradeoff between striping and streaming' of paper §V.A)."""
    fig = FigureData(
        figure_id="Ablation C",
        title="RPC aggregation on/off (metadata write phase)",
        xlabel="segment size",
        ylabel="time (s)",
        notes="aggregation streams all sub-calls per destination in one RPC",
    )
    for label, aggregate in (("aggregated RPCs", True), ("one RPC per node", False)):
        dep = SimDeployment(
            paper_spec(providers), cluster=ClusterSpec(aggregate=aggregate)
        )
        blob = dep.alloc_blob(PAPER_TOTAL_SIZE, PAPER_PAGESIZE)
        client = dep.client(0, cached=False)
        ys = []
        for i, size in enumerate(sizes):
            trace: dict[str, float] = {}
            client.run(client.write_virtual_proto(blob, i * GB, size, trace=trace))
            ys.append(trace["metadata_stored"] - trace["version_assigned"])
        fig.series.append(Series(label, list(sizes), ys))
        fig.absorb_counters(dep)
    return fig


# ---------------------------------------------------------------------------
# Ablation D: page-size sweep
# ---------------------------------------------------------------------------


def ablation_pagesize(
    pagesizes: tuple[int, ...] = (16 * KB, 64 * KB, 256 * KB, 1 * MB),
    segment: int = 8 * MB,
    providers: int = 20,
) -> FigureData:
    """End-to-end WRITE and READ time of one segment vs page size.

    Finer pages disperse better but multiply metadata; coarser pages do
    the opposite — the striping-grain tradeoff behind the paper's choice
    of 64 KB."""
    fig = FigureData(
        figure_id="Ablation D",
        title="Page-size sweep (8 MB segment, end-to-end)",
        xlabel="page size",
        ylabel="time (s)",
    )
    wys, rys = [], []
    for pagesize in pagesizes:
        dep = SimDeployment(paper_spec(providers))
        blob = dep.alloc_blob(PAPER_TOTAL_SIZE, pagesize)
        client = dep.client(0, cached=False)
        wtrace: dict[str, float] = {}
        client.run(client.write_virtual_proto(blob, 0, segment, trace=wtrace))
        wys.append(wtrace["done"] - wtrace["start"])
        rtrace: dict[str, float] = {}
        client.run(client.read_virtual_proto(blob, 0, segment, trace=rtrace))
        rys.append(rtrace["done"] - rtrace["start"])
        fig.absorb_counters(dep)
    fig.series.append(Series("WRITE", list(pagesizes), wys))
    fig.series.append(Series("READ (uncached)", list(pagesizes), rys))
    return fig
