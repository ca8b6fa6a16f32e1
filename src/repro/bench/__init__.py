"""Benchmark harness: regenerates every figure of the paper's evaluation.

The paper's evaluation (§V) is Figure 3, panels (a)-(c). Each panel has a
generator here returning structured series, a text renderer mirroring the
plot, and an embedded digest of the paper's own curves so benches can
assert the reproduced *shape* (orderings, monotonicity, crossovers) rather
than absolute numbers — the substrate is a calibrated simulator, not the
authors' 2008 testbed.

Ablation experiments (lock-free vs global lock, distributed vs centralized
metadata, RPC aggregation on/off, page-size sweep) quantify the design
choices the paper argues for, each against the alternative it rejects.
"""

from repro.bench.workloads import SegmentPicker, populate_window
from repro.bench.figures import (
    fig3a_metadata_read,
    fig3b_metadata_write,
    fig3c_throughput,
    ablation_lockfree,
    ablation_metadata,
    ablation_rpc_aggregation,
    ablation_pagesize,
    render_series_table,
)

__all__ = [
    "SegmentPicker",
    "populate_window",
    "fig3a_metadata_read",
    "fig3b_metadata_write",
    "fig3c_throughput",
    "ablation_lockfree",
    "ablation_metadata",
    "ablation_rpc_aggregation",
    "ablation_pagesize",
    "render_series_table",
]
