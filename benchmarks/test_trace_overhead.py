"""Span tracing overhead: off means *free*, on means *bounded*.

Tracing is only worth having default-available if (a) an untraced
workload pays nothing — the wire envelope stays the historical 2-tuple
and no span buffer is touched — and (b) a traced operation pays a
bounded, small cost for its timeline. Two pins:

- **Simulated: tracing is invisible to the model.** The identical
  workload — WRITEs, and READs of what they wrote — with and without a
  trace open finishes at the identical simulated instant after the
  identical number of events — span recording schedules no events and
  perturbs no modeled timing, so every published figure in this suite
  (the phase figures run every measured op traced) is unaffected by
  whether anyone was watching. The published series are bit-stable
  (``repro.bench.compare`` gates them at rtol 1e-9).
- **Threaded: bounded wall overhead.** Per-op wall time with a trace
  open stays within a generous factor of the untraced baseline on a real
  threaded deployment (buffers, ids and client-gap spans are the only
  extra work — all O(batches), none of it on the serving path).
"""

import statistics
import time

from repro.bench.figures import FigureData, Series, render_series_table
from repro.core.config import DeploymentSpec
from repro.deploy.simulated import SimDeployment
from repro.deploy.threaded import build_threaded
from repro.obs.spans import CALLER, trace_operation
from repro.util.sizes import KB, MB, TB

PAGE = 64 * KB
OPS = 20
#: traced-over-untraced per-op wall bound (generous: absolute cost is a
#: few µs of buffer appends per op against ~ms of real RPC wall time)
OVERHEAD_FACTOR = 5.0


def _sim_op_ms(traced: bool, kind: str, ops: int = 8) -> tuple[list[float], float, int]:
    """Per-op simulated ms of ``ops`` WRITEs (``kind="write"``) or of READs
    of what as many untraced WRITEs stored, then the final simulated
    instant and the events processed."""
    dep = SimDeployment(
        DeploymentSpec(n_data=4, n_meta=4, n_clients=1, cache_capacity=0)
    )
    client = dep.client()
    blob = client.alloc(1 * TB, PAGE)
    if kind == "read":
        for i in range(ops):
            client.write_virtual(blob, i * 8 * PAGE, 8 * PAGE)
    op = client.write_virtual if kind == "write" else client.read_virtual
    durations = []
    for i in range(ops):
        t0 = dep.sim.now
        if traced:
            with dep.traced(f"{kind}-{i}"):
                op(blob, i * 8 * PAGE, 8 * PAGE)
        else:
            op(blob, i * 8 * PAGE, 8 * PAGE)
        durations.append((dep.sim.now - t0) * 1e3)
    if traced:
        assert dep.spans(), "traced sim runs must record a timeline"
    else:
        assert dep.spans() == []
    return durations, dep.sim.now, dep.sim.events_processed


def test_sim_tracing_is_invisible_to_the_model(publish, publish_json):
    t0 = time.perf_counter()
    untraced, *untraced_end = _sim_op_ms(traced=False, kind="write")
    traced, *traced_end = _sim_op_ms(traced=True, kind="write")
    # the whole point: bit-identical modeled time, span-for-span work
    assert traced == untraced and traced_end == untraced_end
    assert _sim_op_ms(traced=True, kind="read") == _sim_op_ms(
        traced=False, kind="read"
    )
    wall = time.perf_counter() - t0
    fig = FigureData(
        figure_id="trace-overhead-sim",
        title="Simulated write duration, tracing off vs on",
        xlabel="op index",
        ylabel="sim ms",
        series=[
            Series("untraced", list(range(len(untraced))), untraced),
            Series("traced", list(range(len(traced))), traced),
        ],
        notes="series must be bit-identical: span recording schedules no "
        "simulator events",
    )
    publish(
        "trace_overhead", render_series_table(fig, y_format=lambda v: f"{v:.6f}")
    )
    publish_json("trace_overhead", fig.figure_id, fig.series, wall)


def _threaded_op_s(dep, blob, client, traced: bool) -> list[float]:
    durations = []
    for i in range(OPS):
        offset = (i % 8) * 4 * PAGE
        t0 = time.perf_counter()
        if traced:
            with trace_operation(f"bench-write-{i}"):
                client.write_virtual(blob, offset, 4 * PAGE)
        else:
            client.write_virtual(blob, offset, 4 * PAGE)
        durations.append(time.perf_counter() - t0)
    return durations


def test_threaded_tracing_overhead_is_bounded():
    with build_threaded(DeploymentSpec(n_data=2, n_meta=2)) as dep:
        client = dep.client("overhead")
        blob = client.alloc(4 * MB, PAGE)
        _threaded_op_s(dep, blob, client, traced=False)  # warm-up
        CALLER.clear()
        untraced = _threaded_op_s(dep, blob, client, traced=False)
        assert CALLER.snapshot() == []  # off really is off
        traced = _threaded_op_s(dep, blob, client, traced=True)
        spans = CALLER.snapshot()
    assert spans, "traced ops must have produced caller spans"
    assert {s["kind"] for s in spans} == {"op", "client", "rpc"}
    base = statistics.median(untraced)
    cost = statistics.median(traced)
    assert cost < OVERHEAD_FACTOR * base + 1e-3, (
        f"median traced op {cost * 1e3:.3f} ms vs untraced "
        f"{base * 1e3:.3f} ms exceeds the {OVERHEAD_FACTOR}x bound"
    )
