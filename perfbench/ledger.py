"""The per-layer ledger: where one op's time goes, measured from outside.

A traced invocation (``--trace 1``) runs one trial whose timed rounds
alternate *untraced* and *traced*. Everything is observed through public
surfaces, from the benchmark's side of each layer boundary:

- the benchmark's own timer around each client call (the op span);
- ``repro.obs.spans.trace_operation`` + ``critical_path_segments`` /
  serving spans scraped with ``deployment.metrics()``: client compute,
  wire windows by destination kind, serving-side service and queue time;
- public counters: ``transport_stats()``, ``workload_stats()``, the
  ``ReadResult`` / ``WriteResult`` fields, ``client.cache.hit_ratio``;
- the same op list on ``build_inproc`` (no transport: the compute floor);
- timed calls into each layer's public functions on inputs recorded from
  real protocol runs (:func:`isolated_layers`).

Durations are in reference units (see :mod:`perfbench.refkernel`), each
normalised by the calibration of the round (or micro-measurement) it came
from. ``LAYER_METRICS`` is the contract ``BENCHMARK.json`` repeats.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from perfbench.harness import RoundResult, Trial, TrialConfig
from perfbench.refkernel import time_kernel, to_ref
from perfbench.workloads import GIB, KIB, MIB, WRITE, Op, payload

from repro.core.client import BlobClient
from repro.core.config import DeploymentSpec
from repro.core.journal import Journal
from repro.deploy.inproc import build_inproc
from repro.deploy.simulated import SimDeployment
from repro.errors import ReproError
from repro.metadata.build import plan_write_tree
from repro.metadata.tree import TreeGeometry
from repro.net.codec import MESSAGE_HEADER_BYTES, decode_body, encode_message
from repro.net.sansio import Batch, plan_wire_groups
from repro.obs.export import critical_path_segments
from repro.obs.metrics import collect_spans
from repro.obs.spans import CALLER
from repro.providers.page import PagePayload, page_checksum
from repro.util.intervals import Interval

#: every per-layer metric: (name, unit, better). Printed by every traced
#: invocation of every workload; rows that do not apply read 0.
LAYER_METRICS = (
    # core: client-side protocol work, the compute floor, tails, journal
    ("core.client_compute_ms", "ms", "lower"),
    ("core.inproc_ms_per_op", "ms", "lower"),
    ("core.read_p99_ms", "ms", "lower"),
    ("core.write_p99_ms", "ms", "lower"),
    ("core.journal.append_us", "us", "lower"),
    ("core.journal.records_per_write", "count", "lower"),
    ("core.journal.bytes_per_write", "bytes", "lower"),
    # net: wire windows, queueing, transport, counts, codec, framing
    ("net.transport_share", "share", "lower"),
    ("net.wire_ms.data", "ms", "lower"),
    ("net.wire_ms.meta", "ms", "lower"),
    ("net.wire_ms.vm", "ms", "lower"),
    ("net.wire_ms.pm", "ms", "lower"),
    ("net.queue_ms", "ms", "lower"),
    ("net.transport_ms", "ms", "lower"),
    ("net.wire_rpcs_per_op", "count", "lower"),
    ("net.sub_calls_per_op", "count", "lower"),
    ("net.round_trips_per_op", "count", "lower"),
    ("net.completion_wakeups_per_op", "count", "lower"),
    ("net.codec.encode_1mib_us", "us", "lower"),
    ("net.codec.decode_1mib_us", "us", "lower"),
    ("net.codec.encode_small_us", "us", "lower"),
    ("net.codec.decode_small_us", "us", "lower"),
    ("net.sansio.plan_wire_groups_us", "us", "lower"),
    # metadata
    ("metadata.provider_service_ms", "ms", "lower"),
    ("metadata.nodes_read_per_read", "count", "lower"),
    ("metadata.nodes_written_per_write", "count", "lower"),
    ("metadata.cache_hit_ratio", "share", "higher"),
    ("metadata.build.plan_write_tree_us", "us", "lower"),
    # providers
    ("providers.data_service_ms", "ms", "lower"),
    ("providers.pages_per_op", "count", "lower"),
    ("providers.pm_service_ms", "ms", "lower"),
    ("providers.page.checksum_mb_per_s", "MB/s", "higher"),
    # version
    ("version.vm_service_ms", "ms", "lower"),
    ("version.calls_per_write", "count", "lower"),
    # sim / obs / deploy
    ("sim.engine.events_per_s", "1/s", "higher"),
    ("obs.trace_overhead_share", "share", "lower"),
    ("deploy.launch_s", "s", "lower"),
    ("deploy.populate_s", "s", "lower"),
    # bookkeeping
    ("ledger.unattributed_share", "share", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("host.calib_spread", "share", "lower"),
    ("host.raw_ops_per_s", "1/s", "higher"),
    ("host.load1", "count", "lower"),
)

KINDS = ("data", "meta", "vm", "pm")


# ---------------------------------------------------------------------------
# traced rounds on the real cluster
# ---------------------------------------------------------------------------


def _wire_counters(trial: Trial) -> dict[str, int]:
    """Workload-only wire counters right now (scrapes are uncounted
    controls, so reading them never perturbs the next reading)."""
    transport = trial.dep.transport_stats()
    served = trial.dep.workload_stats().values()
    return {
        "wire_rpcs": sum(r for r, _ in served),
        "sub_calls": sum(c for _, c in served),
        "batches": transport["batches"],
        "wakeups": transport["completion_wakeups"],
    }


def _journals(trial: Trial) -> list[Journal]:
    """The durable workload's control-plane journals (vm, pm)."""
    return [
        Journal(wal.parent)
        for wal in sorted(trial.state_dir.glob("**/wal.log"))
    ]


def _journal_state(trial: Trial) -> list[tuple[int, int, int]]:
    """``(frames, last seqno, bytes)`` of each control-plane journal."""
    out = []
    for journal in _journals(trial):
        seqnos = [seqno for seqno, _ in journal.iter_frames()]
        size = (journal.directory / "wal.log").stat().st_size
        out.append((len(seqnos), seqnos[-1] if seqnos else 0, size))
    return out


class ClusterLedger:
    """Accumulates what the real cluster's timed rounds show: reference-ms
    totals over every traced op, wire counters over every round, journal
    growth over every round of the durable workload."""

    def __init__(self) -> None:
        self.ops = 0
        self.writes = 0
        self.bench_ms = 0.0
        self.client_ms = 0.0
        self.wire_ms = dict.fromkeys(KINDS, 0.0)
        self.service_ms = dict.fromkeys(KINDS, 0.0)
        self.queue_ms = 0.0
        self.vm_write_ms = 0.0
        self.vm_write_calls = 0
        self.wire = dict.fromkeys(
            ("wire_rpcs", "sub_calls", "batches", "wakeups"), 0
        )
        self.counted_ops = 0
        self.journal_records = 0
        self.journal_bytes = 0
        self.journal_writes = 0

    def add_counters(self, ops: list[Op], before: dict, after: dict) -> None:
        for key in self.wire:
            self.wire[key] += after[key] - before[key]
        self.counted_ops += len(ops)

    def add_journal_growth(self, ops: list[Op], before, after) -> None:
        records = nbytes = 0
        for (f0, s0, b0), (f1, s1, b1) in zip(before, after):
            if f1 - f0 != s1 - s0 or b1 < b0:
                return  # a compaction fell inside the round: skip it whole
            records += s1 - s0
            nbytes += b1 - b0
        self.journal_records += records
        self.journal_bytes += nbytes
        self.journal_writes += sum(op.kind == WRITE for op in ops)

    def add_traced_ops(self, trial: Trial, rnd: RoundResult, spans: list) -> None:
        by_trace: dict[int, list] = defaultdict(list)
        for span in spans:
            by_trace[span["trace"]].append(span)
        for op, tid, bench_ms in trial.traced_ops:
            mine = by_trace.get(tid, [])
            self.ops += 1
            self.writes += op.kind == WRITE
            self.bench_ms += rnd.ref(bench_ms)
            for label, ns in critical_path_segments(mine, tid):
                ms = rnd.ref(ns / 1e6)
                if label == "client":
                    self.client_ms += ms
                    continue
                # "wire:data/0+data/3": one batch's window, shared evenly
                # by the destination kinds it addressed (in practice one)
                kinds = sorted(
                    {d.split("/")[0] for d in label[len("wire:"):].split("+")}
                )
                for kind in kinds:
                    self.wire_ms[kind] += ms / len(kinds)
            # One batch = the rpc spans sharing one submit..complete
            # window. Everything runs on one CPU, so a batch's services
            # are serial (all on the path) and the RPC that waited longest
            # for its service thread bounds the batch's queueing.
            batch_of = {
                s["span"]: (s["start_ns"], s["end_ns"])
                for s in mine if s["kind"] == "rpc"
            }
            queue_ns: dict[tuple, dict[int, int]] = defaultdict(dict)
            for span in mine:
                if span["kind"] != "server":
                    continue
                kind = span["name"].split(".")[0]
                ms = rnd.ref((span["end_ns"] - span["start_ns"]) / 1e6)
                if kind in self.service_ms:
                    self.service_ms[kind] += ms
                if kind == "vm" and op.kind == WRITE:
                    self.vm_write_ms += ms
                    self.vm_write_calls += 1
                # every sub-call of one wire RPC reports that RPC's wait
                rpc = span["parent"]
                queue_ns[batch_of.get(rpc)][rpc] = span["queue_ns"]
            self.queue_ms += rnd.ref(
                sum(max(waits.values()) for waits in queue_ns.values()) / 1e6
            )

    def rows(self, rounds: list[RoundResult], trial: Trial) -> dict:
        """The ledger rows that come from the real cluster's rounds."""
        ops = max(1, self.ops)
        writes = max(1, self.writes)
        counted = max(1, self.counted_ops)
        journaled = max(1, self.journal_writes)
        oc = trial.op_counters
        plain = [r for r in rounds if not r.traced] or rounds
        traced = [r for r in rounds if r.traced] or rounds
        ms_per_op = statistics.median(
            r.ref(r.busy_ms) / r.n_ops for r in plain
        )
        traced_ms_per_op = statistics.median(
            r.ref(r.busy_ms) / r.n_ops for r in traced
        )
        wire = sum(self.wire_ms.values())
        service = sum(self.service_ms.values())
        records = [
            rec for j in _journals(trial) for _, rec in j.iter_frames()
        ] if trial.workload.durable else []
        rows = {
            "core.client_compute_ms": self.client_ms / ops,
            "core.read_p99_ms": _p99(plain, "read_ms"),
            "core.write_p99_ms": _p99(plain, "write_ms"),
            "core.journal.append_us": _journal_append_us(
                records, Path(trial.cfg.tmp_dir)
            ) if records else 0.0,
            "core.journal.records_per_write": self.journal_records / journaled,
            "core.journal.bytes_per_write": self.journal_bytes / journaled,
            "net.queue_ms": self.queue_ms / ops,
            "net.transport_ms": (wire - service - self.queue_ms) / ops,
            "net.wire_rpcs_per_op": self.wire["wire_rpcs"] / counted,
            "net.sub_calls_per_op": self.wire["sub_calls"] / counted,
            "net.round_trips_per_op": self.wire["batches"] / counted,
            "net.completion_wakeups_per_op": self.wire["wakeups"] / counted,
            "metadata.provider_service_ms": self.service_ms["meta"] / ops,
            "metadata.nodes_read_per_read":
                oc["nodes_fetched"] / max(1, oc["reads"]),
            "metadata.nodes_written_per_write":
                oc["nodes_written"] / max(1, oc["writes"]),
            "metadata.cache_hit_ratio": oc["cache_hits"]
                / max(1, oc["cache_hits"] + oc["nodes_fetched"]),
            "providers.data_service_ms": self.service_ms["data"] / ops,
            "providers.pages_per_op":
                (oc["pages_fetched"] + oc["pages_written"])
                / max(1, oc["reads"] + oc["writes"]),
            "providers.pm_service_ms": self.service_ms["pm"] / ops,
            "version.vm_service_ms": self.vm_write_ms / writes,
            "version.calls_per_write": self.vm_write_calls / writes,
            "obs.trace_overhead_share": traced_ms_per_op / ms_per_op - 1,
            "ledger.unattributed_share":
                1 - (self.client_ms + wire) / self.bench_ms
                if self.bench_ms else 0.0,
            "host.raw_ops_per_s": statistics.median(
                r.n_ops / (r.busy_ms / 1e3) for r in plain
            ),
            "tcp_ms_per_op": ms_per_op,  # feeds net.transport_share
        }
        for kind in KINDS:
            rows[f"net.wire_ms.{kind}"] = self.wire_ms[kind] / ops
        return rows


def traced_rounds(trial: Trial) -> tuple[list[RoundResult], dict]:
    """Run the trial's timed rounds, tracing every second one; returns the
    rounds and the cluster-side ledger rows (:meth:`ClusterLedger.rows`)."""
    w = trial.workload
    book = ClusterLedger()
    rounds: list[RoundResult] = []
    for i, ops in enumerate(trial.plan.rounds[1:]):
        if time.monotonic() > trial.cfg.deadline:
            break
        traced = i % 2 == 1
        wire_before = _wire_counters(trial)
        journal_before = _journal_state(trial) if w.durable else []
        if traced:
            CALLER.clear()
        rnd = trial.run_round(ops, traced=traced)
        rounds.append(rnd)
        book.add_counters(ops, wire_before, _wire_counters(trial))
        if w.durable:
            book.add_journal_growth(ops, journal_before, _journal_state(trial))
        if traced:
            wanted = {tid for _, tid, _ in trial.traced_ops}
            book.add_traced_ops(trial, rnd, [
                s for s in collect_spans(trial.dep.metrics()) + CALLER.snapshot()
                if s["trace"] in wanted
            ])
        if w.gc_between_rounds:
            trial.collect_garbage()
    return rounds, book.rows(rounds, trial)


def _p99(rounds: list[RoundResult], attr: str) -> float:
    pooled = sorted(r.ref(ms) for r in rounds for ms in getattr(r, attr))
    return pooled[min(len(pooled) - 1, int(len(pooled) * 0.99))]


# ---------------------------------------------------------------------------
# isolated layer measurements
# ---------------------------------------------------------------------------


def timed_us(fn, min_ms: float = 25.0, min_calls: int = 5) -> float:
    """Median reference-µs of one ``fn()`` call, calibrated by the kernel
    runs on either side of the measurement."""
    before = time_kernel()
    samples = []
    spent = 0.0
    while spent < min_ms * 1e6 or len(samples) < min_calls:
        t0 = perf_counter_ns()
        fn()
        dt = perf_counter_ns() - t0
        samples.append(dt)
        spent += dt
    calib = (before + time_kernel()) / 2
    return to_ref(statistics.median(samples) / 1e3, calib)


def _journal_append_us(records: list, scratch: Path) -> float:
    """Reference-µs per ``Journal.append`` of the records the workload's
    own vm/pm journaled (policy: flush per record, fsync never)."""
    journal = Journal(scratch / "append-probe", fsync="never",
                      snapshot_every=None)
    journal.open()
    try:
        per_pass = timed_us(
            lambda: [journal.append(rec) for rec in records], min_ms=15.0
        )
    finally:
        journal.close()
    return per_pass / len(records)


class RecordingDriver:
    """Wraps a driver and keeps every ``(Batch, results)`` exchange of the
    protocols run through it — protocols are sans-io generators, so a
    pass-through generator sees exactly what the driver executes."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.exchanges: list[tuple[Batch, list]] = []

    def run(self, proto):
        return self.inner.run(self._tee(proto))

    def _tee(self, proto):
        try:
            op = next(proto)
            while True:
                try:
                    result = yield op
                except ReproError as exc:
                    op = proto.throw(exc)
                    continue
                if isinstance(op, Batch):
                    self.exchanges.append((op, result))
                op = proto.send(result)
        except StopIteration as stop:
            return stop.value


def _record_op_pair(pagesize: int, op_size: int):
    """One WRITE then one READ of ``op_size`` at a fixed offset of a
    populated 1 GiB blob on the in-process deployment; returns the
    recorded exchanges of each."""
    dep = build_inproc(DeploymentSpec(n_data=4, n_meta=4, cache_capacity=0))
    recorder = RecordingDriver(dep.driver)
    client = BlobClient(recorder, dep.router, name="ledger", cache_capacity=0)
    blob = client.alloc(GIB, pagesize)
    client.write(blob, payload(Op(WRITE, 0, 2 * MIB, 1), pagesize), 0)
    at = MIB - op_size  # inside the populated 2 MiB
    recorder.exchanges.clear()
    client.write(blob, payload(Op(WRITE, at, op_size, 2), pagesize), at)
    write = list(recorder.exchanges)
    recorder.exchanges.clear()
    client.read(blob, at, op_size)
    read = list(recorder.exchanges)
    return blob, write, read


def _request_envelopes(exchanges) -> list[tuple]:
    """The ``("rpc", [(method, args), ...])`` envelope of every wire RPC."""
    return [
        ("rpc", [(call.method, call.args) for call in group.calls])
        for batch, _ in exchanges
        for group in plan_wire_groups(batch.calls)
    ]


def _reply_bodies(exchanges) -> list[bytes]:
    """The encoded result list of every wire RPC, as the peer sends it
    (message header stripped: what ``decode_body`` receives)."""
    return [
        encode_message(1, [results[i] for i in group.indices])[
            MESSAGE_HEADER_BYTES:
        ]
        for batch, results in exchanges
        for group in plan_wire_groups(batch.calls)
    ]


def isolated_layers(quick: bool = False) -> dict:
    """Timed calls into each layer's public functions, on inputs recorded
    from real protocol runs. Workload-independent by construction: the
    same rows whatever workload the traced invocation ran."""
    min_ms = 5.0 if quick else 25.0
    rows = {}

    # the bulk path: a 1 MiB op on 64 KiB pages
    _, write, read = _record_op_pair(64 * KIB, MIB)
    puts = [
        env for env in _request_envelopes(write)
        if env[1][0][0] == "data.put_page"
    ]
    rows["net.codec.encode_1mib_us"] = timed_us(
        lambda: [encode_message(1, env) for env in puts], min_ms
    )
    pages = [
        body for body, env in zip(_reply_bodies(read), _request_envelopes(read))
        if env[1][0][0] == "data.get_page"
    ]
    rows["net.codec.decode_1mib_us"] = timed_us(
        lambda: [decode_body(body) for body in pages], min_ms
    )

    # the small path: a 16 KiB op on 4 KiB pages (depth-18 tree, no cache)
    blob, write, read = _record_op_pair(4 * KIB, 16 * KIB)
    requests = _request_envelopes(read)
    replies = _reply_bodies(read)
    rows["net.codec.encode_small_us"] = timed_us(
        lambda: [encode_message(1, env) for env in requests], min_ms
    ) / len(requests)
    rows["net.codec.decode_small_us"] = timed_us(
        lambda: [decode_body(body) for body in replies], min_ms
    ) / len(replies)
    batches = [batch for batch, _ in write + read]
    rows["net.sansio.plan_wire_groups_us"] = timed_us(
        lambda: [plan_wire_groups(batch.calls) for batch in batches], min_ms
    ) / 2  # per op: the pair is one WRITE + one READ

    # metadata build: the tree of that 16 KiB WRITE, from its own inputs
    by_method = {
        batch.calls[0].method: (batch, results) for batch, results in write
    }
    groups = by_method["pm.get_providers"][1][0]
    ticket = by_method["vm.assign"][1][0]
    put = by_method["data.put_page"][0].calls[0]
    geom = TreeGeometry(GIB, 4 * KIB)
    patch = Interval(put.args[0].index * 4 * KIB, 16 * KIB)
    refs = ticket.refs_as_dict()
    rows["metadata.build.plan_write_tree_us"] = timed_us(
        lambda: plan_write_tree(
            geom, blob, ticket.version, patch, refs, groups,
            put.args[0].write_uid,
        ),
        min_ms,
    )

    # providers: the integrity checksum over one 64 KiB page
    page = PagePayload.real(payload(Op(WRITE, 0, 64 * KIB, 3), 64 * KIB))
    us = timed_us(lambda: page_checksum(page), min_ms)
    rows["providers.page.checksum_mb_per_s"] = (64 * KIB / 1e6) / (us / 1e6)

    # sim: one fixed simulated series on the discrete-event engine
    def sim_series() -> int:
        dep = SimDeployment(
            DeploymentSpec(n_data=4, n_meta=4, n_clients=1, cache_capacity=0)
        )
        blob_id = dep.alloc_blob(GIB, 64 * KIB)
        client = dep.client(0, cached=False)
        for i in range(8):
            client.write_virtual(blob_id, i * MIB, MIB)
        for i in range(8):
            client.read_virtual(blob_id, i * MIB, MIB)
        return dep.counters()["events_processed"]

    events = sim_series()
    us = timed_us(sim_series, min_ms)
    rows["sim.engine.events_per_s"] = events / (us / 1e6)
    return rows


# ---------------------------------------------------------------------------
# the compute floor
# ---------------------------------------------------------------------------


def inproc_floor(cfg: TrialConfig, max_rounds: int = 12) -> float:
    """Reference-ms per op of the same op list on ``build_inproc``: the
    protocols and actors with no transport at all."""
    trial = Trial(cfg)
    trial.launch(inproc=True)
    trial.populate()
    trial.run_round(trial.plan.rounds[0])
    rounds = [
        trial.run_round(ops) for ops in trial.plan.rounds[1:1 + max_rounds]
    ]
    if trial.failed:
        raise RuntimeError(
            f"in-process floor failed {trial.failed} ops: {trial.failures}"
        )
    return statistics.median(r.ref(r.busy_ms) / r.n_ops for r in rounds)


def layer_rows(cluster_rows: dict, trial_out: dict, cfg: TrialConfig) -> dict:
    """Every ``LAYER_METRICS`` row of one traced trial: the cluster's
    rows plus the floor, the isolated timings and the trial's own facts."""
    rows = dict(cluster_rows)
    tcp = rows.pop("tcp_ms_per_op")
    floor = inproc_floor(cfg)
    rows["core.inproc_ms_per_op"] = floor
    rows["net.transport_share"] = 1 - floor / tcp
    rows.update(isolated_layers(quick=cfg.smoke))
    rows["deploy.launch_s"] = trial_out["launch_s"]
    rows["deploy.populate_s"] = trial_out["populate_s"]
    rows["host.calib_ms"] = trial_out["calib_ms"]
    rows["host.calib_spread"] = trial_out["calib_spread"]
    rows["host.load1"] = trial_out["load1"]
    return rows
