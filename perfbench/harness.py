"""One trial: launch a real cluster, populate, run calibrated rounds, verify.

A *trial* is a fresh process with a fresh loopback TCP cluster built by
the public builders. It runs the workload's fixed op list as one
discarded warm-up round plus N timed rounds; every timed round is
bracketed by two timings of the frozen reference kernel
(:mod:`perfbench.refkernel`) and reported in reference units. Every byte
read is compared with the shadow model; a wrong byte, a typed error or
an OS error is a failed op.

Timing rules (README.md, "Measurement discipline"):

- only the client call itself is inside an op's timer — payload
  construction, verification, calibration, GC and scraping are not;
- a single-client round's busy time is the sum of its op timers (closed
  loop, zero think time); an aio round's is the wall time of the gather;
- per-round values are normalised by that round's own calibration, and a
  trial reports the median over its rounds.
"""

from __future__ import annotations

import asyncio
import os
import platform
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

from perfbench.refkernel import time_kernel, to_ref
from perfbench.workloads import (
    READ, WORKLOADS, WRITE, Op, Plan, Shadow, Workload, make_plan, page_bytes,
    payload,
)

from repro.core.config import DeploymentSpec
from repro.core.protocol import LATEST
from repro.deploy.inproc import build_inproc
from repro.deploy.tcp import build_tcp
from repro.errors import ReproError
from repro.net.aio import trace_async_operation
from repro.obs.spans import trace_operation

#: the benchmark's topology: 4 storage agents, data/i + meta/i colocated
N_STORAGE = 4

#: what a failed client op can raise (anything else is a harness bug and
#: must crash the trial, not be counted)
OP_ERRORS = (ReproError, OSError, TimeoutError)

#: trace names of the two op kinds
OP_NAMES = {READ: "read", WRITE: "write"}


# ---------------------------------------------------------------------------
# host
# ---------------------------------------------------------------------------


def pin_one_cpu() -> list[int]:
    """Pin this process (and everything it later spawns) to the first
    allowed CPU; returns the CPUs that *were* allowed."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return allowed


def cpu_times() -> tuple[int, int]:
    """``(steal, total)`` jiffies from the aggregate ``/proc/stat`` line."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def host_fingerprint(allowed: list[int]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "allowed_cpus": allowed,
        "pinned_cpu": allowed[0],
        "python": platform.python_version(),
        "load1": os.getloadavg()[0],
    }


def peak_rss_mib(pids: list[int]) -> float:
    """Sum of ``VmHWM`` over live processes, MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024


def spread(values: list[float]) -> float:
    """(p90 - p10) / median: how far a series swings around its middle."""
    if len(values) < 3:
        return 0.0
    deciles = statistics.quantiles(values, n=10)
    return (deciles[8] - deciles[0]) / statistics.median(values)


# ---------------------------------------------------------------------------
# trial
# ---------------------------------------------------------------------------


@dataclass
class TrialConfig:
    workload: str
    seed: int
    n_rounds: int
    #: scratch directory for this trial's journals (under perfbench/.tmp)
    tmp_dir: str
    #: time.monotonic() after which the trial stops starting new rounds
    deadline: float
    smoke: bool = False
    #: per-layer ledger: alternate untraced / traced rounds and scrape
    traced: bool = False
    #: negative control: the first verified READ is checked against a
    #: deliberately wrong shadow tag and must be counted as failed
    corrupt_shadow: bool = False


@dataclass
class RoundResult:
    """One timed round, raw (host units) plus its calibration."""

    traced: bool
    calib_ms: float
    busy_ms: float
    n_ops: int
    read_ms: list[float]
    write_ms: list[float]

    def ref(self, raw: float) -> float:
        return to_ref(raw, self.calib_ms)

    @property
    def norm_ops_per_s(self) -> float:
        return self.n_ops / (self.ref(self.busy_ms) / 1e3)


class Trial:
    """Cluster + client state of one running trial."""

    def __init__(self, cfg: TrialConfig) -> None:
        self.cfg = cfg
        self.workload: Workload = WORKLOADS[cfg.workload]
        self.plan: Plan = make_plan(
            self.workload, cfg.seed, cfg.n_rounds, smoke=cfg.smoke
        )
        self.shadow = Shadow(self.workload.pagesize)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._corrupt_pending = cfg.corrupt_shadow
        #: (op, trace id) of every traced op of the current round
        self.traced_ops: list[tuple[Op, int, float]] = []
        #: summed ReadResult / WriteResult fields (reset after set-up)
        self.op_counters = dict.fromkeys(
            ("reads", "writes", "nodes_fetched", "cache_hits",
             "pages_fetched", "nodes_written", "pages_written"), 0
        )
        self.dep = None
        self.blob = ""
        self.snapshot_version = 0

    # -- set-up -----------------------------------------------------------

    def launch(self, inproc: bool = False) -> None:
        """Build the cluster. ``inproc`` swaps the real TCP cluster for
        the single-threaded in-process deployment — same actors, same
        protocols, no transport: the ledger's compute floor (its aio
        clients' ops then simply run one after another)."""
        w = self.workload
        spec = DeploymentSpec(
            n_data=N_STORAGE, n_meta=N_STORAGE, cache_capacity=w.cache_capacity
        )
        self.aio = []
        if inproc:
            self.dep = build_inproc(spec)
        elif w.durable:
            self.dep = build_tcp(
                spec, control_plane="agents", state_dir=self.state_dir
            )
        else:
            self.dep = build_tcp(
                spec, client="aio" if w.aio_clients else "threaded"
            )
            # the aio rounds run one coroutine client per page owner
            self.aio = [
                self.dep.async_client(f"perfbench-{c}")
                for c in range(w.aio_clients)
            ]
        # populate and the single-client rounds use one blocking client
        self.client = self.dep.client("perfbench")

    @property
    def state_dir(self) -> Path:
        """Where the durable workload's vm and pm keep their journals
        (``Journal`` default policy: flushed per record, fsync never)."""
        return Path(self.cfg.tmp_dir) / "state"

    def populate(self) -> None:
        w = self.workload
        self.blob = self.client.alloc(w.blob_size, w.pagesize)
        for op in self.plan.populate:
            self._run_op(op)
        self.shadow.freeze()
        self.snapshot_version = self.client.latest(self.blob)
        if w.read_snapshot:
            # fill the client's metadata cache: one READ of every MiB of
            # the snapshot the timed READs will address
            for off in range(0, self.plan.window, w.op_size):
                self._run_op(Op(READ, off, w.op_size, 0))

    # -- ops (single client) ----------------------------------------------

    def _fail(self, op: Op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(f"{op.kind}@{op.offset}+{op.size}: {why}")

    def _verify(self, op: Op, got: bytes | None) -> None:
        want = self.shadow.expected(op, self.workload.read_snapshot)
        if self._corrupt_pending:
            self._corrupt_pending = False
            pagesize = self.workload.pagesize
            wrong = page_bytes(op.offset // pagesize, 0xBAD, pagesize)
            want = wrong + want[pagesize:]
        if got != want:
            self._fail(op, "bytes differ from the shadow model")

    def _record(self, op: Op, res) -> None:
        """Book one completed op: shadow, verification, result counters."""
        oc = self.op_counters
        if op.kind == WRITE:
            self.shadow.apply(op)
            oc["writes"] += 1
            oc["nodes_written"] += res.nodes_written
            oc["pages_written"] += res.pages_written
        else:
            self._verify(op, res.data)
            oc["reads"] += 1
            oc["nodes_fetched"] += res.nodes_fetched
            oc["cache_hits"] += res.cache_hits
            oc["pages_fetched"] += res.pages_fetched

    def _call(self, op: Op, data: bytes | None):
        if op.kind == WRITE:
            return self.client.write(self.blob, data, op.offset)
        version = (
            self.snapshot_version if self.workload.read_snapshot else LATEST
        )
        return self.client.read(self.blob, op.offset, op.size, version=version)

    def _run_op(self, op: Op, traced: bool = False) -> float:
        """One blocking client op; returns its client-visible ms."""
        data = payload(op, self.workload.pagesize) if op.kind == WRITE else None
        self.attempted += 1
        tid = 0
        t0 = perf_counter_ns()
        try:
            if traced:
                with trace_operation(OP_NAMES[op.kind]) as tid:
                    res = self._call(op, data)
            else:
                res = self._call(op, data)
        except OP_ERRORS as exc:
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return (perf_counter_ns() - t0) / 1e6
        ms = (perf_counter_ns() - t0) / 1e6
        self._record(op, res)
        if traced:
            self.traced_ops.append((op, tid, ms))
        return ms

    # -- rounds -----------------------------------------------------------

    def run_round(self, ops: list[Op], traced: bool = False) -> RoundResult:
        """Run one round between two kernel timings."""
        self.traced_ops = []
        before = time_kernel()
        if self.aio:
            busy_ms, read_ms, write_ms = self._aio_round(ops, traced)
        else:
            read_ms, write_ms = [], []
            for op in ops:
                (write_ms if op.kind == WRITE else read_ms).append(
                    self._run_op(op, traced)
                )
            busy_ms = sum(read_ms) + sum(write_ms)
        after = time_kernel()
        return RoundResult(
            traced, (before + after) / 2, busy_ms, len(ops), read_ms, write_ms
        )

    def _aio_round(self, ops: list[Op], traced: bool):
        """All clients run their ops concurrently on the driver's loop;
        READ results are verified after the timed window closes."""
        w = self.workload
        per_client: dict[int, list[tuple[Op, bytes | None]]] = {}
        for op in ops:
            data = payload(op, w.pagesize) if op.kind == WRITE else None
            per_client.setdefault(op.client, []).append((op, data))
        done: list[tuple[Op, float, object, int]] = []

        async def one_op(client, op: Op, data):
            if op.kind == WRITE:
                return await client.write(self.blob, data, op.offset)
            return await client.read(self.blob, op.offset, op.size)

        async def one_client(c: int, items) -> None:
            client = self.aio[c]
            for op, data in items:
                tid = 0
                t0 = perf_counter_ns()
                try:
                    if traced:
                        async with trace_async_operation(
                            OP_NAMES[op.kind]
                        ) as tid:
                            res = await one_op(client, op, data)
                    else:
                        res = await one_op(client, op, data)
                except OP_ERRORS as exc:
                    res = exc
                done.append((op, (perf_counter_ns() - t0) / 1e6, res, tid))

        async def everyone() -> float:
            t0 = perf_counter_ns()
            await asyncio.gather(
                *(one_client(c, items) for c, items in per_client.items())
            )
            return (perf_counter_ns() - t0) / 1e6

        busy_ms = self.dep.driver.run_async(everyone())
        read_ms, write_ms = [], []
        for op, ms, res, tid in done:
            self.attempted += 1
            if isinstance(res, Exception):
                self._fail(op, f"{type(res).__name__}: {res}")
                continue
            # a client reads only its own page, after its own write, so
            # completion order never matters to the shadow
            self._record(op, res)
            (write_ms if op.kind == WRITE else read_ms).append(ms)
            if traced:
                self.traced_ops.append((op, tid, ms))
        return busy_ms, read_ms, write_ms

    def collect_garbage(self) -> None:
        """Client-ordered GC down to the latest version (untimed)."""
        dep = self.dep
        latest = self.client.latest(self.blob)
        self.client.gc(self.blob, [latest], dep.data_ids, dep.meta_ids)

    def pids(self) -> list[int]:
        return [os.getpid()] + [a.proc.pid for a in self.dep.agents]

    def close(self) -> None:
        if self.dep is not None and hasattr(self.dep, "close"):
            self.dep.close()
        self.dep = None


def summarize_rounds(rounds: list[RoundResult]) -> dict:
    """A trial's values: the median over its rounds of each per-round,
    per-round-calibrated metric (plus the raw twins for the ledger)."""
    med = statistics.median
    calibs = [r.calib_ms for r in rounds]
    return {
        "norm_ops_per_s": med(r.norm_ops_per_s for r in rounds),
        "norm_read_p50_ms": med(r.ref(med(r.read_ms)) for r in rounds),
        "norm_write_p50_ms": med(r.ref(med(r.write_ms)) for r in rounds),
        "raw_ops_per_s": med(r.n_ops / (r.busy_ms / 1e3) for r in rounds),
        "raw_read_p50_ms": med(med(r.read_ms) for r in rounds),
        "raw_write_p50_ms": med(med(r.write_ms) for r in rounds),
        # Little's law: mean ops in flight = throughput x mean latency
        "in_flight": med(
            (sum(r.read_ms) + sum(r.write_ms)) / r.busy_ms for r in rounds
        ),
        "calib_ms": med(calibs),
        "calib_spread": spread(calibs),
    }


def run_trial(cfg: TrialConfig) -> dict:
    """Run one trial in this process; returns its JSON-safe result."""
    trial = Trial(cfg)
    tmp = Path(cfg.tmp_dir)
    tmp.mkdir(parents=True, exist_ok=True)
    ledger_rows = None
    try:
        t0 = time.perf_counter()
        trial.launch()
        t1 = time.perf_counter()
        trial.populate()
        time_kernel()  # first kernel run pays its own cold caches
        trial.run_round(trial.plan.rounds[0])  # discarded warm-up round
        setup_s = time.perf_counter() - t0
        trial.op_counters = dict.fromkeys(trial.op_counters, 0)
        if cfg.traced:
            from perfbench import ledger

            rounds, ledger_rows = ledger.traced_rounds(trial)
        else:
            rounds = []
            for ops in trial.plan.rounds[1:]:
                if time.monotonic() > cfg.deadline:
                    break
                rounds.append(trial.run_round(ops))
                if trial.workload.gc_between_rounds:
                    trial.collect_garbage()
        rss = peak_rss_mib(trial.pids())
    finally:
        trial.close()
        shutil.rmtree(tmp, ignore_errors=True)
    out = summarize_rounds([r for r in rounds if not r.traced] or rounds)
    out.update(
        rounds=len(rounds),
        setup_s=setup_s,
        launch_s=t1 - t0,
        populate_s=setup_s - (t1 - t0),
        peak_rss_mb=rss,
        attempted=trial.attempted,
        failed=trial.failed,
        failures=trial.failures,
        op_list_hash=trial.plan.op_list_hash,
        load1=os.getloadavg()[0],
    )
    if ledger_rows is not None:
        out["ledger"] = ledger.layer_rows(ledger_rows, out, cfg)
    return out
