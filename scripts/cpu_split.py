"""``python scripts/cpu_split.py [--workload W] [--seed N] [--rounds N] [--smoke]``

Where one perfbench trial's CPU goes: it builds the trial exactly as
``perfbench/run.py`` does (one CPU, the same cluster, populate and warm-up
round), then prints CPU µs per timed op for each thread of this process
(``MainThread``, ``aio-driver``, ``recv-*``, and ``actor-vm`` /
``actor-pm`` on aio, ...) and for each agent process, from the
nanosecond run time the scheduler keeps per thread (the first field of
``/proc/<pid>/task/<tid>/schedstat``), read before and after the timed
rounds. Beside it, ``slices_per_op`` is how many times per timed op the
row's threads were put on a CPU (the third field): many short slices per
op is a thread woken per request. ``minflt_per_op`` is the minor page
faults the row's threads took per timed op (field 10 of
``/proc/<pid>/task/<tid>/stat``): fresh memory touched per op.

The timed rounds run through the trial's own op runners, without the
calibration kernel ``run_round`` brackets each round with, so
``MainThread`` is client work only; set-up runs the kernel once and the
warm-up round as ``perfbench/harness.py::run_trial`` does, so the timed
rounds start from the benchmark's allocator state. perfbench is only
imported, never edited.

The ``gc`` rows are this process's cyclic collections during the timed
rounds (thread CPU from each collection's ``gc.callbacks`` start to its
stop), in all and by generation with the runs and objects collected. That CPU is
already inside the row of the thread that collected; the ``gc`` rows say
how much of it the collector took.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.harness import Trial, TrialConfig, pin_one_cpu  # noqa: E402
from perfbench.refkernel import time_kernel  # noqa: E402

def task_cpu(pid: int) -> dict[int, tuple[int, int, int]]:
    """``(CPU ns on the clock, time slices run, minor faults)`` of every
    thread of ``pid``."""
    cpu = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                ns, _wait_ns, slices = fh.read().split()[:3]
            with open(f"/proc/{pid}/task/{tid}/stat") as fh:
                stat = fh.read()
        except FileNotFoundError:  # the thread exited since the listing
            continue
        # field 10; the name (field 2) may hold spaces, so count the
        # fields after its closing parenthesis, which start at field 3
        minflt = stat[stat.rindex(")") + 2:].split()[10 - 3]
        cpu[int(tid)] = (int(ns), int(slices), int(minflt))
    return cpu


def snapshot(trial: Trial) -> dict[str, tuple[int, int, int]]:
    """``(CPU ns, slices, minor faults)`` per row: this process's threads
    by name, agents by actors."""
    names = {t.native_id: t.name for t in threading.enumerate()}
    rows: dict[str, tuple[int, int, int]] = {}
    for tid, counts in task_cpu(os.getpid()).items():
        name = names.get(tid, f"tid-{tid}")
        rows[name] = tuple(
            a + b for a, b in zip(rows.get(name, (0, 0, 0)), counts)
        )
    for agent in trial.dep.agents:
        label = "agent " + "+".join(agent.actor_names)
        threads = task_cpu(agent.proc.pid).values()
        rows[label] = tuple(sum(column) for column in zip(*threads))
    return rows


def run_ops(trial: Trial, ops: list) -> None:
    """One round's ops through the trial's op runners (the aio round or
    one blocking op at a time), with no calibration kernel around them."""
    if trial.aio:
        trial._aio_round(ops, traced=False)
    else:
        for op in ops:
            trial._run_op(op)


class GcLedger:
    """A ``gc.callbacks`` hook: runs, thread CPU ns and objects collected
    of this process's cyclic collections by generation, while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.runs = [0, 0, 0]
        self.cpu_ns = [0, 0, 0]
        self.collected = [0, 0, 0]
        self._start_ns = 0

    def __call__(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._start_ns = time.thread_time_ns()
        else:  # a collection holds the GIL from its start to its stop
            gen = info["generation"]
            self.runs[gen] += 1
            self.cpu_ns[gen] += time.thread_time_ns() - self._start_ns
            self.collected[gen] += info["collected"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="many_clients_aio")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--smoke", action="store_true", help="2 small rounds")
    args = parser.parse_args(argv)
    pin_one_cpu()
    n_rounds = 2 if args.smoke else args.rounds
    collections = GcLedger()
    gc.callbacks.append(collections)
    with tempfile.TemporaryDirectory(prefix="cpu-split-") as tmp:
        trial = Trial(TrialConfig(args.workload, args.seed, n_rounds, tmp,
                                  time.monotonic() + 600, smoke=args.smoke))
        try:
            trial.launch()
            trial.populate()
            # as perfbench's run_trial: one kernel run, then the warm-up
            # round, both uncounted. Its 4 MiB buffers raise the
            # allocator's mmap threshold, so the timed rounds reuse heap
            # memory as the benchmark's do instead of faulting in fresh
            # pages for every 1 MiB buffer (~480 minor faults per op)
            time_kernel()
            trial.run_round(trial.plan.rounds[0])
            before, ops0 = snapshot(trial), trial.attempted
            collections.active = True
            for ops in trial.plan.rounds[1:]:
                run_ops(trial, ops)
            collections.active = False
            after, n_ops = snapshot(trial), trial.attempted - ops0
        finally:
            gc.callbacks.remove(collections)
            trial.close()
    per_op = max(n_ops, 1)
    print(f"{args.workload} seed={args.seed}: {n_ops} timed ops, "
          f"{trial.failed} failed; thread CPU and slices from schedstat; "
          "no calibration kernel in the timed rounds; the gc rows are "
          "inside the thread rows")
    print(f"{'process / thread':<40} {'cpu_us_per_op':>14} "
          f"{'slices_per_op':>14} {'minflt_per_op':>14}")
    spent = {
        name: [a - b for a, b in zip(after[name], before.get(name, (0, 0, 0)))]
        for name in after
    }
    for name in sorted(spent, key=lambda k: spent[k][0], reverse=True):
        ns, slices, minflt = spent[name]
        print(f"{name:<40} {ns / 1e3 / per_op:>14.1f} {slices / per_op:>14.2f} "
              f"{minflt / per_op:>14.2f}")
    gc_us = sum(collections.cpu_ns) / 1e3 / per_op
    print(f"{'gc':<40} {gc_us:>14.1f} {'-':>14} {'-':>14}")
    for gen, (runs, ns, found) in enumerate(zip(
        collections.runs, collections.cpu_ns, collections.collected
    )):
        label = f"gc gen{gen} ({runs} runs, {found} collected)"
        print(f"{label:<40} {ns / 1e3 / per_op:>14.1f} {'-':>14} {'-':>14}")
    return 1 if trial.failed else 0


if __name__ == "__main__":
    sys.exit(main())
