"""``python scripts/cpu_split.py [--workload W] [--seed N] [--rounds N] [--smoke]``

Where one perfbench trial's CPU goes: it builds the trial exactly as
``perfbench/run.py`` does (one CPU, the same cluster, populate and warm-up
round), then prints CPU µs per timed op for each thread of this process
(``MainThread``, ``aio-driver``, ``actor-vm``, ``actor-pm``, ``recv-*``, ...)
and for each agent process, from the nanosecond run time the scheduler
keeps per thread (the first field of ``/proc/<pid>/task/<tid>/schedstat``),
read before and after the timed rounds.

``MainThread`` also runs the calibration kernel that brackets every round,
so its row is not all client work. perfbench is only imported, never
edited.

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

def task_cpu_ns(pid: int) -> dict[int, int]:
    """CPU time on the clock, in ns, of every thread of ``pid``."""
    cpu_ns = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                cpu_ns[int(tid)] = int(fh.read().split()[0])
        except FileNotFoundError:  # the thread exited since the listing
            continue
    return cpu_ns


def snapshot(trial: Trial) -> dict[str, int]:
    """CPU ns per row: this process's threads by name, agents by actors."""
    names = {t.native_id: t.name for t in threading.enumerate()}
    rows: dict[str, int] = {}
    for tid, ns in task_cpu_ns(os.getpid()).items():
        name = names.get(tid, f"tid-{tid}")
        rows[name] = rows.get(name, 0) + ns
    for agent in trial.dep.agents:
        label = "agent " + "+".join(agent.actor_names)
        rows[label] = sum(task_cpu_ns(agent.proc.pid).values())
    return rows


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
            trial.run_round(trial.plan.rounds[0])  # warm-up, not counted
            before, ops0 = snapshot(trial), trial.attempted
            collections.active = True
            for ops in trial.plan.rounds[1:]:
                trial.run_round(ops)
            collections.active = False
            after, n_ops = snapshot(trial), trial.attempted - ops0
        finally:
            gc.callbacks.remove(collections)
            trial.close()
    per_op = max(n_ops, 1)
    print(f"{args.workload} seed={args.seed}: {n_ops} timed ops, "
          f"{trial.failed} failed; thread CPU from schedstat (ns); "
          "MainThread includes the calibration kernel; the gc rows are "
          "inside the thread rows")
    print(f"{'process / thread':<40} {'cpu_us_per_op':>14}")
    for name in sorted(after, key=lambda k: after[k] - before.get(k, 0), reverse=True):
        us = (after[name] - before.get(name, 0)) / 1e3 / per_op
        print(f"{name:<40} {us:>14.1f}")
    print(f"{'gc':<40} {sum(collections.cpu_ns) / 1e3 / per_op:>14.1f}")
    for gen, (runs, ns, found) in enumerate(zip(
        collections.runs, collections.cpu_ns, collections.collected
    )):
        label = f"gc gen{gen} ({runs} runs, {found} collected)"
        print(f"{label:<40} {ns / 1e3 / per_op:>14.1f}")
    return 1 if trial.failed else 0


if __name__ == "__main__":
    sys.exit(main())
