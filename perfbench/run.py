"""``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``

One benchmark run. ``--trace 0`` runs three trials (a fresh process and
a fresh cluster each) and prints the five end-to-end metrics, each the
median over the trials of the trial's median over its rounds; ``--trace
1`` runs one traced trial and prints the per-layer ledger. The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit status is 0 only when every op verified. Everything above
the last line is for the reader: the workload's definition, the host
fingerprint and every metric by name with its unit.

Containment: the run pins itself to one CPU, becomes its own process
group and starts a reaper that kills the whole group when the run
overruns or dies; journals and temp files live under ``perfbench/.tmp``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT  # noqa: E402

TMP = ROOT / "perfbench" / ".tmp"

#: trials per untraced run; the run's value is the median over them
TRIALS = 3
#: fewest timed rounds a trial's median may rest on
MIN_ROUNDS = 14
#: the whole run is killed this many seconds after it started
HARD_LIMIT_S = 170.0
#: a trial stops starting rounds after this (the run then reports what
#: it measured and says so) — keeps a stalled host inside HARD_LIMIT_S
TRIAL_LIMIT_S = 45.0

END_TO_END = (
    ("setup_s", "s"),
    ("norm_ops_per_s", "1/s"),
    ("norm_read_p50_ms", "ms"),
    ("norm_write_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

_REAPER = """
import os, select, signal, sys
ready, _, _ = select.select([0], [], [], float(sys.argv[1]))
if not (ready and os.read(0, 1)):   # deadline passed, or the run died
    os.killpg(os.getpgrp(), signal.SIGKILL)
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="One calibrated real-cluster benchmark run.",
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="timed client work per run, at the defining box's speed; "
        "scales the number of rounds, never the work per round",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tier-1 smoke shape: one trial, two rounds, a 4 MiB window",
    )
    parser.add_argument(
        "--corrupt-shadow", action="store_true",
        help="negative control: verify the first READ against a wrong "
        "shadow tag (the run must report a failed op and exit non-zero)",
    )
    parser.add_argument("--trial-config", help=argparse.SUPPRESS)
    return parser


def rounds_per_trial(workload, seconds: float) -> int:
    """Timed rounds of one trial: ``seconds`` of nominal client work
    split over the trials, in whole rounds — but never fewer than
    ``MIN_ROUNDS``, below which a trial's median over rounds is too
    coarse (the 256-op aio rounds are long, so they hit this floor)."""
    round_ms = workload.nominal_ms_per_op * workload.ops_per_round
    return max(MIN_ROUNDS, round(seconds * 1e3 / TRIALS / round_ms))


def start_reaper() -> tuple[subprocess.Popen, int]:
    """Make the run its own process group and start the watchdog that
    kills the group at the hard limit — or as soon as this process dies,
    however it dies. Returns the reaper and the fd to write ``b"k"`` to
    on a clean end (the reaper then exits without killing anything)."""
    if os.getpgrp() != os.getpid():
        os.setpgid(0, 0)
    read_fd, write_fd = os.pipe()
    reaper = subprocess.Popen(
        [sys.executable, "-c", _REAPER, str(HARD_LIMIT_S)], stdin=read_fd
    )
    os.close(read_fd)
    return reaper, write_fd


def clear_stale_tmp() -> None:
    """Remove scratch directories left by runs that were killed."""
    if not TMP.is_dir():
        return
    for entry in TMP.iterdir():
        pid = entry.name.rpartition("-")[2]
        if pid.isdigit() and not Path(f"/proc/{pid}").exists():
            shutil.rmtree(entry, ignore_errors=True)


def run_trial_process(cfg: dict) -> dict:
    """One trial in a fresh interpreter; returns its result dict."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", cfg["workload"], "--trial-config", json.dumps(cfg)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"trial process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trial_main(raw_cfg: str) -> int:
    """Entry point of a trial process (``--trial-config``)."""
    from perfbench.harness import TrialConfig, run_trial

    cfg = json.loads(raw_cfg)
    cfg["deadline"] = time.monotonic() + cfg.pop("limit_s")
    print(json.dumps(run_trial(TrialConfig(**cfg))))
    return 0


def describe(workload, args, n_rounds: int, trials: int) -> None:
    w = workload
    clients = (
        f"{w.aio_clients} AsyncBlobClient coroutines on one aio loop"
        if w.aio_clients else "1 BlobClient on one thread"
    )
    print(f"perfbench: {w.name} seed={args.seed} trace={args.trace}")
    print(f"  why: {w.why}")
    print(
        f"  blob {w.blob_size >> 20} MiB / {w.pagesize >> 10} KiB pages, "
        f"{w.op_size >> 10} KiB ops, {w.reads_per_group}:{w.writes_per_group} "
        f"READ:WRITE, cache_capacity={w.cache_capacity}"
    )
    print(f"  closed loop, zero think time, {clients}; 4 storage agents")
    if w.durable:
        print("  vm/pm on their own agents, journaled (flush per record, "
              "fsync=never)")
    print(
        f"  {trials} trial(s) x {n_rounds} timed rounds x "
        f"{w.ops_per_round} ops (+1 discarded warm-up round each)"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trial_config:
        return trial_main(args.trial_config)

    try:
        from perfbench import harness, ledger
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: the repro source tree is not importable from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    allowed = harness.pin_one_cpu()
    reaper, done_fd = start_reaper()
    clear_stale_tmp()
    run_tmp = TMP / f"run-{os.getpid()}"
    steal0 = harness.cpu_times()

    trials = 1 if (args.trace or args.smoke) else TRIALS
    n_rounds = 2 if args.smoke else rounds_per_trial(workload, args.seconds)
    describe(workload, args, n_rounds, trials)
    results = []
    try:
        for k in range(trials):
            results.append(run_trial_process({
                "workload": workload.name,
                "seed": args.seed,
                "n_rounds": n_rounds,
                "tmp_dir": str(run_tmp / f"trial-{k}"),
                "limit_s": TRIAL_LIMIT_S,
                "smoke": args.smoke,
                "traced": bool(args.trace),
                "corrupt_shadow": args.corrupt_shadow,
            }))
    finally:
        shutil.rmtree(run_tmp, ignore_errors=True)

    med = statistics.median
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    calib_spread = max(r["calib_spread"] for r in results)
    steal = harness.steal_share(steal0, harness.cpu_times())
    fingerprint = harness.host_fingerprint(allowed)
    fingerprint.update(
        steal_share=round(steal, 4),
        calib_ms=[round(r["calib_ms"], 3) for r in results],
        calib_spread=round(calib_spread, 4),
        noisy_host=steal > 0.05 or calib_spread > 0.25,
        op_list_hash=results[0]["op_list_hash"],
        rounds_measured=[r["rounds"] for r in results],
        rounds_planned=n_rounds,
    )
    raw = {
        name: med(r[name] for r in results)
        for name in ("raw_ops_per_s", "raw_read_p50_ms", "raw_write_p50_ms",
                     "in_flight")
    }
    # one machine-readable line for perfbench.noise and for the reader
    per_trial = [{name: r[name] for name, _ in END_TO_END} for r in results]
    print("  detail: " + json.dumps(
        {"host": fingerprint, "raw": raw, "trials": per_trial}
    ))
    for r in results:
        for line in r["failures"]:
            print(f"  FAILED {line}")

    if args.trace:
        rows = results[0]["ledger"]
        metrics = {
            name: {"value": rows[name], "unit": unit}
            for name, unit, _ in ledger.LAYER_METRICS
        }
    else:
        metrics = {
            name: {"value": med(r[name] for r in results), "unit": unit}
            for name, unit in END_TO_END
        }
    for name in ("raw_ops_per_s", "raw_read_p50_ms", "raw_write_p50_ms"):
        print(f"  {name:<34} {raw[name]:>14.4f}  (host units)")
    # Little's law: mean ops in flight = throughput x mean latency
    print(f"  {'in_flight':<34} {raw['in_flight']:>14.4f}  "
          f"(of {max(1, workload.aio_clients)} clients)")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.4f}  {m['unit']}")
    os.write(done_fd, b"k")
    reaper.wait()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
