"""``python -m perfbench.noise --sets 2 --runs N`` — the A/A check.

Runs the *same code* as ``--sets`` interleaved sets of ``--runs`` runs per
workload (run 1 of every set, then run 2 of every set, ...; a fresh seed
for every run) and prints, per workload x end-to-end metric:

- each set's median and its IQR/median (Python's
  ``statistics.quantiles(values, n=4)``, as the acceptance driver uses);
- the largest disagreement between two sets' medians, as a share of the
  smaller one, next to the metric's bound from ``BENCHMARK.json``;
- the IQR/median over all runs pooled — and, for the three time-derived
  metrics, the same figure for the *raw* (host-unit) twin beside it, so
  the table shows what the reference kernel buys.

Exits non-zero when any disagreement exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from itertools import combinations

from perfbench import ROOT

#: calibrated metric -> its raw twin on the run's ``detail:`` line
RAW_TWIN = {
    "norm_ops_per_s": "raw_ops_per_s",
    "norm_read_p50_ms": "raw_read_p50_ms",
    "norm_write_p50_ms": "raw_write_p50_ms",
}


def iqr_share(values: list[float]) -> float:
    """(Q3 - Q1) / median, the driver's spread."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_output(stdout: str) -> tuple[dict, dict]:
    """``(final JSON line, detail line)`` of one ``run.py`` output."""
    lines = stdout.strip().splitlines()
    detail = next(
        json.loads(line.split("detail: ", 1)[1])
        for line in lines if line.lstrip().startswith("detail: ")
    )
    return json.loads(lines[-1]), detail


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark once; returns its metrics plus the raw twins."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited with {proc.returncode}"
        )
    result, detail = parse_output(proc.stdout)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values.update(detail["raw"])
    values["noisy_host"] = detail["host"]["noisy_host"]
    return values


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m perfbench.noise")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seed", type=int, default=1000,
                        help="first seed; every run takes the next one")
    args = parser.parse_args(argv)

    seed = args.seed
    # runs[workload][set] = list of per-run value dicts
    runs = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for i in range(args.runs):
        for s in range(args.sets):
            for w in args.workloads:
                runs[w][s].append(one_run(w, seed, args.seconds))
                print(f"# run {i + 1}/{args.runs} set {s} {w} seed {seed} "
                      f"noisy_host={runs[w][s][-1]['noisy_host']}",
                      file=sys.stderr, flush=True)
                seed += 1

    print(f"A/A noise: {args.sets} interleaved sets x {args.runs} runs, "
          f"--seconds {args.seconds:g}")
    print(f"{'workload':<18} {'metric':<18} "
          + " ".join(f"{'median' + str(s):>10} {'iqr' + str(s):>6}"
                     for s in range(args.sets))
          + f" {'disagree':>8} {'bound':>6} {'iqr_all':>7} {'raw_iqr':>7}")
    exceeded = []
    for w in args.workloads:
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r[name] for r in rs] for rs in runs[w]]
            medians = [statistics.median(vs) for vs in per_set]
            disagree = max(
                (abs(a - b) / min(a, b) for a, b in combinations(medians, 2)),
                default=0.0,
            )
            pooled = [v for vs in per_set for v in vs]
            twin = RAW_TWIN.get(name)
            raw = (
                f"{iqr_share([r[twin] for rs in runs[w] for r in rs]):7.3f}"
                if twin else f"{'':>7}"
            )
            print(f"{w:<18} {name:<18} "
                  + " ".join(f"{m:>10.3f} {iqr_share(vs):>6.3f}"
                             for m, vs in zip(medians, per_set))
                  + f" {disagree:>8.3f} {bound:>6.2f} "
                  f"{iqr_share(pooled):>7.3f} {raw}")
            if disagree > bound:
                exceeded.append(f"{w}.{name}: {disagree:.3f} > {bound}")
    for line in exceeded:
        print(f"EXCEEDED {line}")
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
