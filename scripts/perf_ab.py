"""``python scripts/perf_ab.py --base REV --workload W --seeds 1,7 --pairs N``

The A/B runner every performance PR needs: run ``perfbench/run.py`` in a
copy of the base revision and in this work tree, in alternating pairs
(odd pairs run the change first), one run at a time, and write every run
plus per-side medians, quartiles and the win count to a ``BENCH_<pr>.json``
(``--out``; an existing file is extended, so one file can hold several
workloads and the ``--trace 1`` ledgers; ``--pairs 0`` runs nothing).

It then prints a no-regression verdict, one line per workload, seed and
end-to-end metric of the untraced runs in the file, with the bounds read
from ``BENCHMARK.json``: *worse* (the change's median is worse than the
parent's by more than the bound, or a larger share of operations failed),
*unresolved* (the parent's own quartiles are further apart than the bound,
and not every change run beats every parent run) or *no worse* — and
exits 1 if anything is worse. Below the verdicts, a sign-test line per
workload, seed and end-to-end metric reports the pairs the change lost
and the one-sided sign-test p over the untied pairs ("change lost 5/5
pairs, p = 0.031"): a change can lose every pair and still read *no
worse* inside a wide bound. It is reported only, never a verdict.

``--claim METRIC`` also judges a gain on that metric, per ``--workload``
and seed, over the untraced pairs in the file: *gain* when the change wins
at least 9 pairs in 10 (ties count for neither) and its median beats the
parent's by more than the parent's interquartile range (as a share of its
median, ``perfbench.noise.iqr_share``), else *not met* — and the script
exits 2 on *not met* when nothing is worse.

The base is materialised with ``git archive REV`` under ``--workdir``
(default: the system temp directory), outside the repository, and the
change is a fresh copy, made once per invocation beside it, of the files
``git ls-files --cached --others --exclude-standard`` lists in this work
tree: both sides run from trees made the same way, uncommitted and new
files count, ignored ones do not, and edits made during the runs do not
leak into them. perfbench itself stays frozen and is used only through
its command line.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.noise import iqr_share  # noqa: E402

#: the share of pairs a claimed gain must win
CLAIM_WINS = 0.9


def pair_schedule(pairs: int) -> list[tuple[str, str]]:
    """The side order of each pair: even pairs parent first, odd pairs
    change first, so neither side always runs on the warmer host."""
    return [
        ("change", "parent") if k % 2 else ("parent", "change")
        for k in range(pairs)
    ]


def parse_run(stdout: str) -> dict:
    """One perfbench run's output as ``{correct, attempted, failed,
    metrics: {name: value}, host, raw}`` — the final JSON line, plus the
    host fingerprint and raw (uncalibrated) values of the ``detail:`` line."""
    lines = stdout.strip().splitlines()
    final = json.loads(lines[-1])
    run = {k: final[k] for k in ("correct", "attempted", "failed")}
    run["metrics"] = {name: m["value"] for name, m in final["metrics"].items()}
    for line in lines:
        if line.strip().startswith("detail: "):
            detail = json.loads(line.strip()[len("detail: "):])
            run["host"], run["raw"] = detail["host"], detail["raw"]
    return run


def summarize(runs: list[dict], better: dict[str, str]) -> list[dict]:
    """Per (workload, seed, trace): each metric's median and quartiles per
    side and the pairs the change won and lost (ties count for neither)."""
    cells: dict[tuple, dict[int, dict[str, dict]]] = {}
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"])
        cells.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    out = []
    for (workload, seed, trace), by_pair in sorted(cells.items()):
        pairs = [p for p in by_pair.values() if len(p) == 2]
        row = {"workload": workload, "seed": seed, "trace": trace,
               "pairs": len(pairs), "metrics": {}}
        for count in ("failed", "attempted"):
            row[count] = {side: sum(p[side][count] for p in pairs)
                          for side in ("parent", "change")}
        for name in pairs[0]["parent"]["metrics"] if pairs else ():
            sides = {side: [p[side]["metrics"][name] for p in pairs]
                     for side in ("parent", "change")}
            sign = -1 if better.get(name) == "lower" else 1
            pairwise = list(zip(sides["parent"], sides["change"]))
            cell = {"change_wins": sum(sign * c > sign * p for p, c in pairwise),
                    "change_losses": sum(sign * c < sign * p for p, c in pairwise)}
            for side, values in sides.items():
                q1, _, q3 = (statistics.quantiles(values, n=4)
                             if len(values) > 1 else values * 3)
                cell[side] = {"q1": q1, "median": statistics.median(values),
                              "q3": q3, "min": min(values), "max": max(values)}
            row["metrics"][name] = cell
        out.append(row)
    return out


def verdict(row: dict, bounds: dict[str, tuple[str, float]]) -> dict[str, str]:
    """The no-regression rule on one summary row: ``worse``,
    ``unresolved`` or ``no worse`` per end-to-end metric, plus the share of
    failed operations under ``failed``. ``bounds`` maps a metric to its
    ``(better, bound)`` — a relative bound, as in BENCHMARK.json."""
    out = {}
    for name, (better, bound) in bounds.items():
        cell = row["metrics"].get(name)
        if cell is None:
            continue
        parent, change = cell["parent"], cell["change"]
        sign = -1 if better == "lower" else 1
        base = abs(parent["median"]) or 1.0
        if sign * (parent["median"] - change["median"]) / base > bound:
            out[name] = "worse"
        elif (parent["q3"] - parent["q1"]) / base > bound and not (
            # every change run beats every parent run
            change["min"] > parent["max"] if sign > 0
            else change["max"] < parent["min"]
        ):
            out[name] = "unresolved"
        else:
            out[name] = "no worse"
    share = {side: row["failed"][side] / max(row["attempted"][side], 1)
             for side in ("parent", "change")}
    out["failed"] = "worse" if share["change"] > share["parent"] else "no worse"
    return out


def report(summary: list[dict], bounds: dict[str, tuple[str, float]]) -> bool:
    """Print the verdict of every untraced row; True if anything is worse."""
    worse = False
    for row in summary:
        if row["trace"]:
            continue  # end-to-end metrics are measured with tracing off
        for name, result in verdict(row, bounds).items():
            if name == "failed":
                f, a = row["failed"], row["attempted"]
                sides = f"{f['parent']}/{a['parent']} -> {f['change']}/{a['change']}"
            else:
                p, c = row["metrics"][name]["parent"], row["metrics"][name]["change"]
                sides = (f"parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                         f" -> change {c['median']:.4g}")
            print(f"{row['workload']} seed={row['seed']} {name}: {result} "
                  f"({sides}, {row['pairs']} pairs)")
            worse = worse or result == "worse"
    return worse


def sign_test_p(lost: int, untied: int) -> float:
    """One-sided sign-test p: the chance that a change no different from
    its parent loses at least ``lost`` of ``untied`` pairs."""
    return sum(math.comb(untied, k) for k in range(lost, untied + 1)) / 2**untied


def report_streaks(summary: list[dict], bounds: dict[str, tuple[str, float]]) -> None:
    """Print the sign-test line of every untraced row and end-to-end
    metric: the pairs the change lost, out of the untied ones, and how
    unlikely that many losses are by chance. Reported, never judged."""
    for row in summary:
        if row["trace"]:
            continue
        for name in bounds:
            cell = row["metrics"].get(name)
            if cell is None:
                continue
            lost = cell["change_losses"]
            untied = lost + cell["change_wins"]
            print(f"{row['workload']} seed={row['seed']} {name}: change lost "
                  f"{lost}/{untied} pairs, p = {sign_test_p(lost, untied):.2g} "
                  "(sign test, reported only)")


def paired(runs: list[dict], workload: str, seed: int, metric: str):
    """``(parent values, change values)`` of ``metric`` over the complete
    untraced pairs of one workload and seed, pair by pair."""
    by_pair: dict[int, dict[str, float]] = {}
    for run in runs:
        if (run["workload"], run["seed"], run["trace"]) == (workload, seed, 0):
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"][metric]
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    return [p["parent"] for p in pairs], [p["change"] for p in pairs]


def claim(parent: list[float], change: list[float], better: str) -> tuple[str, str]:
    """The gain rule on paired values (``parent[k]`` and ``change[k]`` ran
    as pair ``k``): ``("gain" | "not met", how it was judged)``."""
    if not parent:
        return "not met", "no pairs"
    sign = -1 if better == "lower" else 1
    wins = sum(sign * c > sign * p for p, c in zip(parent, change))
    base = statistics.median(parent)
    gap = sign * (statistics.median(change) - base) / abs(base)
    spread = iqr_share(parent)
    met = wins >= CLAIM_WINS * len(parent) and gap > spread
    return ("gain" if met else "not met",
            f"{wins}/{len(parent)} pairs won, median {gap:+.1%} "
            f"vs parent IQR {spread:.1%}")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode not in (0, 1):  # 1 = ran, but an op failed to verify
        raise RuntimeError(f"perfbench exited {proc.returncode} in {tree}")
    return parse_run(proc.stdout)


def materialise(rev: str, workdir: Path) -> Path:
    """``git archive REV`` unpacked under ``workdir`` (reused if present)."""
    sha = subprocess.check_output(
        ["git", "rev-parse", rev], cwd=ROOT, text=True
    ).strip()
    tree = workdir / f"base-{sha[:12]}"
    if not tree.is_dir():
        tree.mkdir(parents=True)
        archive = subprocess.Popen(
            ["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE
        )
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
    return tree


def snapshot(root: Path, workdir: Path) -> Path:
    """A fresh ``change`` tree under ``workdir``: a copy of the files of the
    work tree at ``root`` that git tracks or would track (not the ignored
    ones)."""
    tree = workdir / "change"
    shutil.rmtree(tree, ignore_errors=True)
    names = subprocess.check_output(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, text=True,
    ).split("\0")
    for name in filter(None, names):
        source = root / name
        if source.is_file():  # not a tracked file deleted from the work tree
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)
    return tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", default="1,7")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="BENCH_<pr>.json")
    parser.add_argument("--claim", metavar="METRIC",
                        help="judge a gain on METRIC for each --workload")
    parser.add_argument(
        "--workdir", default=str(Path(tempfile.gettempdir()) / "perf_ab")
    )
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    trees = {"parent": materialise(args.base, workdir),
             "change": snapshot(ROOT, workdir)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim: {args.claim!r} is not a BENCHMARK.json metric")
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"runs": []}
    doc.update(base=args.base, command=" ".join(spec["command"]) +
               " --workload W --seed S --seconds N --trace T",
               method="alternating parent/change pairs, odd pairs change "
               "first, one run at a time; parent = git archive of base, change = "
               "copy of the work tree's tracked and untracked, unignored files")
    for workload in args.workload:
        for seed in (int(s) for s in args.seeds.split(",")):
            first = 1 + max((r["pair"] for r in doc["runs"] if (
                r["workload"], r["seed"], r["trace"]
            ) == (workload, seed, args.trace)), default=-1)
            for k, order in enumerate(pair_schedule(args.pairs)):
                for side in order:
                    run = run_once(trees[side], workload, seed, args.seconds, args.trace)
                    run.update(workload=workload, seed=seed, trace=args.trace,
                               pair=first + k, side=side, first=order[0])
                    doc["runs"].append(run)
                    headline = run["metrics"].get("norm_ops_per_s", "")
                    print(f"{workload} seed={seed} pair={first + k} {side}: "
                          f"failed={run['failed']} {headline}", flush=True)
                doc["summary"] = summarize(doc["runs"], better)
                out.write_text(json.dumps(doc, indent=1) + "\n")
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    summary = summarize(doc["runs"], better)
    worse = report(summary, bounds)
    report_streaks(summary, bounds)
    not_met = False
    if args.claim:
        for workload in args.workload:
            for seed in (int(s) for s in args.seeds.split(",")):
                result, how = claim(*paired(doc["runs"], workload, seed, args.claim),
                                    better[args.claim])
                print(f"{workload} seed={seed} claim {args.claim}: {result} ({how})")
                not_met = not_met or result != "gain"
    return 1 if worse else 2 if not_met else 0


if __name__ == "__main__":
    sys.exit(main())
