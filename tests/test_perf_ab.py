"""scripts/perf_ab.py: the pair schedule, the output parser, the
summary, the verdicts and the sign-test line, on canned perfbench output
— no cluster is launched — and the copy of the work tree the change runs
from."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_ab.py"
spec = importlib.util.spec_from_file_location("perf_ab", SCRIPT)
perf_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_ab)


def _stdout(ops: float, rss: float, failed: int = 0) -> str:
    """What one ``perfbench/run.py --trace 0`` run prints (abridged)."""
    detail = {
        "host": {"nproc": 2, "pinned_cpu": 0, "load1": 0.4, "noisy_host": False},
        "raw": {"raw_ops_per_s": ops / 2},
        "trials": [],
    }
    final = {
        "correct": failed == 0,
        "attempted": 11712,
        "failed": failed,
        "metrics": {
            "norm_ops_per_s": {"value": ops, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        },
    }
    return "\n".join([
        "perfbench: many_clients_aio seed=1 trace=0",
        "  why: 64 coroutine clients saturating one aio loop",
        "  detail: " + json.dumps(detail),
        f"  norm_ops_per_s   {ops:>14.4f}  1/s",
        json.dumps(final),
        "",
    ])


def test_pairs_alternate_which_side_runs_first():
    assert perf_ab.pair_schedule(4) == [
        ("parent", "change"), ("change", "parent"),
        ("parent", "change"), ("change", "parent"),
    ]
    assert perf_ab.pair_schedule(0) == []


def test_parse_run_reads_the_final_line_and_the_detail_line():
    run = perf_ab.parse_run(_stdout(2400.5, 213.4, failed=2))
    assert run["metrics"] == {"norm_ops_per_s": 2400.5, "peak_rss_mb": 213.4}
    assert (run["correct"], run["attempted"], run["failed"]) == (False, 11712, 2)
    assert run["host"]["pinned_cpu"] == 0 and run["raw"] == {"raw_ops_per_s": 1200.25}


def test_summary_has_medians_quartiles_and_direction_aware_wins():
    runs = []
    pairs = [(2400, 3900, 213, 215), (2300, 3700, 214, 214), (2500, 2450, 212, 211)]
    for k, (p_ops, c_ops, p_rss, c_rss) in enumerate(pairs):
        for side, ops, rss in (("parent", p_ops, p_rss), ("change", c_ops, c_rss)):
            run = perf_ab.parse_run(_stdout(ops, rss))
            run.update(workload="w", seed=1, trace=0, pair=k, side=side)
            runs.append(run)
    runs.append(dict(runs[0], pair=3))  # an unfinished pair is left out
    better = {"norm_ops_per_s": "higher", "peak_rss_mb": "lower"}
    (row,) = perf_ab.summarize(runs, better)
    assert (row["workload"], row["seed"], row["pairs"]) == ("w", 1, 3)
    assert row["failed"] == {"parent": 0, "change": 0}
    ops = row["metrics"]["norm_ops_per_s"]
    assert ops["change_wins"] == 2  # higher is better
    assert ops["parent"]["median"] == 2400 and ops["change"]["median"] == 3700
    assert ops["parent"]["q1"] <= 2400 <= ops["parent"]["q3"]
    assert ops["change_losses"] == 1
    rss = row["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 1  # lower is better; the tie counts for neither
    assert rss["change_losses"] == 1


BOUNDS = {"norm_ops_per_s": ("higher", 0.2), "peak_rss_mb": ("lower", 0.1)}


def _row(pairs, failed=(0, 0)) -> dict:
    """The summary row of canned ``(parent ops, change ops, parent rss,
    change rss)`` pairs; ``failed`` ops per side, on the first pair."""
    runs = []
    for k, (p_ops, c_ops, p_rss, c_rss) in enumerate(pairs):
        for side, ops, rss, bad in (("parent", p_ops, p_rss, failed[0]),
                                    ("change", c_ops, c_rss, failed[1])):
            run = perf_ab.parse_run(_stdout(ops, rss, bad if k == 0 else 0))
            run.update(workload="w", seed=1, trace=0, pair=k, side=side)
            runs.append(run)
    (row,) = perf_ab.summarize(runs, {m: b for m, (b, _) in BOUNDS.items()})
    return row


def test_verdict_no_worse_within_the_bound():
    row = _row([(1000, 900, 200, 210), (1010, 950, 201, 215), (990, 920, 199, 212)])
    assert perf_ab.verdict(row, BOUNDS) == {
        "norm_ops_per_s": "no worse", "peak_rss_mb": "no worse", "failed": "no worse",
    }


def test_verdict_worse_beyond_the_bound_and_on_more_failures():
    row = _row([(1000, 700, 200, 250), (1010, 760, 201, 240), (990, 750, 199, 245)],
               failed=(0, 3))
    assert perf_ab.verdict(row, BOUNDS) == {
        "norm_ops_per_s": "worse", "peak_rss_mb": "worse", "failed": "worse",
    }


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    """The parent's quartiles are 60 % apart: a change inside them proves
    nothing — unless every change run beats every parent run."""
    noisy = [(600, 900, 200, 200), (1000, 950, 200, 200), (1400, 1000, 200, 200)]
    assert perf_ab.verdict(_row(noisy), BOUNDS)["norm_ops_per_s"] == "unresolved"
    clear = [(600, 1500, 200, 200), (1000, 1600, 200, 200), (1400, 1700, 200, 200)]
    assert perf_ab.verdict(_row(clear), BOUNDS)["norm_ops_per_s"] == "no worse"


PARENT = [1000, 1010, 990, 1005, 995, 1000, 1002, 998, 1003, 997]


def _claimed(changes, parents=PARENT) -> tuple[str, str]:
    """The ``--claim norm_ops_per_s`` verdict on canned pairs, read back
    through the runs file exactly as the script does."""
    runs = []
    for k, (p_ops, c_ops) in enumerate(zip(parents, changes)):
        for side, ops in (("parent", p_ops), ("change", c_ops)):
            run = perf_ab.parse_run(_stdout(ops, 200))
            run.update(workload="w", seed=1, trace=0, pair=k, side=side)
            runs.append(run)
    runs.append(dict(runs[0], trace=1))  # traced runs are not judged
    return perf_ab.claim(*perf_ab.paired(runs, "w", 1, "norm_ops_per_s"), "higher")


def test_claim_is_a_gain_on_nine_wins_in_ten_clear_of_the_iqr():
    changes = [1100] * 9 + [900]
    result, how = _claimed(changes)
    assert result == "gain"
    assert how.startswith("9/10 pairs won, median +")


def test_claim_is_not_met_on_eight_wins_in_ten():
    changes = [1100] * 8 + [900, PARENT[9]]  # the tie counts for neither
    assert _claimed(changes)[0] == "not met"


def test_claim_is_not_met_when_the_median_gap_is_inside_the_parent_iqr():
    parents = [800, 850, 900, 950, 1000, 1050, 1100, 1150, 1200, 1250]
    changes = [p + 10 for p in parents]  # 10/10 wins, 1 % against a 25 % IQR
    result, how = _claimed(changes, parents)
    assert result == "not met"
    assert how.startswith("10/10 pairs won")


def test_claim_on_lower_is_better_metrics_and_without_pairs():
    assert perf_ab.claim([10.0] * 10, [9.0] * 10, "lower")[0] == "gain"
    assert perf_ab.claim([10.0] * 10, [11.0] * 10, "lower")[0] == "not met"
    assert perf_ab.claim([], [], "higher") == ("not met", "no pairs")


def test_report_prints_a_line_per_metric_and_flags_worse(capsys):
    good = _row([(1000, 990, 200, 200)] * 3)
    bad = dict(_row([(1000, 500, 200, 200)] * 3), workload="v")
    traced = dict(bad, trace=1)  # tracing off is what end-to-end means
    assert perf_ab.report([good, traced], BOUNDS) is False
    assert perf_ab.report([good, bad], BOUNDS) is True
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 + 3 + 3
    assert lines[-3].startswith("v seed=1 norm_ops_per_s: worse (parent 1000")


def test_sign_test_p_is_one_sided_over_untied_pairs():
    assert perf_ab.sign_test_p(5, 5) == 1 / 32
    assert perf_ab.sign_test_p(0, 5) == 1.0
    assert perf_ab.sign_test_p(4, 5) == 6 / 32  # 4 or 5 losses of 5
    assert perf_ab.sign_test_p(0, 0) == 1.0  # every pair tied


def test_report_streaks_prints_the_losses_inside_the_bound(capsys):
    """Five lost pairs, each 5 % down, read *no worse* against a 20 %
    bound; the sign-test line is what shows the streak."""
    streak = _row([(1000, 950, 200, 200)] * 5)
    mixed = dict(_row([(1000, 990, 200, 201), (1000, 1010, 200, 199),
                       (1000, 1000, 200, 202)]), workload="v")
    traced = dict(streak, trace=1)
    assert perf_ab.verdict(streak, BOUNDS)["norm_ops_per_s"] == "no worse"
    perf_ab.report_streaks([streak, mixed, traced], BOUNDS)
    assert capsys.readouterr().out.splitlines() == [
        "w seed=1 norm_ops_per_s: change lost 5/5 pairs, p = 0.031 "
        "(sign test, reported only)",
        "w seed=1 peak_rss_mb: change lost 0/0 pairs, p = 1 "
        "(sign test, reported only)",
        "v seed=1 norm_ops_per_s: change lost 1/2 pairs, p = 0.75 "
        "(sign test, reported only)",
        "v seed=1 peak_rss_mb: change lost 2/3 pairs, p = 0.5 "
        "(sign test, reported only)",
    ]


def test_the_change_tree_holds_new_files_and_omits_ignored_ones(tmp_path):
    root = tmp_path / "repo"
    (root / "pkg").mkdir(parents=True)
    (root / ".gitignore").write_text("*.log\n")
    (root / "pkg" / "tracked.py").write_text("A = 1\n")
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", "."], cwd=root, check=True)
    (root / "pkg" / "tracked.py").write_text("A = 2\n")  # uncommitted edit
    (root / "pkg" / "new.py").write_text("B = 1\n")  # untracked, not ignored
    (root / "run.log").write_text("noise\n")  # ignored
    tree = perf_ab.snapshot(root, tmp_path / "work")
    assert tree.parent == tmp_path / "work"
    assert (tree / "pkg" / "tracked.py").read_text() == "A = 2\n"
    assert (tree / "pkg" / "new.py").read_text() == "B = 1\n"
    assert not (tree / "run.log").exists()
    # made afresh per invocation: a file gone from the work tree is gone
    (root / "pkg" / "new.py").unlink()
    assert not (perf_ab.snapshot(root, tmp_path / "work") / "pkg" / "new.py").exists()
