"""Tier-1 smoke test of the benchmark (``--smoke``: one trial, two rounds,
a 4 MiB window, a few seconds). Checks the contract, never a timing:

- the printed metric names and units equal ``BENCHMARK.json`` exactly;
- every op verifies (``failed == 0``) on every workload;
- the same seed gives the same op-list hash and identical per-op wire
  counts on two traced runs;
- the negative control trips: a deliberately wrong shadow tag is counted
  as a failed op and fails the exit status.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from perfbench import ROOT
from perfbench.noise import parse_output

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def smoke_run(workload: str, *extra: str) -> tuple[int, dict, dict]:
    """``(exit status, final JSON line, detail line)`` of one smoke run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=170,
    )
    return (proc.returncode, *parse_output(proc.stdout))


def names_and_units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_output_matches_the_contract(workload):
    status, result, _ = smoke_run(workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert names_and_units(result) == {
        m["name"]: m["unit"] for m in CONTRACT["end_to_end"]
    }
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] >= 1
    assert status == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_ledger_output_matches_and_counts_repeat_exactly():
    first = smoke_run("fine_mixed_cold", "--trace", "1")
    second = smoke_run("fine_mixed_cold", "--trace", "1")
    for status, result, _ in (first, second):
        assert status == 0 and result["failed"] == 0
        assert names_and_units(result) == {
            m["name"]: m["unit"] for m in CONTRACT["per_layer"]
        }
    assert first[2]["host"]["op_list_hash"] == second[2]["host"]["op_list_hash"]
    counts = [
        name for name in first[1]["metrics"]
        if name.startswith("net.") and name.endswith("_per_op")
    ]
    assert len(counts) == 4
    for name in counts:
        assert (
            first[1]["metrics"][name]["value"]
            == second[1]["metrics"][name]["value"]
            > 0
        ), name


def test_wrong_shadow_tag_is_a_failed_op():
    status, result, _ = smoke_run("seg_read_warm", "--trace", "0",
                                  "--corrupt-shadow")
    assert result["failed"] >= 1 and result["correct"] is False
    assert status != 0
