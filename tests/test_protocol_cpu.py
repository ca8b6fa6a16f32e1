"""scripts/protocol_cpu.py: a small run prints one row per perfbench
workload with a positive READ and WRITE cost."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def test_small_run_prints_every_workload():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "protocol_cpu.py"),
         "--ops", "3", "--repeat", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-2:] == ["read_us", "write_us"]
    assert [row.split()[0] for row in rows] == list(WORKLOADS)
    for row in rows:
        read_us, write_us = map(float, row.split()[-2:])
        assert read_us > 0 and write_us > 0
