"""scripts/cpu_split.py: one smoke-shaped trial prints a CPU row (µs,
scheduler slices and minor page faults per op) for the aio loop thread,
one per agent and the client's cyclic collections."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_trial_prints_the_loop_thread_and_every_agent():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cpu_split.py"), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    header, columns, *rows = proc.stdout.splitlines()
    assert "0 failed" in header and "schedstat" in header
    assert columns.split()[-3:] == [
        "cpu_us_per_op", "slices_per_op", "minflt_per_op"
    ]
    rows = [row.rsplit(None, 3) for row in rows]
    names = [name.strip() for name, _, _, _ in rows]
    assert "aio-driver" in names
    assert sum(name.startswith("agent ") for name in names) == 4
    assert "gc" in names
    assert [name.split(" (")[0] for name in names if name.startswith("gc ")] == [
        "gc gen0", "gc gen1", "gc gen2"
    ]
    assert all(float(us) >= 0 for _, us, _, _ in rows)
    # the collector's rows have no slices or faults of their own; every
    # thread has
    assert all(
        slices == minflt == "-" if name.startswith("gc")
        else float(slices) >= 0 and float(minflt) >= 0
        for name, _, slices, minflt in rows
    )
    # the column is read, not left at zero: the trial touches fresh memory
    assert sum(
        float(minflt) for name, _, _, minflt in rows if not name.startswith("gc")
    ) > 0
