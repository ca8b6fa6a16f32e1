"""perfbench: the repository's host-speed-calibrated real-cluster benchmark.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
launches a real loopback TCP cluster through the public builders, runs a
fixed seeded op list, verifies every byte read against a shadow model and
prints every metric by name. ``README.md`` in this directory defines the
workloads, the metrics and the measurement discipline; ``BENCHMARK.json``
at the repository root is the machine-readable contract.

Importing the package makes ``repro`` importable from the source tree
(``<root>/src``): the benchmark runs from a plain checkout, nothing is
installed.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
