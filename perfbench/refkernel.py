"""The reference kernel: the benchmark's unit of time.  FROZEN.

On a shared VM the same code swings 30-60 % in wall *and* CPU time as
hypervisor neighbours come and go, so raw seconds do not repeat. Every
timed round of the benchmark is therefore bracketed by two runs of
:func:`kernel` on the same CPU, and durations are reported in *reference*
units: ``norm = raw * REF_MS / calib_ms`` (inverse for rates), where
``calib_ms`` is the mean of the two neighbouring kernel timings.

The kernel is roughly the mix the system itself runs — interpreter
bytecode, bulk memory copies, pickle round trips. It must never be
edited after the PR that introduced it: doing so re-bases every number
ever reported in reference units (see README.md, "Frozen parts").
"""

from __future__ import annotations

import pickle
from time import perf_counter_ns

#: one kernel run *defines* this many reference milliseconds
REF_MS = 20.0

_BUF = bytes(4 << 20)
_ROWS = [(i, "key-%06d" % i, i * 0.5, b"\x5a" * 16) for i in range(2000)]


def kernel() -> int:
    """One fixed unit of work (~20 ms on the box that defined it)."""
    acc = 0
    for i in range(120_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    copied = 0
    for _ in range(24):
        copied += len(bytearray(_BUF))
    rows = 0
    for _ in range(8):
        rows += len(pickle.loads(pickle.dumps(_ROWS, 5)))
    return acc + copied + rows


def time_kernel() -> float:
    """Milliseconds one kernel run took, on the calling thread's CPU."""
    t0 = perf_counter_ns()
    kernel()
    return (perf_counter_ns() - t0) / 1e6


def to_ref(raw: float, calib_ms: float) -> float:
    """A raw duration (any unit) expressed in reference units."""
    return raw * REF_MS / calib_ms
