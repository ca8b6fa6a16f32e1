"""Baselines the paper's design is compared against.

The paper's central claim is that fine-grain access needs **no lock on the
string itself**. The natural baseline — what you get from a conventional
design — is a global reader-writer lock around the shared string with
in-place page updates and no versioning. :mod:`repro.baselines.locked`
runs the same data movement as the lock-free system but under a global RW
lock, on the simulated cluster (shows the *performance* gap: writer
bandwidth collapses as 1/n; ablation bench A).

A second ablation baseline — centralized metadata (single metadata
provider) — needs no extra code: deploy with ``n_meta=1``.
"""

from repro.baselines.locked import LockedClusterSim, SimRWLock

__all__ = ["LockedClusterSim", "SimRWLock"]
