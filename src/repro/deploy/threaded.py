"""Threaded deployment: real concurrency, one service thread per actor.

This is the deployment used to *demonstrate* (not time — see DESIGN.md on
the GIL) the paper's concurrency properties: readers and writers in
arbitrary interleavings, writers completing out of order, in-order
publication, and the absence of any shared lock on the data path.
"""

from __future__ import annotations

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import Deployment, assemble
from repro.net.threaded import ThreadedDriver


def build_threaded(spec: DeploymentSpec | None = None) -> Deployment:
    """Assemble a threaded deployment (context-manage it to stop threads)."""
    return assemble(spec, ThreadedDriver(), "threaded")
