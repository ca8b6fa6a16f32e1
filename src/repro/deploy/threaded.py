"""Threaded deployment: real concurrency, each actor entered by one
caller thread at a time, under its own lock.

This is the deployment used to *demonstrate* the paper's concurrency
properties: readers and writers in arbitrary interleavings, writers
completing out of order, in-order publication, and the absence of any
shared lock on the data path. It is not the one to *time*: every actor
shares the client interpreter's GIL, so wall-clock numbers measure lock
contention, not the system — :func:`repro.deploy.tcp.build_tcp` runs the
same driver against actors in their own OS processes (README.md, "Timing
needs separate processes").
"""

from __future__ import annotations

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import Deployment, assemble
from repro.net.threaded import ThreadedDriver


def build_threaded(spec: DeploymentSpec | None = None) -> Deployment:
    """Assemble a threaded deployment (context-manage it to stop threads)."""
    return assemble(spec, ThreadedDriver(), "threaded")
