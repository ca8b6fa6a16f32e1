"""Deployment builders: wire actors, drivers and clients together.

Every deployment is one :class:`~repro.deploy.inproc.Deployment`
surface (clients, inspection, wire counters, the fault surface on
``dep.driver``, telemetry, close) and differs only in the driver behind
it; ``build_tcp`` serves both the ``tcp`` and the ``aio`` driver:

- :func:`~repro.deploy.inproc.build_inproc` — everything in one thread;
  the functional substrate for tests, examples and the sky pipeline.
- :func:`~repro.deploy.threaded.build_threaded` — each actor entered by
  one thread at a time, under its own lock (the confinement a node agent
  keeps), real client threads; validates concurrency/lock-freedom claims.
- :func:`~repro.deploy.tcp.build_tcp` — provider actors behind node
  agents reached over real TCP connections: the cluster deployment,
  launched as loopback OS processes (CI; no shared GIL, so the
  deployment to *time*) or dialed on real hosts; its ``TcpDeployment``
  adds the agents, elastic membership and failure injection.
  ``build_tcp(spec, client="aio")`` keeps the same cluster but swaps the
  client tier for :class:`~repro.net.aio.AioDriver` — one asyncio event
  loop multiplexing every peer socket, awaitable clients via
  ``dep.async_client()`` — for thousands of concurrent client programs.
- :class:`~repro.deploy.simulated.SimDeployment` — actors on simulated
  cluster nodes with calibrated costs; the benchmark substrate. A
  ``Deployment`` with one driver per client node
  (``dep.client(name, index=i)`` / ``dep.async_client(...)``).
"""

from repro.deploy.inproc import Deployment, build_inproc
from repro.deploy.threaded import build_threaded
from repro.deploy.tcp import TcpDeployment, build_tcp
from repro.deploy.simulated import SimDeployment

__all__ = [
    "Deployment",
    "build_inproc",
    "build_threaded",
    "TcpDeployment",
    "build_tcp",
    "SimDeployment",
]
