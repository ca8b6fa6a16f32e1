"""Deployment builders: wire actors, drivers and clients together.

Four builders cover the five drivers (``build_tcp`` serves both the
``tcp`` and the ``aio`` driver):

- :func:`~repro.deploy.inproc.build_inproc` — everything in one thread;
  the functional substrate for tests, examples and the sky pipeline.
- :func:`~repro.deploy.threaded.build_threaded` — each actor on its own
  service thread (the paper's one-process-per-node layout), real client
  threads; validates concurrency/lock-freedom claims.
- :func:`~repro.deploy.tcp.build_tcp` — provider actors behind node
  agents reached over real TCP connections: the cluster deployment,
  launched as loopback OS processes (CI; no shared GIL, so the
  deployment to *time*) or dialed on real hosts.
  ``build_tcp(spec, client="aio")`` keeps the same cluster but swaps the
  client tier for :class:`~repro.net.aio.AioDriver` — one asyncio event
  loop multiplexing every peer socket, awaitable clients via
  ``dep.async_client()`` — for thousands of concurrent client programs.
- :class:`~repro.deploy.simulated.SimDeployment` — actors on simulated
  cluster nodes with calibrated costs; the benchmark substrate.
"""

from repro.deploy.inproc import InprocDeployment, build_inproc
from repro.deploy.threaded import ThreadedDeployment, build_threaded
from repro.deploy.tcp import TcpDeployment, build_tcp
from repro.deploy.simulated import SimClient, SimDeployment

__all__ = [
    "InprocDeployment",
    "build_inproc",
    "ThreadedDeployment",
    "build_threaded",
    "TcpDeployment",
    "build_tcp",
    "SimDeployment",
    "SimClient",
]
