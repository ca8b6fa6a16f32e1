"""Messaging substrate: sans-io protocols and their execution drivers.

The blob protocols (READ, WRITE, ALLOC, GC) are written **once** as plain
generators that yield :class:`~repro.net.sansio.Batch` /
:class:`~repro.net.sansio.Compute` operations and receive results — no I/O,
no threads, no clocks inside the protocol logic (the "sans-io" style). Four
drivers execute them:

- :class:`~repro.net.inproc.InprocDriver` — direct dispatch, for functional
  tests, examples and the application pipeline;
- :class:`~repro.net.threaded.ThreadedDriver` — caller threads against two
  kinds of actor: in-parent ones, served on the calling thread under
  each actor's lock (real concurrency, used to validate lock-freedom), and
  remote ones behind ``host:port`` node agents (:mod:`repro.net.node`),
  one OS process each on loopback or real hosts, reached through a
  :class:`~repro.net.tcp.TcpPeer`: length-prefixed pickle frames
  (:mod:`repro.net.codec`) over TCP connections with reconnect-safe
  fail-over — real parallelism, no shared GIL, meaningful throughput, and
  the multi-host cluster deployment;
- :class:`~repro.net.aio.AioDriver` — the same TCP agents driven from a
  single asyncio event loop multiplexing every peer socket: thousands of
  concurrent client coroutines instead of one thread per client;
- :class:`~repro.net.simdriver.SimRpcExecutor` — runs protocols as processes
  on the discrete-event cluster with full cost accounting, used by every
  benchmark.

The drivers share one contract, :class:`~repro.net.sansio.Driver`, and
aggregation semantics: sub-calls within one batch that target the same
destination travel in a single wire RPC (paper §V.A).
"""

from repro.net.sansio import Batch, Call, Compute, Protocol, run_inproc
from repro.net.message import estimate_size
from repro.net.address import ClusterMap, Endpoint, format_actor, parse_actor
from repro.net.inproc import InprocDriver
from repro.net.threaded import ThreadedDriver
from repro.net.node import NodeAgent
from repro.net.aio import AioDriver
from repro.net.simdriver import SimRpcExecutor

__all__ = [
    "Batch",
    "Call",
    "Compute",
    "Protocol",
    "run_inproc",
    "estimate_size",
    "ClusterMap",
    "Endpoint",
    "format_actor",
    "parse_actor",
    "InprocDriver",
    "ThreadedDriver",
    "NodeAgent",
    "AioDriver",
    "SimRpcExecutor",
]
