"""Discrete-event cluster simulator.

The paper's evaluation ran on 50 nodes of the Grid'5000 Rennes cluster
(1 Gbit/s Ethernet, measured 117.5 MB/s for TCP, 0.1 ms latency). A faithful
wall-clock reproduction in Python is impossible under the GIL, so the
benchmarks run the *same protocol code* on a discrete-event simulation of
that cluster: virtual time advances only through modeled costs (CPU service,
RPC overhead, NIC serialization, link latency), making throughput numbers a
function of the protocol rather than of the host interpreter.

Layers:

- :mod:`repro.sim.engine` — generator-based event loop (processes, timeouts,
  the ``Join`` fan-in), in the style of SimPy but self-contained.
- :mod:`repro.sim.resources` — serialized rate lanes used to model CPUs
  and NICs.
- :mod:`repro.sim.network` — cluster/node/NIC model plus the calibrated
  :class:`~repro.sim.network.ClusterSpec` constants.
"""

from repro.sim.engine import Event, Join, Process, Simulator, Timeout
from repro.sim.resources import RateLane
from repro.sim.network import ClusterSpec, Network, SimNode

__all__ = [
    "Event",
    "Join",
    "Process",
    "Simulator",
    "Timeout",
    "RateLane",
    "ClusterSpec",
    "Network",
    "SimNode",
]
