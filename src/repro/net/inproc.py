"""Direct-dispatch driver.

The simplest execution substrate: actors are plain objects in the current
process and batches are executed sequentially. Used by functional tests,
the examples, and the supernova pipeline, where correctness — not timing —
is the point. A :class:`~repro.net.sansio.Driver` with no wire layer, so
``server_stats`` counts ``None`` and ``transport_stats`` is ``None``.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.net.sansio import (
    Actor,
    Address,
    Driver,
    Protocol,
    run_inproc,
)
from repro.obs.telemetry import telemetry_report


class InprocDriver(Driver):
    """Driver facade over :func:`repro.net.sansio.run_inproc`.

    Also the place where deployments register/unregister actors; the
    registry is a live mapping, so actors added after construction (e.g. a
    data provider joining) become reachable immediately.
    """

    def __init__(self, registry: Mapping[Address, Actor] | None = None) -> None:
        self._registry: dict[Address, Actor] = dict(registry or {})
        self._down: dict[Address, str] = {}

    def register(self, address: Address, actor: Actor) -> None:
        if address in self._registry:
            raise ValueError(f"address {address!r} already registered")
        self._registry[address] = actor

    def unregister(self, address: Address) -> None:
        self._registry.pop(address, None)

    def addresses(self) -> list[Address]:
        return list(self._registry)

    def telemetry(self, address: Address) -> dict[str, Any]:
        """One actor's telemetry report, same shape as the concurrent
        drivers' (this driver has no wire layer, so the wire counters are
        ``None``)."""
        self._raise_if_failed(address)
        return telemetry_report(self._registry[address])

    def run(self, proto: Protocol[Any]) -> Any:
        """Execute a protocol to completion and return its value."""
        return run_inproc(proto, self._registry, self._down)
