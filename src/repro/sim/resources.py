"""Simulated resources: serialized rate lanes.

One primitive covers everything the cluster model needs:
:class:`RateLane`, a work-conserving FIFO pipe with a fixed service rate
(bytes/second or operations/second), used to model NIC transmit/receive
sides and per-node CPUs. A job of size ``n`` occupies the lane for
``n / rate`` seconds *after* all previously queued work; this serializes
concurrent transfers exactly like a full-duplex Ethernet adapter
serializes frames, and yields the aggregate-bandwidth behaviour the
paper's throughput experiment depends on.
"""

from __future__ import annotations

from repro.sim.engine import Event, Simulator, Timeout


class RateLane:
    """Serialized FIFO service lane with a fixed rate.

    ``submit(amount)`` returns an event that fires when the job completes;
    jobs are serviced back-to-back in submission order. The lane is work
    conserving: an idle lane starts a job immediately; a busy lane appends
    it after the current backlog.
    """

    __slots__ = ("sim", "rate", "_free_at", "busy_time", "jobs")

    def __init__(self, sim: Simulator, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.sim = sim
        self.rate = rate
        self._free_at = 0.0
        self.busy_time = 0.0  # total service time accumulated (utilization)
        self.jobs = 0

    def submit(
        self, amount: float, extra_delay: float = 0.0, not_before: float = 0.0
    ) -> Event:
        """Queue ``amount`` units of work; event fires at completion time.

        ``extra_delay`` adds a pure delay after the work completes without
        occupying the lane (e.g. link latency after NIC serialization);
        ``not_before`` keeps the job from starting before an absolute
        instant (e.g. "transmit once the marshalling CPU job finishes").
        Both fold what used to be separate scheduled waits into a single
        event — the cornerstone of the 4-events-per-RPC hot path.
        """
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        sim = self.sim
        service = amount / self.rate
        start = max(sim.now, self._free_at, not_before)
        finish = start + service
        self._free_at = finish
        self.busy_time += service
        self.jobs += 1
        return Timeout(sim, finish - sim.now + extra_delay)

    def push(self, amount: float, not_before: float = 0.0) -> float:
        """Queue work without creating an event; returns the finish time.

        For fire-and-chain jobs whose completion the caller folds into a
        later ``submit(..., not_before=finish)`` on another lane.
        """
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        service = amount / self.rate
        start = max(self.sim.now, self._free_at, not_before)
        finish = start + service
        self._free_at = finish
        self.busy_time += service
        self.jobs += 1
        return finish

    def delay_for(self, amount: float) -> float:
        """Completion delay a job of ``amount`` would see if submitted now."""
        start = max(self.sim.now, self._free_at)
        return (start - self.sim.now) + amount / self.rate

    @property
    def backlog(self) -> float:
        """Seconds of queued work remaining from ``sim.now``."""
        return max(0.0, self._free_at - self.sim.now)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the lane spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
