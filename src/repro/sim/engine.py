"""Generator-based discrete-event engine.

A :class:`Simulator` owns a priority queue of timestamped callbacks. A
:class:`Process` wraps a Python generator that *yields events*; when a
yielded event triggers, the generator is resumed with the event's value (or
has the event's exception thrown into it). ``yield from`` composes naturally,
so protocol code written as generators (see :mod:`repro.net.sansio`) runs
unchanged inside the simulation.

The engine is deterministic: events scheduled for the same timestamp fire in
scheduling order (zero-delay work goes through a FIFO "now" queue that is
drained before the time heap; delayed work is heap-ordered with a
monotonically increasing sequence number breaking ties).

The special cases below are kept because each measured faster (this
engine runs hundreds of thousands of callbacks per benchmark figure);
undoing any one of them leaves every pinned simulated series
bit-identical. Wall-time costs of undoing them, on a 2-CPU x86 host
(ROADMAP, "calibration"):

- zero-delay work is a ``deque.append`` on the FIFO "now" queue, drained
  before the heap (one heap for everything: ~1 %);
- a :class:`Timeout` is a single heap entry that dispatches its callbacks
  directly when popped, and inlines ``Event.__init__`` (~2 % each);
- :class:`Join`, the one fan-in, advances its child generators in place
  rather than one now-queue hop later (~6 % on an 8-client figure).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

SimGenerator = Generator["Event", Any, Any]


class SimulationError(RuntimeError):
    """Raised for engine misuse (double trigger, yielding non-events, ...)."""


class Event:
    """A one-shot occurrence with a value or an exception.

    Callbacks receive the event itself. Events are created through their
    simulator so they can schedule their callbacks on trigger.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_exc", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._callbacks: list[Callable[[Event], None]] | None = []
        self._triggered = False
        self._value: Any = None
        self._exc: BaseException | None = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    def defuse(self) -> None:
        """Mark a failure as handled so it does not crash the run loop."""
        self._defused = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._callbacks is None:
            # Already dispatched: run on the next tick to keep ordering sane.
            self.sim._now.append(lambda: fn(self))
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        self._trigger(value, None)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() expects an exception, got {exc!r}")
        self._trigger(None, exc)
        return self

    def _trigger(self, value: Any, exc: BaseException | None) -> None:
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        self._exc = exc
        self.sim._now.append(self._dispatch)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        assert callbacks is not None
        for fn in callbacks:
            fn(self)
        if self._exc is not None and not self._defused and not callbacks:
            # An unwatched failure would vanish silently; surface it.
            raise self._exc


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay", "_tvalue")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Inlined Event.__init__: timeouts are the engine's most-allocated
        # object (every lane job and link delay is one); super().__init__
        # measured 1.5-3 % fewer events/s.
        self.sim = sim
        self._callbacks = []
        self._triggered = False
        self._value = None
        self._exc = None
        self._defused = False
        self.delay = delay
        self._tvalue = value
        sim._schedule(delay, self._fire)

    def _fire(self) -> None:
        # Popped off the heap at exactly the due instant; the "now" queue is
        # empty at that point, so dispatching inline gives the same order
        # as a trigger-then-dispatch pair at half the callbacks (~2 %).
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = self._tvalue
        self._dispatch()


class _Stepper:
    """The one stepping body: resumes a generator with each event it
    yields. A subclass holds the generator in ``_gen`` and hears how it
    ended through ``_returned(value)`` / ``_raised(exc)``."""

    __slots__ = ()

    def _on_event(self, event: Event) -> None:
        if event._exc is None:
            self._advance(False, event._value)
        else:
            event.defuse()
            self._advance(True, event._exc)

    def _advance(self, throwing: bool, arg: Any) -> None:
        gen = self._gen
        try:
            target = gen.throw(arg) if throwing else gen.send(arg)
        except StopIteration as stop:
            self._returned(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            self._raised(exc)
            return
        if not isinstance(target, Event):
            self._raised(
                SimulationError(f"{self!r} yielded {target!r}, expected an Event")
            )
            return
        target.add_callback(self._on_event)


class Process(Event, _Stepper):
    """A running generator; as an Event it triggers on process completion."""

    __slots__ = ("_gen", "name")

    def __init__(self, sim: "Simulator", gen: SimGenerator, name: str = "?") -> None:
        super().__init__(sim)
        self._gen = gen
        self.name = name
        sim._now.append(self._start)

    def __repr__(self) -> str:
        return f"process {self.name!r}"

    def result(self, timeout: float | None = None) -> Any:
        """Run the simulation until this process ends and return its
        value: a driver's ``spawn`` future (``timeout`` is wall-clock,
        moot here)."""
        return self.sim.run(until=self)

    def _start(self) -> None:
        self._advance(False, None)

    _returned = Event.succeed
    _raised = Event.fail


class _JoinChild(_Stepper):
    """Drives one generator of a :class:`Join`; not itself an event."""

    __slots__ = ("join", "index", "_gen")

    def __init__(self, join: "Join", index: int, gen: SimGenerator) -> None:
        self.join = join
        self.index = index
        self._gen = gen

    def __repr__(self) -> str:
        return f"join child {self.index}"

    def _returned(self, value: Any) -> None:
        join = self.join
        if join._triggered:
            return
        join._results[self.index] = value
        join._pending -= 1
        if join._pending == 0:
            join.succeed(join._results)

    def _raised(self, exc: BaseException) -> None:
        if not self.join._triggered:  # the first failure wins
            self.join.fail(exc)


class Join(Event):
    """The engine's one fan-out/fan-in: runs child generators to completion.

    Value is the list of child return values in argument order; the first
    child failure fails the join and later ones are swallowed. Each child
    is a lightweight cursor (one counter and one event in all) that is
    advanced *in place* from the constructor, where a :class:`Process`
    would start one now-queue hop later (measured slower; module notes).
    """

    __slots__ = ("_results", "_pending")

    def __init__(self, sim: "Simulator", gens: Iterable[SimGenerator]) -> None:
        super().__init__(sim)
        children = [_JoinChild(self, i, g) for i, g in enumerate(gens)]
        self._results: list[Any] = [None] * len(children)
        self._pending = len(children)
        if not children:
            self.succeed([])
            return
        for child in children:
            child._advance(False, None)


class Simulator:
    """The event loop: a FIFO "now" queue plus a heap of timed callbacks."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._now: deque[Callable[[], None]] = deque()
        self._seq = 0
        self._processes_started = 0
        #: total callbacks executed (engine-load counter for the perf harness)
        self.events_processed = 0

    # -- scheduling ------------------------------------------------------

    def _schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay == 0.0:
            self._now.append(fn)
            return
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn))

    # -- factories -------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: SimGenerator, name: str | None = None) -> Process:
        self._processes_started += 1
        return Process(self, gen, name or f"proc-{self._processes_started}")

    def join(self, gens: Iterable[SimGenerator]) -> Join:
        return Join(self, gens)

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        Returns the event's value when ``until`` is an Event; an Event
        that can no longer fire raises :class:`SimulationError`.
        """
        # One loop for all three: a bare deadline waits on an event that
        # never fires, an awaited event on a deadline that never comes.
        awaited = isinstance(until, Event)
        stop = until if awaited else Event(self)
        deadline = float("inf") if awaited or until is None else float(until)
        now_q = self._now
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        try:
            while not stop._triggered:
                if now_q:
                    fn = now_q.popleft()
                elif queue and queue[0][0] <= deadline:
                    when, _, fn = pop(queue)
                    self.now = when
                elif awaited:
                    raise SimulationError(
                        "simulation queue drained before the awaited event fired"
                    )
                else:
                    break
                executed += 1
                fn()
        finally:
            self.events_processed += executed
        if awaited:
            return stop.value
        if until is not None:
            self.now = max(self.now, deadline)
        return None
