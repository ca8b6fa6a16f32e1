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

Hot-path design notes (this engine executes hundreds of thousands of
callbacks per benchmark figure, so constant factors matter):

- zero-delay scheduling is a ``deque.append`` — no heap traffic;
- a :class:`Timeout` is a single heap entry that dispatches its callbacks
  directly when popped (no separate trigger-then-dispatch hop);
- process resumption uses bound-method callbacks — no per-step closures;
- :class:`Join` fans out over child generators with one counter and one
  event total, replacing a full ``Process`` + ``AllOf`` per child.
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
        # object (every lane job and link delay is one), so skip the
        # super() call.
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
        # empty at that point, so dispatching inline is equivalent to (and
        # half the bookkeeping of) a trigger-then-dispatch pair.
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = self._tvalue
        self._dispatch()


class Process(Event):
    """A running generator; as an Event it triggers on process completion."""

    __slots__ = ("_gen", "name")

    def __init__(self, sim: "Simulator", gen: SimGenerator, name: str = "?") -> None:
        super().__init__(sim)
        self._gen = gen
        self.name = name
        sim._now.append(self._start)

    def result(self, timeout: float | None = None) -> Any:
        """Run the simulation until this process ends and return its
        value: a driver's ``spawn`` future (``timeout`` is wall-clock,
        moot here)."""
        return self.sim.run(until=self)

    def _start(self) -> None:
        self._advance(False, None)

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
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
            )
            return
        target.add_callback(self._on_event)


class AllOf(Event):
    """Triggers when all child events have; value is their list of values.

    The first child failure fails the whole composition (remaining failures
    are defused so the run loop does not crash).
    """

    __slots__ = ("_pending", "_children")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            if not event.ok:
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            assert event._exc is not None
            self.fail(event._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev._value for ev in self._children])


class _JoinChild:
    """Drives one generator of a :class:`Join`; not itself an event."""

    __slots__ = ("join", "index", "gen")

    def __init__(self, join: "Join", index: int, gen: SimGenerator) -> None:
        self.join = join
        self.index = index
        self.gen = gen

    def _on_event(self, event: Event) -> None:
        if event._exc is None:
            self._advance(False, event._value)
        else:
            event.defuse()
            self._advance(True, event._exc)

    def _advance(self, throwing: bool, arg: Any) -> None:
        gen = self.gen
        try:
            target = gen.throw(arg) if throwing else gen.send(arg)
        except StopIteration as stop:
            self.join._child_done(self.index, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - fail the join
            self.join._child_failed(exc)
            return
        if not isinstance(target, Event):
            self.join._child_failed(
                SimulationError(
                    f"join child {self.index} yielded {target!r}, expected an Event"
                )
            )
            return
        target.add_callback(self._on_event)


class Join(Event):
    """Counter-based fan-out/fan-in over child generators.

    Functionally equivalent to spawning one :class:`Process` per generator
    and gathering them with :class:`AllOf`, but allocates one event and one
    counter total: each child is a lightweight cursor that resumes its
    generator in place. Value is the list of child return values in
    argument order; the first child failure fails the join (later failures
    are swallowed, mirroring ``AllOf``'s defusing).
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

    def _child_done(self, index: int, value: Any) -> None:
        if self._triggered:
            return
        self._results[index] = value
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._results)

    def _child_failed(self, exc: BaseException) -> None:
        if self._triggered:
            return  # first failure wins; later ones are moot
        self.fail(exc)


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

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def join(self, gens: Iterable[SimGenerator]) -> Join:
        return Join(self, gens)

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        Returns the event's value when ``until`` is an Event.
        """
        now_q = self._now
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        try:
            if isinstance(until, Event):
                stop = until
                while not stop._triggered:
                    if now_q:
                        fn = now_q.popleft()
                    elif queue:
                        when, _, fn = pop(queue)
                        self.now = when
                    else:
                        raise SimulationError(
                            "simulation queue drained before the awaited event fired"
                        )
                    executed += 1
                    fn()
                return stop.value
            deadline = float("inf") if until is None else float(until)
            while True:
                if now_q:
                    fn = now_q.popleft()
                elif queue and queue[0][0] <= deadline:
                    when, _, fn = pop(queue)
                    self.now = when
                else:
                    break
                executed += 1
                fn()
            if until is not None:
                self.now = max(self.now, deadline)
            return None
        finally:
            self.events_processed += executed
