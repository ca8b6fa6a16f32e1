"""Discrete-event engine semantics."""

import pytest

from repro.sim.engine import (
    AllOf,
    SimulationError,
    Simulator,
)


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        t = sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0
        assert t.triggered and t.ok

    def test_timeout_value(self):
        sim = Simulator()
        t = sim.timeout(1.0, value="done")
        sim.run()
        assert t.value == "done"

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().timeout(-1)

    def test_run_until_deadline(self):
        sim = Simulator()
        sim.timeout(10.0)
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_same_time_fifo_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.timeout(1.0).add_callback(lambda _, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestEvents:
    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_trigger_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_unhandled_failure_surfaces(self):
        sim = Simulator()
        sim.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_defused_failure_is_silent(self):
        sim = Simulator()
        ev = sim.event()
        ev.defuse()
        ev.fail(RuntimeError("boom"))
        sim.run()  # no raise


class TestProcesses:
    def test_process_returns_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(2.0)
            return "answer"

        p = sim.process(proc())
        assert sim.run(until=p) == "answer"
        assert sim.now == 2.0

    def test_yield_from_composition(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1.0)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        p = sim.process(outer())
        assert sim.run(until=p) == 20
        assert sim.now == 2.0

    def test_process_exception_propagates_via_event(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            raise ValueError("inside")

        p = sim.process(proc())
        with pytest.raises(ValueError, match="inside"):
            sim.run(until=p)

    def test_failed_event_thrown_into_process(self):
        sim = Simulator()
        trigger = sim.event()
        caught = []

        def proc():
            try:
                yield trigger
            except RuntimeError as exc:
                caught.append(str(exc))
            return "recovered"

        p = sim.process(proc())
        sim._schedule(1.0, lambda: trigger.fail(RuntimeError("remote")))
        assert sim.run(until=p) == "recovered"
        assert caught == ["remote"]

    def test_yielding_non_event_fails_process(self):
        sim = Simulator()

        def proc():
            yield 42  # type: ignore[misc]

        p = sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run(until=p)

    def test_run_until_event_with_drained_queue(self):
        sim = Simulator()
        orphan = sim.event()  # never triggered
        with pytest.raises(SimulationError):
            sim.run(until=orphan)


class TestCompositions:
    def test_all_of_gathers_in_order(self):
        sim = Simulator()
        a = sim.timeout(3.0, value="a")
        b = sim.timeout(1.0, value="b")
        all_ev = AllOf(sim, [a, b])
        sim.run()
        assert all_ev.value == ["a", "b"]
        assert sim.now == 3.0

    def test_all_of_empty(self):
        sim = Simulator()
        ev = AllOf(sim, [])
        sim.run()
        assert ev.value == []

    def test_all_of_fails_fast(self):
        sim = Simulator()
        bad = sim.event()
        slow = sim.timeout(10.0)
        all_ev = AllOf(sim, [bad, slow])
        all_ev.defuse()
        sim._schedule(1.0, lambda: bad.fail(RuntimeError("x")))
        sim.run()
        assert all_ev.triggered and not all_ev.ok


class TestDeterminism:
    def test_identical_runs_identical_trajectories(self):
        def build():
            sim = Simulator()
            log = []

            def worker(i):
                for k in range(3):
                    yield sim.timeout(0.5 * (i + 1))
                    log.append((sim.now, i, k))

            procs = [sim.process(worker(i)) for i in range(3)]
            sim.run(until=AllOf(sim, procs))
            return log

        assert build() == build()
