"""Discrete-event engine semantics."""

import pytest

from repro.sim.engine import SimulationError, Simulator


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


class TestJoin:
    def test_join_gathers_in_order(self):
        sim = Simulator()

        def child(delay, value):
            yield sim.timeout(delay)
            return value

        join = sim.join([child(3.0, "a"), child(1.0, "b")])
        assert sim.run(until=join) == ["a", "b"]
        assert sim.now == 3.0

    def test_join_empty(self):
        sim = Simulator()
        join = sim.join([])
        assert sim.run(until=join) == []
        assert sim.now == 0.0

    def test_join_fails_fast(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("x")

        def slow():
            yield sim.timeout(10.0)

        join = sim.join([bad(), slow()])
        with pytest.raises(RuntimeError, match="x"):
            sim.run(until=join)
        assert sim.now == 1.0

    def test_child_yielding_a_non_event_fails_the_join(self):
        sim = Simulator()

        def child():
            yield 42  # type: ignore[misc]

        join = sim.join([child()])
        with pytest.raises(SimulationError, match="join child 0 yielded 42"):
            sim.run(until=join)

    def test_a_second_child_failure_is_swallowed(self):
        sim = Simulator()

        def fails_at(delay, msg):
            yield sim.timeout(delay)
            raise RuntimeError(msg)

        join = sim.join([fails_at(1.0, "first"), fails_at(2.0, "second")])
        join.defuse()
        sim.run()  # the second failure neither raises nor replaces the first
        assert sim.now == 2.0
        with pytest.raises(RuntimeError, match="first"):
            _ = join.value


class TestDeterminism:
    def test_identical_runs_identical_trajectories(self):
        def build():
            sim = Simulator()
            log = []

            def worker(i):
                for k in range(3):
                    yield sim.timeout(0.5 * (i + 1))
                    log.append((sim.now, i, k))

            sim.run(until=sim.join(worker(i) for i in range(3)))
            return log

        assert build() == build()
