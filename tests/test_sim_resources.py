"""Simulated resources: rate lanes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import RateLane


class TestRateLane:
    def test_single_job_service_time(self):
        sim = Simulator()
        lane = RateLane(sim, rate=100.0)
        ev = lane.submit(50.0)
        sim.run()
        assert ev.triggered
        assert sim.now == pytest.approx(0.5)

    def test_fifo_serialization(self):
        sim = Simulator()
        lane = RateLane(sim, rate=10.0)
        done = []
        lane.submit(10.0).add_callback(lambda _: done.append(sim.now))
        lane.submit(10.0).add_callback(lambda _: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_work_conserving_after_idle(self):
        sim = Simulator()
        lane = RateLane(sim, rate=10.0)

        def proc():
            yield lane.submit(10.0)  # busy until t=1
            yield sim.timeout(5.0)  # idle gap
            yield lane.submit(10.0)  # starts immediately at t=6
            return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == pytest.approx(7.0)

    def test_zero_amount_is_instant_tick(self):
        sim = Simulator()
        lane = RateLane(sim, rate=10.0)
        ev = lane.submit(0.0)
        sim.run()
        assert ev.triggered and sim.now == 0.0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            RateLane(Simulator(), 10.0).submit(-1.0)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            RateLane(Simulator(), 0.0)

    def test_backlog_and_delay_for(self):
        sim = Simulator()
        lane = RateLane(sim, rate=10.0)
        lane.submit(20.0)
        assert lane.backlog == pytest.approx(2.0)
        assert lane.delay_for(10.0) == pytest.approx(3.0)

    def test_utilization(self):
        sim = Simulator()
        lane = RateLane(sim, rate=10.0)
        lane.submit(10.0)
        sim.run()
        sim.timeout(1.0)
        sim.run()
        assert lane.utilization(sim.now) == pytest.approx(0.5)
        assert lane.utilization(0.0) == 0.0

    def test_aggregate_throughput_under_contention(self):
        """N concurrent producers share the lane's full rate exactly."""
        sim = Simulator()
        lane = RateLane(sim, rate=100.0)

        def producer():
            for _ in range(10):
                yield lane.submit(10.0)

        procs = [sim.process(producer()) for _ in range(4)]
        sim.run(until=sim.all_of(procs))
        # total work = 4 * 10 * 10 = 400 units at rate 100 => exactly 4s
        assert sim.now == pytest.approx(4.0)
