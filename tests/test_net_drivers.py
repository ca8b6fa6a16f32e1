"""Driver equivalence and driver-specific behaviour.

The drivers must be observationally equivalent for any protocol (the full
certification of every deployment lives in test_driver_conformance.py);
the threaded driver must additionally survive concurrent callers, the sim
driver must charge simulated time, and every real deployment must count
its callers' traffic the same way and refuse work once closed.
"""

import gc
import threading
import time
import warnings

import pytest

from repro.core.config import DeploymentSpec
from repro.core.protocol import stat_protocol
from repro.errors import RemoteError
from repro.net.inproc import InprocDriver
from repro.net.sansio import Batch, Call, Compute, Driver
from repro.net.simdriver import SimDriver, SimRpcExecutor
from repro.net.threaded import ThreadedDriver
from repro.obs.metrics import render_metrics
from repro.sim.engine import Simulator
from repro.sim.network import ClusterSpec, Network
from repro.util.sizes import KB, MB
from tests.conftest import BUILDERS


class Counter:
    """Actor with state, to observe aggregation and ordering."""

    def __init__(self):
        self.value = 0
        self.calls = 0

    def handle(self, method, args):
        self.calls += 1
        if method == "add":
            self.value += args[0]
            return self.value
        if method == "get":
            return self.value
        if method == "fail":
            raise RuntimeError("nope")
        raise ValueError(method)


def summing_protocol():
    total = 0
    results = yield Batch([Call(("c", i % 2), "add", (i,)) for i in range(6)])
    total += sum(results)
    yield Compute("client.touch_page", 1)
    (a,) = yield Batch([Call(("c", 0), "get")])
    (b,) = yield Batch([Call(("c", 1), "get")])
    return total, a, b


def expected_result():
    # c0 gets 0,2,4 cumulative 0,2,6; c1 gets 1,3,5 cumulative 1,4,9
    return (0 + 2 + 6 + 1 + 4 + 9, 6, 9)


class TestEquivalence:
    def run_inproc(self):
        driver = InprocDriver({("c", 0): Counter(), ("c", 1): Counter()})
        return driver.run(summing_protocol())

    def run_threaded(self):
        with ThreadedDriver({("c", 0): Counter(), ("c", 1): Counter()}) as driver:
            return driver.run(summing_protocol())

    def run_sim(self):
        sim = Simulator()
        net = Network(sim, ClusterSpec())
        ex = SimRpcExecutor(sim, net)
        client = net.add_node("client", role="client")
        ex.register(("c", 0), Counter(), net.add_node("s0"))
        ex.register(("c", 1), Counter(), net.add_node("s1"))
        proc = sim.process(SimDriver(ex, client).drive(summing_protocol()))
        return sim.run(until=proc)

    def test_all_drivers_agree(self):
        expected = expected_result()
        assert self.run_inproc() == expected
        assert self.run_threaded() == expected
        assert tuple(self.run_sim()) == expected

    def test_empty_batch_yields_empty_results(self):
        """Batch([]) resumes the protocol with [] on every driver."""

        def proto():
            results = yield Batch([])
            return results

        driver = InprocDriver({("c", 0): Counter()})
        assert driver.run(proto()) == []

        sim = Simulator()
        net = Network(sim, ClusterSpec())
        ex = SimRpcExecutor(sim, net)
        client = net.add_node("client", role="client")
        ex.register(("c", 0), Counter(), net.add_node("s0"))
        proc = sim.process(SimDriver(ex, client).drive(proto()))
        assert sim.run(until=proc) == []


class TestThreadedDriver:
    def test_aggregation_one_rpc_per_destination(self):
        c0, c1 = Counter(), Counter()
        with ThreadedDriver({("c", 0): c0, ("c", 1): c1}) as driver:

            def proto():
                yield Batch([Call(("c", i % 2), "add", (1,)) for i in range(8)])
                return True

            driver.run(proto())
            stats = driver.server_stats()
            # 8 sub-calls but only 1 wire RPC per destination
            assert stats[("c", 0)] == (1, 4)
            assert stats[("c", 1)] == (1, 4)

    def test_concurrent_callers(self):
        counter = Counter()
        with ThreadedDriver({"c": counter}) as driver:

            def proto():
                yield Batch([Call("c", "add", (1,))])
                return True

            threads = [
                threading.Thread(target=lambda: driver.run(proto()))
                for _ in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert counter.value == 16

    def test_spawn_future(self):
        with ThreadedDriver({"c": Counter()}) as driver:

            def proto():
                (v,) = yield Batch([Call("c", "add", (5,))])
                return v

            fut = driver.spawn(proto())
            assert fut.result(timeout=10) == 5
            assert fut.done()

    def test_future_carries_exception(self):
        with ThreadedDriver({"c": Counter()}) as driver:

            def proto():
                yield Batch([Call("c", "fail")])

            fut = driver.spawn(proto())
            with pytest.raises(RemoteError):
                fut.result(timeout=10)

    def test_register_after_start(self):
        with ThreadedDriver() as driver:
            driver.register("late", Counter())

            def proto():
                (v,) = yield Batch([Call("late", "add", (2,))])
                return v

            assert driver.run(proto()) == 2

    def test_duplicate_registration_rejected(self):
        with ThreadedDriver({"c": Counter()}) as driver:
            with pytest.raises(ValueError):
                driver.register("c", Counter())

    def test_unknown_destination(self):
        with ThreadedDriver() as driver:

            def proto():
                yield Batch([Call("ghost", "x")])

            with pytest.raises(KeyError):
                driver.run(proto())

    def test_close_idempotent(self):
        driver = ThreadedDriver({"c": Counter()})
        driver.close()
        driver.close()


class TestSimDriver:
    def make(self, spec=None):
        sim = Simulator()
        net = Network(sim, spec or ClusterSpec())
        ex = SimRpcExecutor(sim, net)
        client = net.add_node("client", role="client")
        counter = Counter()
        ex.register("c", counter, net.add_node("server"))
        return sim, ex, client, counter

    def run_proto(self, sim, ex, client, proto):
        proc = sim.process(SimDriver(ex, client).drive(proto))
        return sim.run(until=proc)

    def test_time_advances(self):
        sim, ex, client, _ = self.make()

        def proto():
            yield Batch([Call("c", "add", (1,))])
            return sim.now

        end = self.run_proto(sim, ex, client, proto())
        assert end > 2 * ClusterSpec().latency  # at least a round trip

    def test_compute_charges_client_cpu(self):
        sim, ex, client, _ = self.make()

        def proto():
            yield Compute("client.build_node", 1000)
            return sim.now

        end = self.run_proto(sim, ex, client, proto())
        expected = ClusterSpec().compute_cost("client.build_node", 1000)
        assert end == pytest.approx(expected, rel=0.01)

    def test_aggregation_wire_rpc_accounting(self):
        sim, ex, client, counter = self.make()

        def proto():
            yield Batch([Call("c", "add", (1,)) for _ in range(10)])
            return True

        self.run_proto(sim, ex, client, proto())
        assert ex.wire_rpcs == 1
        assert ex.sub_calls == 10
        assert counter.calls == 10

    def test_aggregation_disabled_one_rpc_each(self):
        sim, ex, client, counter = self.make(ClusterSpec(aggregate=False))

        def proto():
            yield Batch([Call("c", "add", (1,)) for _ in range(10)])
            return True

        self.run_proto(sim, ex, client, proto())
        assert ex.wire_rpcs == 10
        assert counter.value == 10

    def test_aggregation_is_faster(self):
        def run(aggregate):
            sim, ex, client, _ = self.make(ClusterSpec(aggregate=aggregate))

            def proto():
                yield Batch([Call("c", "add", (1,)) for _ in range(50)])
                return sim.now

            return self.run_proto(sim, ex, client, proto())

        assert run(True) < run(False)

    def test_handler_errors_surface(self):
        sim, ex, client, _ = self.make()

        def proto():
            try:
                yield Batch([Call("c", "fail")])
            except RemoteError as exc:
                return exc.error_type

        assert self.run_proto(sim, ex, client, proto()) == "RuntimeError"

    def test_duplicate_registration_rejected(self):
        sim, ex, client, _ = self.make()
        with pytest.raises(ValueError):
            ex.register("c", Counter(), client)

    def test_concurrent_protocols_serialize_on_server_cpu(self):
        """Two clients' service time accumulates on the shared server."""
        sim = Simulator()
        spec = ClusterSpec()
        net = Network(sim, spec)
        ex = SimRpcExecutor(sim, net)
        counter = Counter()
        ex.register("c", counter, net.add_node("server"))
        clients = [net.add_node(f"cl{i}", role="client") for i in range(4)]

        def proto():
            yield Batch([Call("c", "add", (1,)) for _ in range(100)])
            return sim.now

        sim.run(until=sim.join(SimDriver(ex, c).drive(proto()) for c in clients))
        service = 100 * spec.method_costs("add")[0] + spec.rpc_overhead
        # 4 clients' service must stack on the single server CPU lane
        assert sim.now >= 4 * service


# ---------------------------------------------------------------------------
# every real deployment: one batch body, one counter surface
# ---------------------------------------------------------------------------

PAGE = 4 * KB


@pytest.mark.parametrize("name", ["threaded", "tcp", "aio"])
def test_closed_deployment_refuses_a_call(name):
    """A call through a closed deployment raises instead of waiting
    forever on a service thread (or a loop) that has stopped."""
    dep = BUILDERS[name](DeploymentSpec(n_data=2, n_meta=2))
    client = dep.client("late")
    blob = client.alloc(MB, PAGE)
    dep.close()
    outcome: list = []

    def call() -> None:
        try:
            client.latest(blob)
        except BaseException as exc:  # noqa: BLE001 - inspected below
            outcome.append(exc)
        else:
            outcome.append(None)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=5)
    assert outcome, "a call through a closed driver hung"
    assert isinstance(outcome[0], RuntimeError), outcome[0]
    assert "driver is closed" in str(outcome[0])


@pytest.mark.parametrize("name", ["threaded", "tcp", "aio"])
def test_closed_deployment_refuses_a_spawn(name):
    """A protocol spawned on a closed deployment fails like a call does,
    and leaves no coroutine that was never awaited."""
    dep = BUILDERS[name](DeploymentSpec(n_data=2, n_meta=2))
    dep.close()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="driver is closed"):
            dep.driver.spawn(stat_protocol("late")).result(5)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class _ClosingInbox:
    """A service thread's inbox whose first ``put`` lets a concurrent
    ``close()`` finish first: the submission lands behind the shutdown of
    a service thread that has already exited."""

    def __init__(self, inbox, dep):
        self._inbox = inbox
        self._dep = dep
        self._raced = False

    def get(self):
        return self._inbox.get()

    def put(self, item):
        if not self._raced:
            self._raced = True
            closer = threading.Thread(target=self._dep.close)
            closer.start()
            closer.join(timeout=30)
        self._inbox.put(item)


@pytest.mark.parametrize("name", ["threaded", "tcp"])
def test_close_racing_a_call_refuses_it(name):
    """``close()`` between a batch's closed check and its submission to
    an in-parent service thread: the call raises, it does not wait on a
    service thread that stopped."""
    dep = BUILDERS[name](DeploymentSpec(n_data=2, n_meta=2))
    client = dep.client("racer")
    blob = client.alloc(MB, PAGE)
    server = dep.driver._servers["vm"]
    server.inbox = _ClosingInbox(server.inbox, dep)
    outcome: list = []

    def call() -> None:
        try:
            client.latest(blob)
        except BaseException as exc:  # noqa: BLE001 - inspected below
            outcome.append(exc)
        else:
            outcome.append(None)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=10)
    dep.close()
    assert outcome, "a call racing close() hung"
    assert isinstance(outcome[0], RuntimeError), outcome[0]
    assert "driver is closed" in str(outcome[0])


def test_real_drivers_count_a_serial_workload_alike():
    """The same serial workload leaves equal ``transport_stats()`` deltas
    and RTT histograms for the same destination kinds on every real
    deployment: one counter surface, whatever waits for the batch."""
    deltas, kinds = {}, {}
    for name in ("threaded", "tcp", "aio", "tcp-remote"):
        with BUILDERS[name](DeploymentSpec(n_data=2, n_meta=2)) as dep:
            client = dep.client("serial")
            before = dep.transport_stats()
            blob = client.alloc(MB, PAGE)
            for i in range(5):
                client.write(blob, bytes([i + 1]) * (2 * PAGE), i * PAGE)
                client.read_bytes(blob, 0, 4 * PAGE)
            after = dep.transport_stats()
            deltas[name] = {k: after[k] - before[k] for k in after}
            kinds[name] = sorted(dep.driver.caller_rtt())
    assert all(d == deltas["threaded"] for d in deltas.values()), deltas
    assert all(k == kinds["threaded"] for k in kinds.values()), kinds
    stats = deltas["threaded"]
    assert stats["completion_wakeups"] == stats["batches"] > 0
    assert stats["sub_calls"] > stats["queue_submissions"] > stats["batches"]


def _stats(*dests):
    """One parallel batch of ``<kind>.stats`` calls, errors delivered."""
    results = yield Batch(
        [Call(d, f"{d[0]}.stats", allow_error=True) for d in dests]
    )
    return results


def _wait_peer_down(dep, address, timeout=5.0):
    deadline = time.monotonic() + timeout
    while dep.driver.peer_status()[address] == "connected":
        assert time.monotonic() < deadline, f"{address} never went down"
        time.sleep(0.01)


@pytest.mark.parametrize("name", list(BUILDERS))
def test_fault_surface_contract(name):
    """Every deployment's driver is a :class:`Driver` and answers its
    contract: ``call``, ``server_stats``, ``transport_stats`` (``None``
    exactly where no caller-side transport exists) and ``close``.
    ``fail`` / ``heal`` mean one thing on every driver: a failed
    address answers ``PeerUnavailable`` in its own result slots (the
    rest of the batch is served), a batch to failed addresses only
    returns, the scrape keeps it as ``down``, ``server_stats`` raises
    its ``PeerUnavailable``, ``heal`` restores service and an
    unregistered address is a ``KeyError``. On tcp, a failed group
    counts exactly as a killed agent's group does, and a scrape keeps
    every actor the killed agent did not host."""
    with BUILDERS[name](DeploymentSpec(n_data=2, n_meta=2)) as dep:
        assert isinstance(dep.driver, Driver)
        assert dep.driver.call(("data", 0), "data.stats")["provider_id"] == 0
        no_transport = name in ("inproc", "simulated")
        assert (dep.transport_stats() is None) == no_transport
        _fault_surface_contract(name, dep)
        dep.driver.close()


def _fault_surface_contract(name, dep):
    def run(proto):
        if name == "inproc":
            return dep.driver.run(proto)
        return dep.driver.spawn(proto).result(10)  # a hang fails the test

    live, failed = ("data", 0), ("data", 1)
    dep.driver.fail(failed)
    error, value = run(_stats(failed, live))
    assert isinstance(error, RemoteError)
    assert error.error_type == "PeerUnavailable"
    assert value["provider_id"] == 0
    dep.driver.fail(("meta", 1))
    assert [r.error_type for r in run(_stats(failed, ("meta", 1)))] == [
        "PeerUnavailable"
    ] * 2
    actors = dep.metrics()["actors"]
    assert actors["data/1"] == {"down": str(error)}
    assert "methods" in actors["data/0"]
    with pytest.raises(RemoteError, match="PeerUnavailable"):
        dep.driver.server_stats()
    dep.driver.heal(failed)
    dep.driver.heal(("meta", 1))
    assert [r["provider_id"] for r in run(_stats(failed, live))] == [1, 0]
    with pytest.raises(KeyError):
        dep.driver.fail(("data", 9))
    if name != "tcp":
        return

    def one_call():
        before = dep.transport_stats()
        (result,) = run(_stats(failed))
        after = dep.transport_stats()
        return result.error_type, {k: after[k] - before[k] for k in after}

    dep.driver.fail(failed)
    injected = one_call()
    dep.driver.heal(failed)
    dep.kill_agent(dep.agent_index_for(failed))
    _wait_peer_down(dep, failed)
    assert one_call() == injected
    _wait_peer_down(dep, ("meta", 1))  # the same agent hosted it
    metrics = dep.metrics()
    actors = metrics["actors"]
    assert actors["data/1"]["down"].startswith("PeerUnavailable: ")
    assert actors["meta/1"]["down"].startswith("PeerUnavailable: ")
    for kept in ("vm", "pm", "data/0", "meta/0"):
        assert "methods" in actors[kept]
    table = render_metrics(metrics)  # what repro.tools.metrics prints
    assert "(down)" in table and actors["data/1"]["down"] in table
