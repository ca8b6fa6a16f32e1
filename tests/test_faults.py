"""Failure injection and replica fail-over.

The paper defers full fault tolerance to future work but relies on the
DHT's replication for metadata; we implement page and metadata-node
replication (``DeploymentSpec.replication``) and verify that reads
survive provider failures up to replication-1 failures. Faults are
injected at the driver (``driver.fail`` / ``driver.heal``), so the same
tests run on every real driver.
"""

import pytest

from repro.core.config import DeploymentSpec
from repro.deploy.inproc import build_inproc
from repro.deploy.simulated import SimDeployment
from repro.errors import RemoteError
from tests.conftest import BUILDERS, SMALL_PAGE, SMALL_TOTAL, pages


def make(replication=2, n=4):
    dep = build_inproc(
        DeploymentSpec(n_data=n, n_meta=n, replication=replication)
    )
    client = dep.client()
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    return dep, client, blob


@pytest.fixture(scope="module", params=["inproc", "threaded", "tcp", "aio"])
def deployments(request):
    """One driver's deployments, built on first use per spec and shared
    by the fail-over tests on that driver (each writes its own blob)."""
    built = {}

    def deployment(replication, n):
        if (replication, n) not in built:
            built[replication, n] = BUILDERS[request.param](
                DeploymentSpec(n_data=n, n_meta=n, replication=replication)
            )
        return built[replication, n]

    yield deployment
    for dep in built.values():
        dep.close()


@pytest.fixture
def build(deployments):
    """``make`` on each real driver; what a test failed is healed after."""
    used = []

    def make_on(replication=2, n=4):
        dep = deployments(replication, n)
        used.append(dep)
        client = dep.client()
        return dep, client, client.alloc(SMALL_TOTAL, SMALL_PAGE)

    yield make_on
    for dep in used:
        for address in dep.driver.addresses():
            dep.driver.heal(address)


def assert_peer_unavailable(read):
    with pytest.raises(RemoteError) as err:
        read()
    assert err.value.error_type == "PeerUnavailable"


class TestReadFailover:
    def test_read_survives_one_data_provider_crash(self, build):
        dep, client, blob = build(replication=2)
        client.write(blob, pages(8, b"R"), 0)
        dep.driver.fail(("data", 1))
        got = client.read_bytes(blob, 0, 8 * SMALL_PAGE, version=1)
        assert got == pages(8, b"R")

    def test_read_survives_metadata_provider_crash(self, build):
        dep, client, blob = build(replication=2)
        client.write(blob, pages(8, b"M"), 0)
        dep.driver.fail(("meta", 2))
        fresh = dep.client("fresh")  # empty cache: must hit providers
        got = fresh.read_bytes(blob, 0, 8 * SMALL_PAGE, version=1)
        assert got == pages(8, b"M")

    def test_read_survives_combined_crashes(self, build):
        dep, client, blob = build(replication=3, n=6)
        client.write(blob, pages(8, b"C"), 0)
        for address in (("data", 0), ("meta", 1), ("data", 3), ("meta", 4)):
            dep.driver.fail(address)
        fresh = dep.client("fresh")
        assert fresh.read_bytes(blob, 0, 8 * SMALL_PAGE, version=1) == pages(8, b"C")

    def test_too_many_crashes_fail_loudly(self, build):
        dep, client, blob = build(replication=2)
        client.write(blob, pages(4, b"x"), 0)
        # find both replicas of some page and fail them
        held = {
            i: [key for key, _ in dp.iter_pages(blob)] for i, dp in dep.data.items()
        }
        page_key = next(keys[0] for keys in held.values() if keys)
        owners = [i for i, keys in held.items() if page_key in keys]
        assert len(owners) == 2
        for i in owners:
            dep.driver.fail(("data", i))
        fresh = dep.client("fresh")
        assert_peer_unavailable(
            lambda: fresh.read_bytes(blob, 0, 4 * SMALL_PAGE, version=1)
        )

    def test_recovery_restores_service(self, build):
        dep, client, blob = build(replication=1)
        client.write(blob, pages(2, b"v"), 0)
        for i in dep.data:
            dep.driver.fail(("data", i))
        fresh = dep.client("fresh")
        assert_peer_unavailable(
            lambda: fresh.read_bytes(blob, 0, SMALL_PAGE, version=1)
        )
        for i in dep.data:
            dep.driver.heal(("data", i))
        assert fresh.read_bytes(blob, 0, SMALL_PAGE, version=1) == pages(1, b"v")


def test_simulated_failover_read_keeps_its_duration():
    """A replicated simulated read with ``data/1`` and ``meta/2`` failed
    fails over at the cost it had when those providers were crashed
    inside the actors. The constants were measured on this scenario at
    commit a205ea1, with ``dep.data[1].crash()`` / ``dep.meta[2].crash()``
    in place of the two ``driver.fail`` calls; the duration was measured
    again when a reader with no cache started receiving only the leaves of
    its subtree walk (no reply CPU for the walk's 14 inner nodes)."""
    dep = SimDeployment(DeploymentSpec(n_data=4, n_meta=4, replication=2))
    client = dep.client(cached=False)
    blob = client.alloc(SMALL_TOTAL, SMALL_PAGE)
    client.write_virtual(blob, 0, 8 * SMALL_PAGE)
    dep.driver.fail(("data", 1))
    dep.driver.fail(("meta", 2))
    start = dep.now
    client.read_virtual(blob, 0, 8 * SMALL_PAGE)
    duration = dep.now - start
    assert duration == 0.003950451610438827
    assert (dep.executor.wire_rpcs, dep.executor.sub_calls) == (17, 34)


class TestWriteFaults:
    def test_write_fails_when_chosen_provider_down(self):
        dep, client, blob = make(replication=1)
        dep.driver.fail(("data", 0))
        # round robin will hit provider 0 for one of these pages
        assert_peer_unavailable(lambda: client.write(blob, pages(4, b"w"), 0))

    def test_crashed_writer_blocks_publication(self):
        """A writer that got a version but died blocks later publication
        (the liveness hazard the paper leaves to future work); abandon
        only applies while the dead writer is the *newest* assignment —
        once later versions exist, the rollback is correctly refused."""
        from repro.errors import StaleWrite

        dep, client, blob = make()
        # simulate a crashed writer: assign without completing
        ticket = dep.vm.assign(blob, 0, SMALL_PAGE)
        res = client.write(blob, pages(1, b"k"), SMALL_PAGE)
        assert res.version == 2
        assert not res.published  # stuck behind the dead writer
        assert client.latest(blob) == 0
        with pytest.raises(StaleWrite):
            dep.vm.abandon(blob, ticket.version)
        assert client.latest(blob) == 0

    def test_replicated_writes_place_page_copies(self):
        dep, client, blob = make(replication=3, n=6)
        client.write(blob, pages(2, b"r"), 0)
        total_copies = sum(dp.page_count for dp in dep.data.values())
        assert total_copies == 2 * 3

    def test_not_enough_providers_for_replication(self):
        with pytest.raises(Exception):
            build_inproc(DeploymentSpec(n_data=2, n_meta=2, replication=3))

    def test_provider_join_expands_capacity(self):
        dep, client, blob = make(replication=1, n=2)
        new_id = dep.add_data_provider()
        assert new_id == 2
        client.write(blob, pages(3, b"j"), 0)
        assert dep.data[2].page_count == 1  # round robin reached it
        assert client.read_bytes(blob, 0, 3 * SMALL_PAGE) == pages(3, b"j")


class TestAbandonEndToEnd:
    def test_abandon_last_writer_restores_liveness(self):
        dep, client, blob = make()
        ticket = dep.vm.assign(blob, 0, SMALL_PAGE)  # dead writer (newest)
        dep.vm.abandon(blob, ticket.version)
        res = client.write(blob, pages(1, b"L"), 0)
        assert res.version == ticket.version  # slot reused
        assert res.published
        assert client.read_bytes(blob, 0, 4) == b"LLLL"
