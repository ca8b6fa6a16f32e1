"""Unit tests for the pm's elastic-membership machinery.

The migration state machine in isolation — hash-aware allocation, plan
computation, idempotent move accounting, the relocation table readers
fall back to — plus its WAL discipline: a pm rebuilt from its journal
mid-plan resumes with exactly the moves whose completion records did
not survive. The cross-driver end-to-end certification (join + drain on
a live TCP cluster, bit-identical to static) lives in
``test_driver_conformance.py::test_elastic_join_drain_matches_static_cluster``.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import protocol
from repro.core.client import BlobClient
from repro.core.config import DeploymentSpec
from repro.core.journal import Journal
from repro.deploy.inproc import build_inproc
from repro.errors import ConfigError, NotEnoughProviders
from repro.providers.manager import ProviderManager
from repro.providers.page import PageKey
from repro.providers.rebalance import drain_provider, execute_rebalance
from repro.providers.strategies import HashRing, key_id, node_id
from repro.util.sizes import KB, MB

PAGE = 4 * KB

#: page keys whose ``hash_ring`` homes are pinned below
GOLDEN_KEYS = [
    ("blob-0", "w0", 0),
    ("blob-0", "w0", 1),
    ("blob-0", "w1", 0),
    ("blob-0", "w1", 1),
    ("blob-0", "w2", 0),
    ("blob-0", "w2", 1),
]
GOLDEN_HOMES = [[0, 3], [1, 2], [3, 1], [2, 0], [0, 2], [1, 0]]


def page_keys(n):
    return [("blob-0", f"w{i // 16}", i % 16) for i in range(n)]


def make_pm(n=4, journal=None, replication=1):
    pm = ProviderManager(
        "hash_ring", replication=replication, journal=journal
    )
    for i in range(n):
        pm.register(i)
    return pm


class TestHashRingPlacement:
    """``hash_ring`` homes are part of the durable state (journaled
    allocations, provider manifests): any change to the hash moves pages."""

    def test_golden_homes(self):
        ring = HashRing()
        homes = [ring.place_key(k, [0, 1, 2, 3], 2) for k in GOLDEN_KEYS]
        assert homes == GOLDEN_HOMES

    def test_page_key_homes_like_its_tuple(self):
        ring = HashRing()
        for k in GOLDEN_KEYS:
            assert ring.place_key(PageKey(*k), [0, 1, 2, 3], 2) == (
                ring.place_key(k, [0, 1, 2, 3], 2)
            )

    @pytest.mark.parametrize("n", [4, 8, 16, 40])
    def test_balance(self, n):
        ring = HashRing()
        live = list(range(n))
        keys = page_keys(10_000)
        load = dict.fromkeys(live, 0)
        for k in keys:
            load[ring.place_key(k, live)[0]] += 1
        assert max(load.values()) <= 1.5 * len(keys) / n

    @pytest.mark.parametrize("n", [4, 8, 16, 40])
    def test_join_moves_only_to_newcomer(self, n):
        ring = HashRing()
        keys = page_keys(10_000)
        before = [ring.place_key(k, list(range(n)))[0] for k in keys]
        after = [ring.place_key(k, list(range(n + 1)))[0] for k in keys]
        moved = [b for a, b in zip(before, after) if a != b]
        assert set(moved) <= {n}
        assert len(moved) <= 1.5 * len(keys) / (n + 1)

    def test_ids_in_range(self):
        assert 0 <= key_id(("blob", 1)) < 1 << 160
        assert 0 <= node_id("n1") < 1 << 160

    def test_determinism(self):
        assert key_id(("a", 1)) == key_id(("a", 1))
        assert node_id("x") == node_id("x")

    def test_distinct_names_distinct_ids(self):
        assert len({node_id(f"node-{i}") for i in range(64)}) == 64
        assert len({key_id(k) for k in page_keys(64)}) == 64


class TestHashedAllocation:
    def test_placement_is_order_independent(self):
        """Unlike the cursor strategies, hash placement depends only on
        the page key and the live set — the property that makes
        membership changes computable as page moves."""
        a = make_pm()
        b = make_pm()
        b.get_providers("warmup", "w0", 0, 7)  # perturb b
        assert a.get_providers("blob", "u1", 0, 16) == (
            b.get_providers("blob", "u1", 0, 16)
        )

    def test_requires_hash_aware_strategy(self):
        pm = ProviderManager("round_robin")
        pm.register(0)
        with pytest.raises(ConfigError, match="not hash-aware"):
            pm.plan_rebalance([(0, [])])

    def test_replicated_groups_are_distinct(self):
        pm = make_pm(n=5, replication=3)
        for group in pm.get_providers("b", "u", 0, 12):
            assert len(group) == 3 and len(set(group)) == 3

    def test_not_enough_providers(self):
        pm = make_pm(n=1, replication=2)
        pm.register(1)
        pm.deregister(1)
        with pytest.raises(NotEnoughProviders):
            pm.get_providers("b", "u", 0, 1)


class TestMigrationStateMachine:
    def manifests_for(self, pm, blob="b", uid="u", npages=8):
        """Fake provider manifests matching a hashed allocation."""
        groups = pm.get_providers(blob, uid, 0, npages)
        held: dict[int, list] = {p: [] for p in pm.providers()}
        for i, group in enumerate(groups):
            for p in group:
                held[p].append(((blob, uid, i), PAGE))
        return [(p, entries) for p, entries in sorted(held.items())]

    def test_consistent_placement_plans_nothing(self):
        pm = make_pm()
        assert pm.plan_rebalance(self.manifests_for(pm)) is None

    def test_join_plans_copy_then_free_per_key(self):
        pm = make_pm()
        manifests = self.manifests_for(pm)
        pm.register(4)
        plan = pm.plan_rebalance(manifests)
        assert plan is not None and plan["done"] == 0
        # every move targets the newcomer; each copy precedes its free
        seen_copy = set()
        for _i, kind, key, src, dst, _n in plan["moves"]:
            if kind == "copy":
                assert dst == 4
                seen_copy.add(tuple(key))
            else:
                assert tuple(key) in seen_copy, "free before copy"

    def test_active_plan_is_returned_not_replaced(self):
        pm = make_pm()
        manifests = self.manifests_for(pm)
        pm.register(4)
        plan = pm.plan_rebalance(manifests)
        again = pm.plan_rebalance([(0, [])], drain=2)  # ignored args
        assert again["plan"] == plan["plan"]
        assert again["total"] == plan["total"]

    def test_done_is_idempotent_and_feeds_locate(self):
        pm = make_pm()
        manifests = self.manifests_for(pm)
        pm.register(4)
        plan = pm.plan_rebalance(manifests)
        index, kind, key, _src, _dst, _n = plan["moves"][0]
        assert kind == "copy"
        pm.migration_done(plan["plan"], index)
        pm.migration_done(plan["plan"], index)  # duplicate: no-op
        assert pm.pending_rebalance()["done"] == 1
        # the relocation table answers for the moved key (normalized:
        # PageKey and plain tuple address the same entry), () otherwise
        holders = pm.locate([PageKey(*key), tuple(key), ("b", "u", 999)])
        assert holders[0] == holders[1] != ()
        assert holders[2] == ()

    def test_commit_refuses_unfinished_plans(self):
        pm = make_pm()
        manifests = self.manifests_for(pm)
        pm.register(4)
        plan = pm.plan_rebalance(manifests)
        with pytest.raises(ConfigError, match="unfinished"):
            pm.migration_commit(plan["plan"])

    def test_drain_guards(self):
        pm = make_pm(n=2, replication=2)
        with pytest.raises(ConfigError, match="unknown provider"):
            pm.plan_rebalance([(0, []), (1, [])], drain=9)
        with pytest.raises(NotEnoughProviders):
            pm.plan_rebalance([(0, []), (1, [])], drain=1)

    def test_draining_excluded_from_fresh_allocations(self):
        pm = make_pm()
        manifests = self.manifests_for(pm)
        plan = pm.plan_rebalance(manifests, drain=2)
        assert pm.draining() == [2]
        for group in pm.get_providers("b2", "u2", 0, 16):
            assert 2 not in group
        for i, *_ in list(plan["moves"]):
            pm.migration_done(plan["plan"], i)
        pm.migration_commit(plan["plan"])
        assert pm.draining() == [2]  # until the provider deregisters
        pm.deregister(2)
        assert pm.draining() == []


class TestMigrationRecovery:
    def test_pm_rebuilt_mid_plan_resumes_with_remaining_moves(self, tmp_path):
        pm = ProviderManager("hash_ring", journal=Journal(tmp_path))
        for i in range(4):
            pm.register(i)
        helper = TestMigrationStateMachine()
        manifests = helper.manifests_for(pm)
        pm.register(4)
        plan = pm.plan_rebalance(manifests, drain=0)
        first = plan["moves"][:2]
        for i, *_ in first:
            pm.migration_done(plan["plan"], i)
        located = pm.locate([m[2] for m in first])
        pm.journal.close()  # crash

        pm2 = ProviderManager("hash_ring", journal=Journal(tmp_path))
        resumed = pm2.pending_rebalance()
        assert resumed["plan"] == plan["plan"]
        assert resumed["done"] == 2 and resumed["total"] == plan["total"]
        # the two journaled completions are not handed out again
        assert {m[0] for m in resumed["moves"]} == (
            {m[0] for m in plan["moves"]} - {m[0] for m in first}
        )
        # relocation table and drain mark survived the crash
        assert pm2.locate([m[2] for m in first]) == located
        assert pm2.draining() == [0]
        for i, *_ in resumed["moves"]:
            pm2.migration_done(resumed["plan"], i)
        pm2.migration_commit(resumed["plan"])
        assert pm2.pending_rebalance() is None


class TestExecutorEndToEnd:
    #: 256 pages: with 16, whichever write uid the process-wide counter
    #: hands out next left no page homed on the joiner for ~4 % of its
    #: values, so a join planned no move
    DATA = bytes(range(256)) * (1 * MB // 256)

    def deployment(self):
        dep = build_inproc(
            DeploymentSpec(n_data=4, n_meta=2, strategy="hash_ring")
        )
        client = dep.client("elastic")
        blob = client.alloc(len(self.DATA), PAGE)
        client.write(blob, self.DATA, 0)
        return dep, client, blob

    def placements(self, dep, blob):
        out = {
            p: sorted(
                (key, payload.as_bytes())
                for key, payload in dep.data[p].iter_pages(blob)
            )
            for p in dep.data
        }
        assert any(out.values()), "no pages found — inspection is vacuous"
        return out

    def test_interrupted_rebalance_resumes_to_hash_homes(self):
        dep, client, blob = self.deployment()
        dep.add_data_provider()
        partial = execute_rebalance(
            dep.driver, sorted(dep.data), limit_moves=1
        )
        assert partial["executed"] == 1 and not partial["committed"]
        done = execute_rebalance(dep.driver, sorted(dep.data))
        assert done["committed"] and done["plan"] == partial["plan"]
        place = HashRing().place_key
        live = sorted(dep.pm.providers())
        for pid, pages in self.placements(dep, blob).items():
            for key, _data in pages:
                assert pid in place(key, live, dep.pm.replication), (
                    f"page {key} on data/{pid}, not its hash home"
                )
        assert client.read_bytes(blob, 0, len(self.DATA)) == self.DATA

    def test_drain_restores_pre_join_placement(self):
        dep, client, blob = self.deployment()
        before = self.placements(dep, blob)
        new_id = dep.add_data_provider()
        execute_rebalance(dep.driver, sorted(dep.data))
        summary = drain_provider(dep.driver, sorted(dep.data), new_id)
        assert summary["committed"]
        assert new_id not in dep.pm.providers()
        del dep.data[new_id]
        after = self.placements(dep, blob)
        assert after == before  # deterministic placement, bit-identical
        assert client.read_bytes(blob, 0, len(self.DATA)) == self.DATA


@pytest.mark.parametrize(
    "make_client",
    [
        pytest.param(lambda dep: dep.client("mover"), id="dep.client"),
        pytest.param(
            lambda dep: BlobClient(dep.driver, dep.router, name="mover"),
            id="BlobClient",
        ),
    ],
)
def test_any_client_survives_a_rebalance(make_client, monkeypatch):
    """The pm alone places pages: a client built straight from the
    driver writes to the same hash homes as the deployment's own client,
    so the joiner's rebalance moves the same pages and the READ finds
    them. Each write uid is pinned, so both clients write the same keys
    and the ring fixes the move count: one copy and one free per page
    whose home changes."""
    monkeypatch.setattr(protocol, "_uid_counter", itertools.count(1))
    dep = build_inproc(DeploymentSpec(n_data=3, n_meta=2, strategy="hash_ring"))
    client = make_client(dep)
    blob = client.alloc(64 * KB, PAGE)
    data = bytes(range(256)) * 256  # 16 pages
    client.write(blob, data, 0)
    new_id = dep.add_data_provider()
    summary = execute_rebalance(dep.driver, sorted(dep.data))
    assert summary["committed"]
    ring = HashRing()
    keys = [(blob, "mover#1", i) for i in range(16)]
    moved = [
        k for k in keys
        if ring.place_key(k, [0, 1, 2]) != ring.place_key(k, [0, 1, 2, new_id])
    ]
    assert moved, "no page changes home: the move count shows nothing"
    assert summary["executed"] == 2 * len(moved)
    assert client.read_bytes(blob, 0, len(data)) == data
