"""Metadata provider store, router dispersal, and the client cache."""

import importlib
import re
from collections import OrderedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.errors import ImmutabilityViolation, NodeMissing
from repro.metadata.cache import MetadataCache
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.provider import MetadataProvider
from repro.metadata.router import StaticRouter, _digest


def node(version=1, offset=0, size=4096, blob="b"):
    return TreeNode(
        key=NodeKey(blob, version, offset, size), providers=(0,), write_uid="w"
    )


class TestMetadataProvider:
    def test_put_get_roundtrip(self):
        mp = MetadataProvider(0)
        n = node()
        mp.put_node(n)
        assert mp.get_node(n.key) == n
        assert mp.node_count == 1

    def test_missing_node(self):
        with pytest.raises(NodeMissing):
            MetadataProvider(0).get_node(NodeKey("b", 1, 0, 4096))

    def test_write_once_idempotent_identical(self):
        mp = MetadataProvider(0)
        n = node()
        mp.put_node(n)
        assert mp.put_node(n) is True  # replica retry is fine
        assert mp.puts == 1

    def test_write_once_conflict_rejected(self):
        mp = MetadataProvider(0)
        mp.put_node(node())
        conflicting = TreeNode(
            key=NodeKey("b", 1, 0, 4096), providers=(9,), write_uid="other"
        )
        with pytest.raises(ImmutabilityViolation):
            mp.put_node(conflicting)

    def test_free_and_list(self):
        mp = MetadataProvider(0)
        n1, n2 = node(version=1), node(version=2)
        mp.put_node(n1)
        mp.put_node(n2)
        mp.put_node(node(blob="other"))
        assert set(mp.list_nodes("b")) == {n1.key, n2.key}
        assert mp.free_nodes([n1.key, NodeKey("b", 99, 0, 4096)]) == 1
        assert mp.node_count == 2

    def test_iter_nodes_matches_list_nodes(self):
        mp = MetadataProvider(0)
        n1, n2 = node(version=1), node(version=2)
        mp.put_node(n1)
        mp.put_node(n2)
        mp.put_node(node(blob="other"))
        assert {n.key for n in mp.iter_nodes("b")} == set(mp.list_nodes("b"))

    def test_put_nodes_stores_a_batch_and_replays_idempotently(self):
        mp = MetadataProvider(0)
        batch = [node(version=v) for v in (1, 2, 3)]
        assert mp.put_nodes(batch) is True
        assert (mp.puts, mp.put_batches, mp.node_count) == (3, 1, 3)
        # a replica retry of the same shard, one node of it fresh: only the
        # fresh node counts in puts
        assert mp.put_nodes(batch + [node(version=4)]) is True
        assert (mp.puts, mp.put_batches, mp.node_count) == (4, 2, 4)
        assert mp.get_node(batch[1].key) == batch[1]

    def test_put_nodes_is_all_or_nothing(self):
        mp = MetadataProvider(0)
        mp.put_node(node(version=2))
        conflicting = TreeNode(
            key=NodeKey("b", 2, 0, 4096), providers=(9,), write_uid="other"
        )
        for bad, error in (
            ([node(version=1), conflicting, node(version=3)], ImmutabilityViolation),
            # two different records for one key inside the batch itself
            ([node(version=5), TreeNode(NodeKey("b", 5, 0, 4096), providers=(9,),
                                        write_uid="other")], ImmutabilityViolation),
            ([node(version=1), "not-a-node"], ValueError),
            ((node(version=1),), ValueError),  # not a list
            (node(version=1), ValueError),
        ):
            with pytest.raises(error):
                mp.put_nodes(bad)
            assert (mp.puts, mp.put_batches, mp.node_count) == (1, 0, 1)
            assert not mp.has_node(NodeKey("b", 1, 0, 4096))

    def test_rpc_dispatch(self):
        mp = MetadataProvider(0)
        n = node()
        assert mp.handle("meta.put_nodes", ([node(version=2)],)) is True
        assert mp.handle("meta.stats", ())["put_batches"] == 1
        assert mp.handle("meta.put_node", (n,)) is True
        assert mp.handle("meta.get_node", (n.key,)) == n
        assert mp.handle("meta.stats", ())["nodes"] == 2
        for method in ("meta.nope", "meta.crash"):
            with pytest.raises(ValueError, match="metadata provider: unknown method"):
                mp.handle(method, ())
        assert mp.handle("meta.get_node", (n.key,)) == n  # not crashed


class TestStaticRouter:
    def test_deterministic(self):
        r = StaticRouter([0, 1, 2, 3])
        k = NodeKey("b", 1, 0, 4096)
        assert r.primary(k) == r.primary(k)
        assert r.route(k) == r.route(k)

    def test_replicas_distinct_successors(self):
        r = StaticRouter([0, 1, 2, 3], replication=3)
        owners = r.route(NodeKey("b", 1, 0, 4096))
        assert len(set(owners)) == 3
        ids = [o[1] for o in owners]
        # successors on the id ring
        start = ids[0]
        assert ids == [(start + i) % 4 for i in range(3)]

    #: (key, parent-commit digest): with S = 0 nothing may move — every
    #: simulated baseline hangs off these values
    PARENT_DIGESTS = [
        (NodeKey("b", 1, 0, 4096), 0xBF928D3DDE36C47A),
        (NodeKey("b", 7, 1 << 30, 1 << 20), 0x4C18DFF252656F55),
        (NodeKey("blob-1", 3, 65536, 65536), 0x65A02BB2630CC6B2),
        (NodeKey("blob-1", 1 << 40, 0, 1 << 40), 0x5DEF754EF1498760),
    ]

    def test_no_cut_reproduces_the_parent_digests(self):
        r = StaticRouter(list(range(8)), replication=2, subtree_bytes=0)
        for key, digest in self.PARENT_DIGESTS:
            assert _digest(key) == digest
            start = digest % 8
            assert r.route(key) == (("meta", start), ("meta", (start + 1) % 8))
            assert not r.colocated(key)

    def test_every_version_of_a_region_shares_owners(self):
        S = 1 << 20
        r = StaticRouter(list(range(8)), replication=2, subtree_bytes=S)
        for region in range(32):
            owners = r.route(NodeKey("b", 1, region * S, S))
            size = S
            while size >= 4096:
                for offset in range(region * S, (region + 1) * S, max(size, S // 4)):
                    for version in (1, 2, 977):
                        key = NodeKey("b", version, offset, size)
                        assert r.colocated(key)
                        assert r.route(key) == owners
                size //= 2
        # one node above the cut is routed by its own key again
        above = [NodeKey("b", v, 0, 2 * S) for v in range(40)]
        assert not any(r.colocated(k) for k in above)
        assert len({r.primary(k) for k in above}) > 4

    def test_regions_and_top_level_nodes_spread_roughly_uniformly(self):
        S = 1 << 20
        r = StaticRouter(list(range(8)), subtree_bytes=S)
        regions = {i: 0 for i in range(8)}
        top = {i: 0 for i in range(8)}
        for i in range(2000):
            regions[r.primary(NodeKey("b", 1, i * S, 4096))[1]] += 1
            top[r.primary(NodeKey("b", i, (i % 64) * 4 * S, 4 * S))[1]] += 1
        # each provider within 2x of fair share
        for counts in (regions, top):
            for c in counts.values():
                assert 100 < c < 500

    def test_route_memo_is_per_region_below_the_cut(self):
        r = StaticRouter(list(range(8)), subtree_bytes=1 << 20)
        for version in range(500):  # a WRITE mints fresh keys forever
            r.route(NodeKey("b", version, 8192, 4096))
        assert len(r._route_cache) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticRouter([])
        with pytest.raises(ValueError):
            StaticRouter([0], replication=2)
        with pytest.raises(ValueError):
            StaticRouter([0, 1], replication=0)
        with pytest.raises(ValueError):
            StaticRouter([0, 1], subtree_bytes=3 << 20)


class TestOneMetadataSubstrate:
    """``StaticRouter`` over the metadata providers is the only dispersal
    layer: no second DHT, adapter router or survey CLI beside it."""

    @pytest.mark.parametrize("module", ["repro.dht", "repro.tools.campaign"])
    def test_retired_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_no_second_substrate_names(self):
        for namespace in (repro, repro.metadata.router):
            for name in dir(namespace):
                assert not re.search("chord|dht|singleservice", name, re.I), name

    def test_router_has_no_capacity_hook(self):
        assert not hasattr(StaticRouter, "_check_capacity")


class TestMetadataCache:
    def test_put_get(self):
        cache = MetadataCache(capacity=4)
        n = node()
        cache.put(n)
        assert cache.get(n.key) == n
        assert n.key in cache
        assert len(cache) == 1

    def test_get_after_put(self):
        cache = MetadataCache(2)
        a, b = node(version=1), node(version=2)
        cache.put(a)
        assert cache.get(a.key) is a
        assert cache.get(b.key) is None

    def test_len_and_contains(self):
        cache = MetadataCache(3)
        a, b, c = (node(version=v) for v in (1, 2, 3))
        cache.put(a)
        cache.put(b)
        assert len(cache) == 2
        assert a.key in cache and b.key in cache and c.key not in cache

    def test_miss(self):
        cache = MetadataCache(4)
        assert cache.get(NodeKey("b", 1, 0, 4096)) is None
        assert len(cache) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MetadataCache(0)

    def test_update_existing(self):
        cache = MetadataCache(2)
        first = node()
        again = TreeNode(key=first.key, providers=(9,), write_uid="w")
        cache.put(first)
        cache.put(again)
        assert cache.get(first.key) is again
        assert len(cache) == 1

    def test_eviction_at_capacity(self):
        cache = MetadataCache(2)
        nodes = [node(version=v) for v in range(3)]
        for n in nodes:
            cache.put(n)
        assert len(cache) == 2
        assert cache.get(nodes[0].key) is None

    def test_eviction_bounded_by_capacity(self):
        cache = MetadataCache(2)
        nodes = [node(version=v) for v in (1, 2, 3)]
        for n in nodes:
            cache.put(n)
        assert len(cache) == 2
        assert nodes[0].key not in cache  # LRU evicted
        assert nodes[2].key in cache

    def test_lru_evicted_first(self):
        cache = MetadataCache(2)
        a, b, c = (node(version=v) for v in (1, 2, 3))
        cache.put(a)
        cache.put(b)
        cache.put(c)  # evicts a
        assert a.key not in cache
        assert cache.get(b.key) is b and cache.get(c.key) is c

    def test_get_refreshes_recency(self):
        cache = MetadataCache(2)
        a, b, c = (node(version=v) for v in (1, 2, 3))
        cache.put(a)
        cache.put(b)
        cache.get(a.key)  # a is now most recent
        cache.put(c)  # evicts b
        assert a.key in cache and b.key not in cache

    def test_put_refreshes_recency(self):
        cache = MetadataCache(2)
        a, b, c = (node(version=v) for v in (1, 2, 3))
        cache.put(a)
        cache.put(b)
        cache.put(a)
        cache.put(c)  # evicts b
        assert a.key in cache and b.key not in cache

    def test_update_existing_never_evicts(self):
        cache = MetadataCache(2)
        a, b = node(version=1), node(version=2)
        cache.put(a)
        cache.put(b)
        cache.put(a)  # refresh, not insert
        assert len(cache) == 2 and a.key in cache and b.key in cache

    def test_capacity_never_exceeded(self):
        cache = MetadataCache(5)
        nodes = [node(version=v) for v in range(100)]
        for n in nodes:
            cache.put(n)
        assert len(cache) == 5
        assert [n.key in cache for n in nodes] == [False] * 95 + [True] * 5

    def test_preload_keeps_recency_and_evicts_least_recent_first(self):
        template = MetadataCache(4)
        a, b, c = (node(version=v) for v in (1, 2, 3))
        for n in (a, b, c):
            template.put(n)
        template.get(a.key)  # recency: b, c, a
        cache = MetadataCache(2)
        cache.preload_from(template)  # overflow drops b, the least recent
        assert len(cache) == 2 and b.key not in cache
        cache.put(node(version=4))  # then c, the next least recent
        assert c.key not in cache and a.key in cache
        assert len(template) == 3  # the template is only read

    def test_clear(self):
        cache = MetadataCache(4)
        cache.put(node())
        cache.clear()
        assert len(cache) == 0

    def test_clear_forgets_entries(self):
        cache = MetadataCache(2)
        n = node()
        cache.put(n)
        cache.clear()
        assert len(cache) == 0
        assert cache.get(n.key) is None

    def test_len_contains_and_clear(self):
        cache = MetadataCache(4)
        n = node()
        cache.put(n)
        assert len(cache) == 1 and n.key in cache
        cache.clear()
        assert len(cache) == 0 and n.key not in cache

    @given(
        st.lists(
            st.tuples(st.sampled_from("pg"), st.integers(min_value=0, max_value=20)),
            max_size=200,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_model_equivalence(self, ops, capacity):
        """The cache behaves exactly like an ordered-dict reference model,
        down to its final recency order (read off by evicting it)."""
        cache = MetadataCache(capacity)
        model: OrderedDict = OrderedDict()
        for op, version in ops:
            n = node(version=version)
            if op == "p":
                if n.key in model:
                    model.move_to_end(n.key)
                elif len(model) >= capacity:
                    model.popitem(last=False)
                model[n.key] = n
                cache.put(n)
            else:
                expected = model.get(n.key)
                if n.key in model:
                    model.move_to_end(n.key)
                assert cache.get(n.key) == expected
        assert len(cache) == len(model)
        fresh = iter(range(100, 200))
        for _ in range(capacity - len(model)):
            cache.put(node(version=next(fresh)))  # fills up, evicts nothing
        for key in model:
            assert key in cache
            cache.put(node(version=next(fresh)))
            assert key not in cache  # the least recent goes first

    def test_versioned_keys_never_alias(self):
        """The coherence-for-free property: distinct versions, distinct keys."""
        cache = MetadataCache(16)
        v1 = node(version=1)
        v2 = TreeNode(
            key=NodeKey("b", 2, 0, 4096), providers=(5,), write_uid="w2"
        )
        cache.put(v1)
        cache.put(v2)
        assert cache.get(v1.key).providers == (0,)
        assert cache.get(v2.key).providers == (5,)
