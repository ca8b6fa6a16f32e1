"""Write-subtree construction and weaving."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadata.build import border_intervals, count_write_nodes, plan_write_tree
from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.tree import TreeGeometry
from repro.util.intervals import Interval
from repro.util.sizes import KB, MB

GEOM = TreeGeometry(64 * KB, 4 * KB)  # depth 4, 16 pages


def groups(n):
    return [(0,)] * n


def refs_for(patch, version=2, value=1):
    return {(iv.offset, iv.size): value for iv in border_intervals(GEOM, patch)}


class TestPlanWriteTree:
    def test_full_blob_write_is_complete_tree(self):
        patch = Interval(0, 64 * KB)
        nodes = plan_write_tree(GEOM, "b", 1, patch, {}, groups(16), "w1")
        assert len(nodes) == 31  # complete binary tree over 16 leaves
        assert nodes[0].key == NodeKey("b", 1, 0, 64 * KB)
        leaves = [n for n in nodes if n.is_leaf]
        assert len(leaves) == 16

    def test_single_page_write_is_one_path(self):
        patch = Interval(0, 4 * KB)
        nodes = plan_write_tree(GEOM, "b", 2, patch, refs_for(patch), groups(1), "w")
        assert len(nodes) == GEOM.depth + 1  # root..leaf path
        internal = [n for n in nodes if not n.is_leaf]
        # every internal node on the path references version 2 on the
        # patched side and the border version on the other
        for node in internal:
            assert {node.left_version, node.right_version} <= {1, 2}

    def test_root_always_included(self):
        patch = Interval(60 * KB, 4 * KB)  # last page only
        nodes = plan_write_tree(GEOM, "b", 2, patch, refs_for(patch), groups(1), "w")
        assert nodes[0].interval == GEOM.root

    def test_node_count_closed_form(self):
        for patch in (
            Interval(0, 4 * KB),
            Interval(8 * KB, 16 * KB),
            Interval(4 * KB, 8 * KB),
            Interval(0, 64 * KB),
        ):
            nodes = plan_write_tree(
                GEOM, "b", 2, patch, refs_for(patch),
                groups(patch.size // (4 * KB)), "w",
            )
            assert len(nodes) == count_write_nodes(GEOM, patch)

    def test_leaf_payloads(self):
        patch = Interval(8 * KB, 8 * KB)
        provider_groups = [(3,), (7,)]
        nodes = plan_write_tree(GEOM, "b", 5, patch, refs_for(patch, 5), provider_groups, "w9")
        leaves = sorted(
            (n for n in nodes if n.is_leaf), key=lambda n: n.key.offset
        )
        assert [l.providers for l in leaves] == [(3,), (7,)]
        assert all(l.write_uid == "w9" for l in leaves)
        assert [l.key.offset for l in leaves] == [8 * KB, 12 * KB]

    def test_missing_border_ref_rejected(self):
        patch = Interval(0, 4 * KB)
        with pytest.raises(KeyError, match="missing border reference"):
            plan_write_tree(GEOM, "b", 2, patch, {}, groups(1), "w")

    def test_future_border_ref_rejected(self):
        patch = Interval(0, 4 * KB)
        bad = refs_for(patch, value=2)  # >= version
        with pytest.raises(ValueError, match="expected < 2"):
            plan_write_tree(GEOM, "b", 2, patch, bad, groups(1), "w")

    def test_wrong_group_count_rejected(self):
        patch = Interval(0, 8 * KB)
        with pytest.raises(ValueError, match="provider"):
            plan_write_tree(GEOM, "b", 1, patch, refs_for(patch), groups(1), "w")

    def test_unaligned_patch_rejected(self):
        with pytest.raises(Exception):
            plan_write_tree(
                GEOM, "b", 1, Interval(100, 4 * KB), {}, groups(1), "w"
            )

    def test_dfs_order_root_first(self):
        patch = Interval(0, 16 * KB)
        nodes = plan_write_tree(GEOM, "b", 1, patch, refs_for(patch, 1, 0), groups(4), "w")
        seen = set()
        for node in nodes:
            if node.interval != GEOM.root:
                assert GEOM.parent(node.interval) in seen
            seen.add(node.interval)


class TestBorderIntervals:
    def test_full_write_has_no_borders(self):
        assert border_intervals(GEOM, Interval(0, 64 * KB)) == []

    def test_first_page_borders(self):
        borders = border_intervals(GEOM, Interval(0, 4 * KB))
        # one sibling per level: depth siblings
        assert len(borders) == GEOM.depth
        assert Interval(32 * KB, 32 * KB) in borders
        assert Interval(4 * KB, 4 * KB) in borders

    def test_borders_disjoint_from_patch(self):
        patch = Interval(16 * KB, 16 * KB)
        for iv in border_intervals(GEOM, patch):
            assert not iv.intersects(patch)

    @settings(max_examples=60)
    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=1, max_value=16),
    )
    def test_borders_union_covers_complement(self, first, npages):
        npages = min(npages, 16 - first)
        if npages == 0:
            return
        patch = Interval(first * 4 * KB, npages * 4 * KB)
        borders = border_intervals(GEOM, patch)
        # borders are disjoint and their union is exactly root \ patch
        total = sum(iv.size for iv in borders)
        assert total == GEOM.total_size - patch.size
        for a in borders:
            for b in borders:
                if a != b:
                    assert not a.intersects(b)

    @settings(max_examples=60)
    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=1, max_value=16),
    )
    def test_plan_consumes_exactly_borders(self, first, npages):
        """plan_write_tree uses exactly the border_intervals key set."""
        npages = min(npages, 16 - first)
        if npages == 0:
            return
        patch = Interval(first * 4 * KB, npages * 4 * KB)
        consumed: set = set()

        class Tracker(dict):
            def __getitem__(self, key):
                consumed.add(key)
                return 0

            def __missing__(self, key):  # pragma: no cover
                raise KeyError(key)

        refs = Tracker(refs_for(patch, value=0))
        plan_write_tree(GEOM, "b", 1, patch, refs, groups(npages), "w")
        assert consumed == set(refs_for(patch))


def reference_plan(geom, blob_id, version, patch, border_refs, page_providers, write_uid):
    """The weave as it was, on :class:`Interval` rows and refs keyed by
    :class:`Interval`, nodes built by the dataclass constructor."""
    patch = geom.check_aligned(patch.offset, patch.size)
    first_page = patch.offset // geom.pagesize

    def ref(iv):
        try:
            value = border_refs[iv]
        except KeyError:
            raise KeyError(
                f"missing border reference for interval {iv} (write version {version})"
            ) from None
        if not 0 <= value < version:
            raise ValueError(
                f"border reference for {iv} is version {value}, expected < {version}"
            )
        return value

    nodes = []
    stack = [geom.root]
    while stack:
        iv = stack.pop()
        key = NodeKey(blob_id, version, iv.offset, iv.size)
        if geom.is_leaf(iv):
            providers = tuple(page_providers[geom.page_index(iv) - first_page])
            nodes.append(TreeNode(key=key, providers=providers, write_uid=write_uid))
            continue
        left, right = geom.children(iv)
        left_in, right_in = left.intersects(patch), right.intersects(patch)
        nodes.append(TreeNode(
            key=key,
            left_version=version if left_in else ref(left),
            right_version=version if right_in else ref(right),
        ))
        if right_in:
            stack.append(right)
        if left_in:
            stack.append(left)
    return nodes


@st.composite
def weave_cases(draw):
    pagesize = 1 << draw(st.integers(0, 12))
    geom = TreeGeometry(pagesize << draw(st.integers(0, 10)), pagesize)
    first = draw(st.integers(0, geom.page_count - 1))
    npages = draw(st.integers(1, min(geom.page_count - first, 64)))
    patch = Interval(first * pagesize, npages * pagesize)
    version = draw(st.integers(1, 1 << 40))
    borders = border_intervals(geom, patch)
    values = draw(st.lists(st.integers(0, version - 1), min_size=len(borders),
                           max_size=len(borders)))
    groups = draw(st.lists(st.tuples(st.integers(0, 99)), min_size=npages,
                           max_size=npages))
    return geom, version, patch, dict(zip(borders, values)), groups


@settings(max_examples=300, deadline=None)
@given(weave_cases(), st.sampled_from(["ok", "missing", "future"]))
def test_the_int_weave_mints_what_the_interval_weave_did(case, refs_kind):
    geom, version, patch, refs, groups = case
    int_refs = {(iv.offset, iv.size): value for iv, value in refs.items()}
    if refs_kind != "ok" and refs:
        victim = sorted(refs, key=lambda iv: (iv.offset, iv.size))[len(refs) // 2]
        if refs_kind == "missing":
            del refs[victim]
            del int_refs[(victim.offset, victim.size)]
        else:
            refs[victim] = int_refs[(victim.offset, victim.size)] = version
    try:
        expected = reference_plan(geom, "b", version, patch, refs, groups, "w")
    except (KeyError, ValueError) as error:
        with pytest.raises(type(error)) as raised:
            plan_write_tree(geom, "b", version, patch, int_refs, groups, "w")
        assert str(raised.value) == str(error)
        return
    nodes = plan_write_tree(geom, "b", version, patch, int_refs, groups, "w")
    assert nodes == expected
    for node, want in zip(nodes, expected):
        assert type(node.key) is NodeKey
        assert (node.key, node.left_version, node.right_version, node.providers,
                node.write_uid) == (want.key, want.left_version, want.right_version,
                                    want.providers, want.write_uid)
