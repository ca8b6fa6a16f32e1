"""Tree-node records."""

import pytest

from repro.metadata.node import NodeKey, TreeNode
from repro.metadata.node import _restore_node
from repro.net.message import NODE_WIRE_BYTES, estimate_size
from repro.util.intervals import Interval
from tests.conftest import forged_leaf


def leaf(version=1, offset=0, size=4096):
    return TreeNode(
        key=NodeKey("b", version, offset, size), providers=(3,), write_uid="w1"
    )


def internal(version=1, offset=0, size=8192, lv=1, rv=0):
    return TreeNode(
        key=NodeKey("b", version, offset, size), left_version=lv, right_version=rv
    )


class TestNodeKey:
    def test_interval_view(self):
        assert NodeKey("b", 3, 8, 16).interval == Interval(8, 16)

    def test_hashable_and_ordered_fields(self):
        a = NodeKey("b", 1, 0, 8)
        b = NodeKey("b", 1, 0, 8)
        assert a == b and hash(a) == hash(b)


class TestTreeNode:
    def test_leaf_classification(self):
        assert leaf().is_leaf
        assert not internal().is_leaf

    def test_leaf_requires_page_reference(self):
        with pytest.raises(ValueError):
            TreeNode(key=NodeKey("b", 1, 0, 4096))

    def test_leaf_requires_write_uid(self):
        with pytest.raises(ValueError):
            TreeNode(key=NodeKey("b", 1, 0, 4096), providers=(1,))

    def test_internal_requires_both_children(self):
        with pytest.raises(ValueError):
            TreeNode(key=NodeKey("b", 1, 0, 8192), left_version=1)

    def test_internal_cannot_carry_page_ref(self):
        with pytest.raises(ValueError):
            TreeNode(
                key=NodeKey("b", 1, 0, 8192),
                left_version=1,
                right_version=1,
                providers=(1,),
                write_uid="w",
            )

    def test_child_keys(self):
        node = internal(version=5, offset=0, size=8192, lv=5, rv=2)
        lkey, rkey = node.child_keys()
        assert lkey == NodeKey("b", 5, 0, 4096)
        assert rkey == NodeKey("b", 2, 4096, 4096)

    def test_child_keys_on_leaf_rejected(self):
        with pytest.raises(ValueError):
            leaf().child_keys()

    def test_immutability(self):
        node = leaf()
        with pytest.raises(Exception):
            node.providers = (9,)  # type: ignore[misc]

    def test_wire_size_registered(self):
        assert estimate_size(leaf()) == NODE_WIRE_BYTES
        assert estimate_size(internal()) == NODE_WIRE_BYTES

    def test_replicated_leaf(self):
        node = TreeNode(
            key=NodeKey("b", 1, 0, 4096), providers=(1, 2, 3), write_uid="w"
        )
        assert node.providers == (1, 2, 3)

    def test_pickles_through_the_constructor(self):
        """A decoded node has passed ``__post_init__``: a record the
        constructor refuses cannot be smuggled in over the wire."""
        import pickle

        for node in (leaf(), internal(lv=3, rv=0)):
            assert node.__reduce__()[0] is _restore_node
            for protocol in (2, 5):
                assert pickle.loads(pickle.dumps(node, protocol)) == node
        with pytest.raises(ValueError, match="page reference"):
            pickle.loads(pickle.dumps(forged_leaf(), 5))
        with pytest.raises(ValueError, match="cannot carry a page ref"):
            pickle.loads(pickle.dumps(forged(lv=1, rv=2, providers=(3,)), 5))
        with pytest.raises(ValueError, match="must link both children"):
            pickle.loads(pickle.dumps(forged(lv=1, rv=None), 5))


def forged(lv, rv, providers=(), write_uid=None):
    """An internal node built behind the constructor's back (it pickles;
    the receiving side's restore must refuse it)."""
    node = object.__new__(TreeNode)
    fields = {"key": NodeKey("b", 1, 0, 8192), "left_version": lv,
              "right_version": rv, "providers": providers, "write_uid": write_uid}
    for field, value in fields.items():
        object.__setattr__(node, field, value)
    return node
