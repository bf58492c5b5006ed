"""Unit and property-based tests for the B+Tree."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import order_key
from repro.index.btree import BPlusTree
from repro.storage.page import RID


def test_order_minimum_enforced():
    with pytest.raises(ValueError):
        BPlusTree(order=2)


def test_empty_tree_search():
    tree = BPlusTree(order=4)
    assert tree.search(10) == []
    assert 10 not in tree
    assert tree.height == 1
    assert tree.num_keys == 0


def test_insert_and_search_single_key():
    tree = BPlusTree(order=4)
    tree.insert(5, "a")
    assert tree.search(5) == ["a"]
    assert 5 in tree


def test_duplicate_keys_accumulate_payloads():
    tree = BPlusTree(order=4)
    tree.insert(5, "a")
    tree.insert(5, "b")
    assert sorted(tree.search(5)) == ["a", "b"]
    assert tree.num_keys == 1
    assert tree.num_entries == 2


def test_splits_grow_height():
    tree = BPlusTree(order=4)
    for i in range(100):
        tree.insert(i, i)
    assert tree.height >= 3
    tree.check_invariants()
    for i in range(100):
        assert tree.search(i) == [i]


def test_reverse_insert_order():
    tree = BPlusTree(order=4)
    for i in reversed(range(50)):
        tree.insert(i, i)
    tree.check_invariants()
    assert list(tree.keys()) == list(range(50))


def test_range_scan_inclusive_bounds():
    tree = BPlusTree(order=4)
    for i in range(20):
        tree.insert(i, i * 10)
    result = [(k, v) for k, v in tree.range_scan(5, 9)]
    assert [k for k, _ in result] == [5, 6, 7, 8, 9]


def test_range_scan_exclusive_bounds():
    tree = BPlusTree(order=4)
    for i in range(10):
        tree.insert(i, i)
    keys = [k for k, _ in tree.range_scan(2, 6, include_low=False, include_high=False)]
    assert keys == [3, 4, 5]


def test_range_scan_open_ended():
    tree = BPlusTree(order=4)
    for i in range(10):
        tree.insert(i, i)
    assert [k for k, _ in tree.range_scan(None, 3)] == [0, 1, 2, 3]
    assert [k for k, _ in tree.range_scan(7, None)] == [7, 8, 9]
    assert [k for k, _ in tree.range_scan()] == list(range(10))


def test_range_scan_between_keys():
    tree = BPlusTree(order=4)
    for i in [10, 20, 30, 40]:
        tree.insert(i, i)
    assert [k for k, _ in tree.range_scan(15, 35)] == [20, 30]


def test_delete_specific_payload():
    tree = BPlusTree(order=4)
    tree.insert(1, "a")
    tree.insert(1, "b")
    tree.delete(1, "a")
    assert tree.search(1) == ["b"]
    tree.delete(1, "b")
    assert tree.search(1) == []
    assert tree.num_keys == 0


def test_delete_missing_key_is_noop():
    tree = BPlusTree(order=4)
    tree.insert(1, "a")
    assert tree.delete(99) == []
    assert tree.delete(1, "zzz") == []
    assert tree.num_entries == 1


def test_insert_reports_modified_pages():
    tree = BPlusTree(order=4)
    modified = tree.insert(1, "a")
    assert modified  # at least the root/leaf page


def test_string_keys():
    tree = BPlusTree(order=4)
    for word in ["delta", "alpha", "charlie", "bravo", "echo"]:
        tree.insert(word, word.upper())
    assert list(tree.keys()) == ["alpha", "bravo", "charlie", "delta", "echo"]
    assert tree.search("charlie") == ["CHARLIE"]


def test_tuple_keys_for_composite_indexes():
    tree = BPlusTree(order=4)
    tree.insert((1, "b"), "x")
    tree.insert((1, "a"), "y")
    tree.insert((0, "z"), "w")
    assert list(tree.keys()) == [(0, "z"), (1, "a"), (1, "b")]


@given(st.lists(st.integers(min_value=-10_000, max_value=10_000), max_size=400))
@settings(max_examples=60, deadline=None)
def test_property_tree_matches_sorted_dict(values):
    """The tree behaves like a sorted multimap regardless of insert order."""
    tree = BPlusTree(order=6)
    reference: dict[int, list[int]] = {}
    for position, value in enumerate(values):
        tree.insert(value, position)
        reference.setdefault(value, []).append(position)
    tree.check_invariants()
    assert list(tree.keys()) == sorted(reference)
    for key, payloads in reference.items():
        assert sorted(tree.search(key)) == sorted(payloads)
    assert tree.num_entries == len(values)


@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_property_deletions_preserve_invariants(values, data):
    tree = BPlusTree(order=6)
    reference: dict[int, list[int]] = {}
    for position, value in enumerate(values):
        tree.insert(value, position)
        reference.setdefault(value, []).append(position)

    to_delete = data.draw(
        st.lists(st.sampled_from(sorted(reference)), max_size=len(values))
    )
    for key in to_delete:
        if reference.get(key):
            payload = reference[key].pop()
            assert tree.delete(key, payload)
            if not reference[key]:
                del reference[key]
    tree.check_invariants()
    assert list(tree.keys()) == sorted(reference)
    for key, payloads in reference.items():
        assert sorted(tree.search(key)) == sorted(payloads)


@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=200),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=40, deadline=None)
def test_property_range_scan_matches_filter(values, bound_a, bound_b):
    low, high = min(bound_a, bound_b), max(bound_a, bound_b)
    tree = BPlusTree(order=6)
    for position, value in enumerate(values):
        tree.insert(value, position)
    scanned = [key for key, _ in tree.range_scan(low, high)]
    expected = sorted({v for v in values if low <= v <= high})
    assert scanned == expected


class ScanRoutedTree(BPlusTree):
    """The descent the tree had before bisection: a left-to-right separator scan."""

    @staticmethod
    def _child_index(node, key):
        idx = 0
        while idx < len(node.keys) and key >= node.keys[idx]:
            idx += 1
        return idx


def node_dump(node):
    """A node and its subtree: page numbers, keys, payloads, children, leaf links."""
    return (
        node.leaf,
        node.page_no,
        list(node.keys),
        [list(values) for values in node.values],
        [node_dump(child) for child in node.children],
        None if node.next_leaf is None else node.next_leaf.page_no,
    )


def tree_key(value, tuples):
    """What a secondary index files ``value`` under: its order key (NULL and
    NaN are sentinels), alone or as the dense ``(value, RID)``."""
    if not tuples:
        return order_key(value)
    if isinstance(value, int):
        return (value // 8, RID(value % 8, value % 3))
    return (order_key(value), RID(0, 0))


@given(
    order=st.integers(4, 9),
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "delete"]),
            st.one_of(st.integers(-60, 60), st.sampled_from([None, math.nan])),
        ),
        max_size=300,
    ),
    tuples=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_bisect_descent_builds_the_scan_routed_tree_node_for_node(order, operations, tuples):
    """Same splits, same page numbers, same modified-page lists, per operation."""
    bisected, scanned = BPlusTree(order=order), ScanRoutedTree(order=order)
    for position, (operation, value) in enumerate(operations):
        key = tree_key(value, tuples)
        if operation == "insert":
            assert bisected.insert(key, position) == scanned.insert(key, position)
        else:
            assert bisected.delete(key) == scanned.delete(key)
        assert bisected.search(key) == scanned.search(key)
    assert node_dump(bisected.root) == node_dump(scanned.root)
    assert bisected.num_keys == scanned.num_keys
    assert bisected.num_entries == scanned.num_entries
    bisected.check_invariants()
