"""A B+Tree supporting duplicate keys, range scans and page accounting.

This is the structure behind both the clustered index and conventional
secondary indexes in the reproduction.  Leaves store, for every key, the list
of payloads inserted under it (record identifiers for secondary indexes).
Each node is assigned a page number so that higher layers can charge
buffer-pool traffic for root-to-leaf traversals and for the leaf pages dirtied
by maintenance -- the mechanism that makes many large B+Trees expensive to
maintain in the paper's Experiment 3.

Deletion is implemented lazily (entries are removed, keys with no remaining
entries are dropped from their leaf, but nodes are not rebalanced).  This
matches the behaviour of PostgreSQL's nbtree, which also leaves underfull
pages in place, and preserves all search invariants.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterator

DEFAULT_ORDER = 64


@dataclass(eq=False)
class _Node:
    leaf: bool
    page_no: int
    keys: list[Any] = field(default_factory=list)
    #: Internal nodes: child pointers (len == len(keys) + 1).
    children: list["_Node"] = field(default_factory=list)
    #: Leaf nodes: one payload list per key.
    values: list[list[Any]] = field(default_factory=list)
    next_leaf: "_Node | None" = None


class BPlusTree:
    """An order-``order`` B+Tree mapping keys to lists of payloads.

    Parameters
    ----------
    order:
        Maximum number of keys per node.  The fanout determines the height
        (``btree_height`` in the paper's cost model) and the number of leaf
        pages the index occupies.
    name:
        File name used when charging node accesses to a buffer pool.
    """

    def __init__(self, order: int = DEFAULT_ORDER, *, name: str = "btree") -> None:
        if order < 4:
            raise ValueError("B+Tree order must be at least 4")
        self.order = order
        self.name = name
        self._next_page_no = 0
        self.root: _Node = self._new_node(leaf=True)
        self._num_keys = 0
        self._num_entries = 0

    # -- node management -----------------------------------------------------

    def _new_node(self, *, leaf: bool) -> _Node:
        node = _Node(leaf=leaf, page_no=self._next_page_no)
        self._next_page_no += 1
        return node

    # -- basic properties ----------------------------------------------------

    @property
    def num_keys(self) -> int:
        """Number of distinct keys currently stored."""
        return self._num_keys

    @property
    def num_entries(self) -> int:
        """Total number of (key, payload) entries, counting duplicates."""
        return self._num_entries

    @property
    def height(self) -> int:
        """Number of levels from root to leaf (1 for a single-leaf tree)."""
        height = 1
        node = self.root
        while not node.leaf:
            node = node.children[0]
            height += 1
        return height

    @property
    def num_nodes(self) -> int:
        return sum(1 for _ in self._walk_nodes())

    def _walk_nodes(self) -> Iterator[_Node]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.leaf:
                stack.extend(node.children)

    # -- search ----------------------------------------------------------------

    def _find_leaf(self, key: Any) -> tuple[_Node, list[_Node]]:
        """Return the leaf that would hold ``key`` and the root-to-leaf path."""
        node = self.root
        path = [node]
        while not node.leaf:
            idx = self._child_index(node, key)
            node = node.children[idx]
            path.append(node)
        return node, path

    @staticmethod
    def _child_index(node: _Node, key: Any) -> int:
        """The child of an internal node that covers ``key``.

        The number of separators ``<= key``: ``bisect_right`` over the
        sorted separators, the very child a left-to-right scan for the
        first separator above ``key`` stops at, in log2(fanout) compares.
        """
        return bisect.bisect_right(node.keys, key)

    def search(self, key: Any) -> list[Any]:
        """Return the payload list for ``key`` (empty if absent)."""
        leaf, _path = self._find_leaf(key)
        idx = self._leaf_index(leaf, key)
        if idx is None:
            return []
        return list(leaf.values[idx])

    @staticmethod
    def _leaf_index(leaf: _Node, key: Any) -> int | None:
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return idx
        return None

    def __contains__(self, key: Any) -> bool:
        return bool(self.search(key))

    # -- range scans -----------------------------------------------------------

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, list[Any]]]:
        """Yield ``(key, payloads)`` for keys in ``[low, high]`` in key order.

        ``None`` bounds are open (scan from the first / to the last key).
        """
        if low is None:
            leaf = self._leftmost_leaf()
            idx = 0
        else:
            leaf, _ = self._find_leaf(low)
            idx = bisect.bisect_left(leaf.keys, low)
            if not include_low:
                while idx < len(leaf.keys) and leaf.keys[idx] == low:
                    idx += 1
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if high is not None:
                    if key > high or (not include_high and key == high):
                        return
                yield key, list(leaf.values[idx])
                idx += 1
            leaf = leaf.next_leaf
            idx = 0

    def _leftmost_leaf(self) -> _Node:
        node = self.root
        while not node.leaf:
            node = node.children[0]
        return node

    def items(self) -> Iterator[tuple[Any, list[Any]]]:
        """All entries in key order."""
        return self.range_scan()

    def keys(self) -> Iterator[Any]:
        for key, _values in self.items():
            yield key

    # -- insertion ---------------------------------------------------------------

    def insert(self, key: Any, payload: Any) -> list[int]:
        """Insert ``payload`` under ``key``; returns the page numbers modified.

        Duplicate keys accumulate payloads.  Node splits propagate upward and
        may grow the tree by one level.
        """
        leaf, path = self._find_leaf(key)
        modified = [node.page_no for node in path]
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.values[idx].append(payload)
        else:
            leaf.keys.insert(idx, key)
            leaf.values.insert(idx, [payload])
            self._num_keys += 1
        self._num_entries += 1

        if len(leaf.keys) > self.order:
            modified.extend(self._split(path))
        return modified

    def _split(self, path: list[_Node]) -> list[int]:
        """Split the last node of ``path``, cascading up as needed."""
        modified: list[int] = []
        node = path[-1]
        while len(node.keys) > self.order:
            mid = len(node.keys) // 2
            if node.leaf:
                sibling = self._new_node(leaf=True)
                sibling.keys = node.keys[mid:]
                sibling.values = node.values[mid:]
                node.keys = node.keys[:mid]
                node.values = node.values[:mid]
                sibling.next_leaf = node.next_leaf
                node.next_leaf = sibling
                separator = sibling.keys[0]
            else:
                sibling = self._new_node(leaf=False)
                separator = node.keys[mid]
                sibling.keys = node.keys[mid + 1 :]
                sibling.children = node.children[mid + 1 :]
                node.keys = node.keys[:mid]
                node.children = node.children[: mid + 1]
            modified.extend([node.page_no, sibling.page_no])

            if node is self.root:
                new_root = self._new_node(leaf=False)
                new_root.keys = [separator]
                new_root.children = [node, sibling]
                self.root = new_root
                modified.append(new_root.page_no)
                return modified

            parent = path[path.index(node) - 1]
            idx = parent.children.index(node)
            parent.keys.insert(idx, separator)
            parent.children.insert(idx + 1, sibling)
            modified.append(parent.page_no)
            node = parent
        return modified

    # -- deletion -----------------------------------------------------------------

    def delete(self, key: Any, payload: Any = None) -> list[int]:
        """Delete one entry under ``key``.

        When ``payload`` is given only that payload is removed (the first
        occurrence); otherwise one arbitrary payload is removed.  The key
        disappears once its payload list is empty.  Returns the page numbers
        modified; an empty list means the key (or payload) was not found.
        """
        leaf, path = self._find_leaf(key)
        idx = self._leaf_index(leaf, key)
        if idx is None:
            return []
        payloads = leaf.values[idx]
        if payload is None:
            payloads.pop()
        else:
            try:
                payloads.remove(payload)
            except ValueError:
                return []
        self._num_entries -= 1
        if not payloads:
            leaf.keys.pop(idx)
            leaf.values.pop(idx)
            self._num_keys -= 1
        return [node.page_no for node in path]

    # -- size accounting --------------------------------------------------------------

    def size_pages(self) -> int:
        """Number of node pages the tree occupies."""
        return self.num_nodes

    def check_invariants(self) -> None:
        """Validate ordering and structural invariants (used by tests)."""
        def _check(node: _Node, low: Any, high: Any) -> None:
            assert node.keys == sorted(node.keys), "keys must be sorted"
            for key in node.keys:
                if low is not None:
                    assert key >= low, "key below subtree lower bound"
                if high is not None:
                    assert key < high, "key above subtree upper bound"
            if node.leaf:
                assert len(node.keys) == len(node.values)
            else:
                assert len(node.children) == len(node.keys) + 1
                bounds = [low] + node.keys + [high]
                for child, (child_low, child_high) in zip(
                    node.children, zip(bounds[:-1], bounds[1:])
                ):
                    _check(child, child_low, child_high)

        _check(self.root, None, None)
        collected = sum(len(values) for _key, values in self.items())
        assert collected == self._num_entries, "entry count mismatch"
        assert sum(1 for _ in self.keys()) == self._num_keys, "key count mismatch"
