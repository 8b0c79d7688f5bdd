"""A self-balancing (AVL) binary search tree.

The merge utility "uses a balanced tree in which each tree node holds the
pointer to the next interval in the corresponding interval file.  Tree nodes
are sorted by end time" (paper section 3.1).  This is that tree: keys are
(end time, tiebreak) tuples, values are per-file cursors; ``pop_min``
removes the earliest-ending interval and the cursor is re-inserted at its
next record's key.

It lives beside its one user, ``test_ablation_merge_tree.py`` (which
measures it against the heap and a linear scan): the production merge
sorts frame batches on the same keys and does not ship a tree.
``tests/test_avltree.py`` keeps it correct.
"""

from __future__ import annotations

from typing import Any, Iterator


class _Node:
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key: Any, value: Any) -> None:
        self.key = key
        self.value = value
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.height = 1


def _h(node: _Node | None) -> int:
    return node.height if node else 0


def _update(node: _Node) -> None:
    node.height = 1 + max(_h(node.left), _h(node.right))


def _balance_factor(node: _Node) -> int:
    return _h(node.left) - _h(node.right)


def _rotate_right(y: _Node) -> _Node:
    x = y.left
    assert x is not None
    y.left = x.right
    x.right = y
    _update(y)
    _update(x)
    return x


def _rotate_left(x: _Node) -> _Node:
    y = x.right
    assert y is not None
    x.right = y.left
    y.left = x
    _update(x)
    _update(y)
    return y


def _rebalance(node: _Node) -> _Node:
    _update(node)
    bf = _balance_factor(node)
    if bf > 1:
        assert node.left is not None
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if bf < -1:
        assert node.right is not None
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class AVLTree:
    """AVL tree with duplicate keys allowed (duplicates go right)."""

    def __init__(self) -> None:
        self._root: _Node | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def insert(self, key: Any, value: Any) -> None:
        """Insert a (key, value) pair; O(log n)."""
        self._root = self._insert(self._root, key, value)
        self._size += 1

    def _insert(self, node: _Node | None, key: Any, value: Any) -> _Node:
        if node is None:
            return _Node(key, value)
        if key < node.key:
            node.left = self._insert(node.left, key, value)
        else:
            node.right = self._insert(node.right, key, value)
        return _rebalance(node)

    def min_item(self) -> tuple[Any, Any]:
        """The smallest (key, value) pair without removing it; O(log n)."""
        if self._root is None:
            raise KeyError("min of empty tree")
        node = self._root
        while node.left is not None:
            node = node.left
        return node.key, node.value

    def pop_min(self) -> tuple[Any, Any]:
        """Remove and return the smallest (key, value) pair; O(log n)."""
        if self._root is None:
            raise KeyError("pop from empty tree")
        popped: list[tuple[Any, Any]] = []
        self._root = self._pop_min(self._root, popped)
        self._size -= 1
        return popped[0]

    def _pop_min(self, node: _Node, popped: list) -> _Node | None:
        if node.left is None:
            popped.append((node.key, node.value))
            return node.right
        node.left = self._pop_min(node.left, popped)
        return _rebalance(node)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All pairs in ascending key order (in-order traversal)."""
        stack: list[_Node] = []
        node = self._root
        while stack or node:
            while node:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def height(self) -> int:
        """Tree height (0 for empty); stays O(log n) by the AVL invariant."""
        return _h(self._root)

    def check_invariants(self) -> None:
        """Assert BST ordering and AVL balance everywhere (for tests)."""

        def walk(node: _Node | None) -> tuple[int, Any, Any]:
            if node is None:
                return 0, None, None
            lh, lmin, lmax = walk(node.left)
            rh, rmin, rmax = walk(node.right)
            if lmax is not None and lmax > node.key:
                raise AssertionError(f"BST violation left of {node.key}")
            if rmin is not None and rmin < node.key:
                raise AssertionError(f"BST violation right of {node.key}")
            if abs(lh - rh) > 1:
                raise AssertionError(f"AVL imbalance at {node.key}")
            height = 1 + max(lh, rh)
            if height != node.height:
                raise AssertionError(f"stale height at {node.key}")
            lo = lmin if lmin is not None else node.key
            hi = rmax if rmax is not None else node.key
            return height, lo, hi

        walk(self._root)
