"""Tests for the AVL tree the merge-structure ablation measures
(``benchmarks/avltree.py``; the merge itself sorts frame batches)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.avltree import AVLTree
from tests.conftest import max_examples


def test_empty_tree():
    tree = AVLTree()
    assert len(tree) == 0
    assert not tree
    with pytest.raises(KeyError):
        tree.pop_min()
    with pytest.raises(KeyError):
        tree.min_item()


def test_insert_and_pop_sorted():
    tree = AVLTree()
    for v in [5, 3, 8, 1, 9, 2, 7]:
        tree.insert(v, f"v{v}")
    out = []
    while tree:
        key, value = tree.pop_min()
        out.append(key)
        assert value == f"v{key}"
    assert out == [1, 2, 3, 5, 7, 8, 9]


def test_duplicate_keys_allowed():
    tree = AVLTree()
    for i in range(5):
        tree.insert(7, i)
    assert len(tree) == 5
    values = [tree.pop_min()[1] for _ in range(5)]
    assert sorted(values) == [0, 1, 2, 3, 4]


def test_min_item_does_not_remove():
    tree = AVLTree()
    tree.insert(2, "b")
    tree.insert(1, "a")
    assert tree.min_item() == (1, "a")
    assert len(tree) == 2


def test_items_in_order():
    tree = AVLTree()
    keys = random.Random(42).sample(range(1000), 100)
    for k in keys:
        tree.insert(k, None)
    assert [k for k, _ in tree.items()] == sorted(keys)


def test_height_logarithmic():
    tree = AVLTree()
    for i in range(1024):  # ascending insert — worst case for plain BST
        tree.insert(i, None)
    assert tree.height() <= 15  # 1.44 * log2(1024) + 2
    tree.check_invariants()


def test_invariants_under_mixed_workload():
    tree = AVLTree()
    rng = random.Random(7)
    live = 0
    for step in range(2000):
        if live and rng.random() < 0.4:
            tree.pop_min()
            live -= 1
        else:
            tree.insert(rng.randint(0, 10**6), step)
            live += 1
        if step % 97 == 0:
            tree.check_invariants()
    assert len(tree) == live


@given(st.lists(st.integers(), max_size=200))
@settings(max_examples=max_examples(100))
def test_pop_order_matches_sorted(keys):
    tree = AVLTree()
    for k in keys:
        tree.insert(k, None)
    tree.check_invariants()
    out = []
    while tree:
        out.append(tree.pop_min()[0])
    assert out == sorted(keys)
