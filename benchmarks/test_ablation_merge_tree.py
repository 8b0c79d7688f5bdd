"""Ablation: the merge's cursor data structure.

Paper section 3.1: "The merge utility uses a balanced tree in which each
tree node holds the pointer to the next interval in the corresponding
interval file.  Tree nodes are sorted by end time."  With k input files the
tree gives O(log k) per record; a linear scan of the cursors gives O(k).

This bench merges k pre-sorted streams with three cursor structures — the
AVL tree the paper describes, a binary heap, and a linear minimum scan —
and reports per-record cost as k grows.  (At the paper's k=4 all are fine;
the tree's advantage appears at larger node counts, which is why the paper
calls the design "extremely scalable".)

Production (``repro.utils.merge``) uses the heap: the same O(log k) on the
same ``(end, file index, ordinal)`` keys, at the lower constant this table
shows.  ``benchmarks/avltree.py`` (beside this file; the product does not
ship it) is the reference this ablation measures it against.
"""

from __future__ import annotations

import heapq
import time

from benchmarks.conftest import report
from benchmarks.avltree import AVLTree


def make_streams(k: int, per_stream: int) -> list[list[int]]:
    """k sorted integer streams with interleaved values."""
    return [
        [i * k + (s * 7919) % k for i in range(per_stream)]
        for s in range(k)
    ]


def merge_with_avl(streams) -> int:
    tree = AVLTree()
    iters = [iter(s) for s in streams]
    for i, it in enumerate(iters):
        first = next(it, None)
        if first is not None:
            tree.insert((first, i), i)
    out = 0
    while tree:
        (value, i), _ = tree.pop_min()
        out += 1
        nxt = next(iters[i], None)
        if nxt is not None:
            tree.insert((nxt, i), i)
    return out


def merge_with_heap(streams) -> int:
    iters = [iter(s) for s in streams]
    heap = []
    for i, it in enumerate(iters):
        first = next(it, None)
        if first is not None:
            heap.append((first, i))
    heapq.heapify(heap)
    out = 0
    while heap:
        value, i = heapq.heappop(heap)
        out += 1
        nxt = next(iters[i], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt, i))
    return out


def merge_with_linear_scan(streams) -> int:
    iters = [iter(s) for s in streams]
    heads: list[int | None] = [next(it, None) for it in iters]
    out = 0
    while True:
        best_i = -1
        best = None
        for i, head in enumerate(heads):  # O(k) every record
            if head is not None and (best is None or head < best):
                best = head
                best_i = i
        if best_i < 0:
            return out
        out += 1
        heads[best_i] = next(iters[best_i], None)


STRATEGIES = {
    "avl_tree": merge_with_avl,
    "heap": merge_with_heap,
    "linear_scan": merge_with_linear_scan,
}


def test_merge_structures_agree(benchmark):
    streams = make_streams(16, 500)
    results = {name: fn(streams) for name, fn in STRATEGIES.items()}
    assert len(set(results.values())) == 1
    benchmark(lambda: merge_with_avl(streams))


def test_merge_structure_scaling(benchmark):
    total = 40_000  # records merged, constant across k
    rows = ["", "ABLATION — merge cursor structure, per-record cost (us)",
            "paper: balanced tree sorted by end time (k = files being merged)",
            "production merge: heap; avl_tree is the paper's reference",
            f"  {'k':>5} {'avl_tree':>10} {'heap':>10} {'linear_scan':>12}"]
    costs: dict[str, dict[int, float]] = {name: {} for name in STRATEGIES}
    for k in (4, 16, 64, 256, 1024):
        streams = make_streams(k, total // k)
        cells = []
        for name, fn in STRATEGIES.items():
            t0 = time.perf_counter()
            merged = fn(streams)
            dt = time.perf_counter() - t0
            assert merged == (total // k) * k
            costs[name][k] = dt / merged * 1e6
            cells.append(f"{costs[name][k]:>10.3f}" if name != "linear_scan" else f"{costs[name][k]:>12.3f}")
        rows.append(f"  {k:>5} " + " ".join(cells))
    report(*rows)
    # The ordered structures beat the linear scan at large k.  (Pure-Python
    # AVL constant factors are high, so its crossover sits near k=1024;
    # the C-backed heap wins already at small k — the asymptotics are the
    # paper's point, the constants are the host language's.)
    assert costs["avl_tree"][1024] < costs["linear_scan"][1024]
    assert costs["heap"][256] < costs["linear_scan"][256]
    # Tree cost grows like log k, not k: going 4 -> 1024 (256x files) must
    # cost far less than 256x per record.
    assert costs["avl_tree"][1024] < costs["avl_tree"][4] * 10
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_real_merge_uses_heap(benchmark, sppm_pipeline, profile):
    """End-to-end: re-merge the sPPM interval files (the real pipeline path
    through ``heapq``) and time it."""
    from repro.utils.merge import merge_interval_files

    paths = sppm_pipeline["convert"].interval_paths
    out = sppm_pipeline["out"] / "remerge.ute"

    result = benchmark.pedantic(
        lambda: merge_interval_files(paths, out, profile), rounds=1, iterations=1
    )
    assert result.records_out > 0
