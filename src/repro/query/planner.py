"""The frame-pruning planner.

Given a :class:`~repro.query.model.Query` and (optionally) a fresh
:class:`~repro.query.indexfile.TraceIndex`, the planner decides which
frames the executor must decode.  Its contract is **conservative**: a
frame is pruned only when the index proves no record in it can match, so
planned and full scans always produce identical rows — the index shapes
cost, never results.

Pruning steps (each intersects the survivor set):

1. **Time window** — drop frames whose [start, end] range misses the
   window (the ranges are the frame directory's, copied into the sidecar);
2. **Thread posting lists** — for exact (node, thread) selectors, union
   the posting lists and intersect; a bare thread id unions every posting
   key carrying that id;
3. **Node sets** — keep frames whose thread-key set names any selected
   node;
4. **Type bitmaps** — keep frames whose bitmap admits any selected type
   (overflow frames are always kept).

Without a usable index the planner returns a **full scan** over every
frame — predicate pushdown in the executor still filters records, so
results stay identical, only more bytes are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.query.indexfile import TraceIndex
from repro.query.model import Query
from repro.query.trace import TraceFrame
from repro.query.utilization import thread_key

#: Plan modes, from cheapest to most expensive.
MODE_INDEXED = "indexed"
MODE_FULL_SCAN = "full-scan"


@dataclass
class QueryPlan:
    """Which frames to decode, and why."""

    frames: list[int]
    total_frames: int
    mode: str
    reason: str
    #: Per-step pruning trace: (step name, frames remaining after it).
    steps: list[tuple[str, int]] = field(default_factory=list)

    @property
    def frames_pruned(self) -> int:
        """How many frames the plan avoids decoding."""
        return self.total_frames - len(self.frames)

    def describe(self) -> dict[str, Any]:
        """JSON-friendly form (explain output, ``/api/query`` payloads)."""
        return {
            "mode": self.mode,
            "reason": self.reason,
            "frames_total": self.total_frames,
            "frames_selected": len(self.frames),
            "frames_pruned": self.frames_pruned,
            "steps": [{"step": name, "remaining": n} for name, n in self.steps],
        }


def plan_query(
    query: Query,
    frames: Sequence[TraceFrame],
    index: TraceIndex | None,
    *,
    index_reason: str = "missing",
) -> QueryPlan:
    """Produce the pruned frame plan for one query.

    ``index`` is a *fresh* index or ``None``; ``index_reason`` explains a
    ``None`` (``missing`` / ``stale:...`` / ``corrupt:...``) and lands in
    the plan so callers can see why a scan went full."""
    total = len(frames)
    if index is None:
        return QueryPlan(
            list(range(total)), total, MODE_FULL_SCAN,
            f"no usable index ({index_reason})",
        )
    if len(index.frames) != total:
        # A sidecar that disagrees with the file's own directory cannot be
        # trusted even if its hash matched (e.g. built over a different
        # salvage view) — full scan keeps results correct.
        return QueryPlan(
            list(range(total)), total, MODE_FULL_SCAN,
            f"index frame count {len(index.frames)} != file {total}",
        )
    steps: list[tuple[str, int]] = []
    survivors = set(range(total))

    if query.windowed:
        survivors = {
            o for o in survivors if index.frames[o].overlaps(query.t0, query.t1)
        }
        steps.append(("time-window", len(survivors)))

    if query.threads and survivors:
        allowed: set[int] = set()
        for sel in query.threads:
            if sel.node is not None:
                allowed.update(
                    index.postings.get(thread_key(sel.node, sel.thread), ())
                )
            else:
                allowed.update(index.frames_for_thread_id(sel.thread))
        survivors &= allowed
        steps.append(("thread-postings", len(survivors)))

    if query.nodes and survivors:
        survivors = {
            o for o in survivors if index.frames[o].nodes() & query.nodes
        }
        steps.append(("node-sets", len(survivors)))

    if query.types and survivors:
        survivors = {
            o
            for o in survivors
            if any(index.frames[o].may_have_type(t) for t in query.types)
        }
        steps.append(("type-bitmaps", len(survivors)))

    return QueryPlan(
        sorted(survivors), total, MODE_INDEXED,
        "pruned via sidecar index", steps,
    )
