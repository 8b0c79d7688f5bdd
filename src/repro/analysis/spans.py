"""Reconstructing logical state spans from interval pieces.

The convert utility splits an interrupted call into begin / continuation /
end pieces; this module inverts that: it folds the pieces of each state
back into one span carrying

* ``begin`` / ``end`` — the state's wall-clock extent,
* ``on_cpu`` — the summed piece durations (time actually executing),
* ``blocked`` — the difference: time de-scheduled inside the state,

which is exactly the decomposition a blocked MPI_Recv needs (its pieces
are short; its wall span is long).

The fold is group-bys over one :class:`~repro.query.columnar.FrameBatch`:
rows sorted stably by (node, thread, type, marker id), a segment starting
at a key's first row, at a ``BEGIN`` and after an ``END``, one
``reduceat`` per column.  A ``COMPLETE`` row is its own span; a ``BEGIN``
over an open state drops it unreported; a ``CONTINUATION`` or ``END``
with no open state (a window cut its ``BEGIN``) opens one, best effort;
zero-duration pseudo-intervals are pieces like any other.  Spans come out
in the row order of their closing row, then the states never closed, in
the order their keys were (last) opened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.core.records import BeBits, IntervalType
from repro.query.columnar import FrameBatch
from repro.query.engine import group_order


@dataclass(frozen=True)
class StateSpan:
    """One logical state occurrence (a whole call / region, not a piece)."""

    itype: int
    marker_id: int  # 0 for non-marker states
    node: int
    thread: int
    begin: int
    end: int
    on_cpu: int
    pieces: int

    @property
    def wall(self) -> int:
        """Wall-clock extent of the state."""
        return self.end - self.begin

    @property
    def blocked(self) -> int:
        """Time spent off-CPU inside the state."""
        return self.wall - self.on_cpu


class SpanColumns(NamedTuple):
    """The state spans of a batch as parallel arrays, in emission order."""

    itype: np.ndarray
    marker_id: np.ndarray
    node: np.ndarray
    thread: np.ndarray
    begin: np.ndarray
    end: np.ndarray
    on_cpu: np.ndarray
    pieces: np.ndarray


def exact_sums(values: np.ndarray, n: int) -> np.ndarray:
    """``values`` in a dtype whose sums of up to ``n`` terms are exact: the
    array itself, or Python ints where int64 could overflow."""
    if values.dtype == object or not len(values):
        return values
    peak = max(abs(int(values.min())), abs(int(values.max())))
    return values.astype(object) if peak * n >= 1 << 63 else values


def folded_rows(batch: FrameBatch, *, include_running: bool = False) -> np.ndarray:
    """The mask of the rows the span fold reads: all but clock pairs, and
    but ``RUNNING`` rows unless ``include_running``."""
    keep = batch.itype != IntervalType.CLOCKPAIR
    if not include_running:
        keep &= batch.itype != IntervalType.RUNNING
    return keep


def span_columns(batch: FrameBatch, *, include_running: bool = False) -> SpanColumns:
    """Fold the batch's pieces into state spans (see the module docstring)
    over its :func:`folded_rows`."""
    batch = batch.where(folded_rows(batch, include_running=include_running))
    n = batch.n
    marker = np.where(batch.itype == IntervalType.MARKER, batch.extra_values("markerId"), 0)
    bebits, node, thread, itype = batch.bebits, batch.node, batch.thread, batch.itype
    start, end = batch.start, batch.end
    dura = exact_sums(batch.dura, n)

    # Pieces of a call: each key's rows together, in stream order.
    pieced = np.flatnonzero(bebits != BeBits.COMPLETE)
    by_key, bounds = group_order(
        [col[pieced] for col in (node, thread, itype, marker)], kind="stable"
    )
    order = pieced[by_key]
    be = bebits[order]
    new_key = np.zeros(len(order), dtype=bool)
    new_key[bounds] = True
    after_end = np.zeros(len(order), dtype=bool)
    after_end[1:] = (be[:-1] == BeBits.END) & ~new_key[1:]
    opened = new_key | after_end  # the key enters the open set here
    cut = np.flatnonzero(opened | (be == BeBits.BEGIN))
    last = np.append(cut[1:], len(order))[: len(cut)] - 1
    closed = be[last] == BeBits.END
    # An unclosed segment followed by its own key's BEGIN is dropped; the
    # key's last one is reported after every closed span, in the order
    # the key was opened (a BEGIN over an open state keeps that place).
    final = np.append(new_key[cut[1:]], True)[: len(cut)]
    reported = closed | final
    opening = order[np.flatnonzero(opened)[np.cumsum(opened)[cut] - 1]]
    place = np.where(closed, order[last], n + opening)

    ends = np.maximum.reduceat(end[order], cut)[reported]
    on_cpu = np.add.reduceat(dura[order], cut)[reported]
    pieces = (last - cut + 1)[reported]
    first = order[cut[reported]]

    complete = np.flatnonzero(bebits == BeBits.COMPLETE)
    emit = np.argsort(np.concatenate([complete, place[reported]]), kind="stable")

    def spans(values: np.ndarray, segment: np.ndarray) -> np.ndarray:
        return np.concatenate([values[complete], segment])[emit]

    return SpanColumns(
        itype=spans(itype, itype[first]),
        marker_id=spans(marker, marker[first]),
        node=spans(node, node[first]),
        thread=spans(thread, thread[first]),
        begin=spans(start, start[first]),
        end=spans(end, ends),
        on_cpu=spans(dura, on_cpu),
        pieces=spans(np.ones(n, dtype=np.int64), pieces.astype(np.int64)),
    )


def state_spans(batch: FrameBatch, *, include_running: bool = False) -> Iterator[StateSpan]:
    """The spans of :func:`span_columns`, one :class:`StateSpan` each."""
    cols = span_columns(batch, include_running=include_running)
    for values in zip(*(col.tolist() for col in cols)):
        yield StateSpan(*values)
