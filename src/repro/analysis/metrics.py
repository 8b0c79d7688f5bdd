"""Time-resolved performance metrics over one frame batch.

Two of the classic whole-run health numbers — load balance and
communication efficiency — hide their story when computed as single
scalars: a run that is perfectly balanced on average may alternate between
idle halves.  These functions bin the time axis and compute the metric
per bin, so the *timeline* of the problem is visible.

Both read a :class:`~repro.query.columnar.FrameBatch` — the query layer's
table, e.g. ``concat_batches(list(interval_records([path], profile,
window=w)))``, refined with ``batch.where(mask)`` — and
attribute each record to a bin by **overlap**: a record contributes to
every bin it intersects, weighted by the intersection length — no edge
artifacts from assigning whole records to the bin of their start time.

Compute is every ``RUNNING`` and ``MARKER`` piece: a marker region's
pieces are on-CPU time outside MPI too, since an MPI call inside a region
cuts the region's piece.  ``IO`` and ``PAGEFAULT`` pieces count as neither
compute nor communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.records import IntervalType
from repro.errors import FormatError
from repro.query.columnar import FrameBatch
from repro.query.utilization import lane_keys

__all__ = [
    "TimelineMetric",
    "load_balance_timeline",
    "communication_efficiency_timeline",
]


@dataclass
class TimelineMetric:
    """One binned metric: bin edges (ticks), per-bin values, and the
    per-bin intermediate terms the value was derived from."""

    name: str
    edges: np.ndarray  # (bins + 1,) int64 tick edges
    values: np.ndarray  # (bins,) float64 metric per bin
    terms: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def bins(self) -> int:
        return len(self.values)

    def centers_seconds(self, ticks_per_sec: float) -> np.ndarray:
        """Bin centers in seconds (plot x-axis)."""
        mid = (self.edges[:-1] + self.edges[1:]) / 2.0
        return mid / ticks_per_sec

    def as_dict(self) -> dict:
        """JSON-friendly form."""
        return {
            "name": self.name,
            "edges": self.edges.tolist(),
            "values": self.values.tolist(),
            "terms": {k: v.tolist() for k, v in self.terms.items()},
        }


def _bin_edges(batch: FrameBatch, bins: int) -> np.ndarray:
    if bins <= 0:
        raise FormatError(f"need at least one bin, got {bins}")
    t_min, t_max = (int(batch.start.min()), int(batch.end.max())) if batch.n else (0, 0)
    if t_max <= t_min:
        t_max = t_min + 1  # degenerate span: one 1-tick bin
    return np.linspace(t_min, t_max, bins + 1).astype(np.int64)


def _busy(
    batch: FrameBatch, mask: np.ndarray, edges: np.ndarray,
    cols: np.ndarray, width: int,
) -> np.ndarray:
    """(bins, width) matrix: each ``mask`` row's overlap with each bin in
    ticks, summed into its column ``cols``."""
    start, end, cols = batch.start[mask], batch.end[mask], cols[mask]
    busy = np.zeros((len(edges) - 1, width), np.float64)
    if len(start):
        for b, (lo, hi) in enumerate(zip(edges[:-1].tolist(), edges[1:].tolist())):
            overlap = np.clip(np.minimum(end, hi) - np.maximum(start, lo), 0, None)
            busy[b] = np.bincount(cols, weights=overlap.astype(np.float64), minlength=width)
    return busy


def _is_compute(batch: FrameBatch) -> np.ndarray:
    return (batch.itype == IntervalType.RUNNING) | (batch.itype == IntervalType.MARKER)


def load_balance_timeline(batch: FrameBatch, bins: int = 32) -> TimelineMetric:
    """Per-bin load balance: mean over max of per-thread busy time.

    Busy time is the overlap of compute (``RUNNING`` and ``MARKER``
    pieces) with the bin, summed per (node, thread).  A bin where every
    thread is equally busy scores 1.0; a bin where one thread does all the
    work while the rest idle scores 1/n.  Bins with no busy time at all
    score 1.0 (nothing to balance).

    ``terms`` carries ``busy`` — the (bins, threads) busy matrix in ticks,
    one column per distinct (node, thread) of the batch, in that order.
    """
    edges = _bin_edges(batch, bins)
    keys, cols = np.unique(lane_keys(batch.node, batch.thread), return_inverse=True)
    busy = _busy(batch, _is_compute(batch), edges, cols, max(len(keys), 1))
    maxima = busy.max(axis=1)
    means = busy.mean(axis=1)
    values = np.where(maxima > 0, means / np.where(maxima > 0, maxima, 1), 1.0)
    return TimelineMetric("load_balance", edges, values, {"busy": busy})


def communication_efficiency_timeline(
    batch: FrameBatch, bins: int = 32
) -> TimelineMetric:
    """Per-bin communication efficiency: compute / (compute + MPI) time.

    Compute time is the overlap of ``RUNNING`` and ``MARKER`` pieces with
    the bin; MPI time is the overlap of every MPI state (``MPI_BASE <= type
    < MARKER``) with the bin — both summed over all threads.  A bin that is
    all computation scores 1.0, all communication 0.0; a bin with neither
    (threads entirely de-scheduled or outside the trace) scores 1.0.

    ``terms`` carries ``compute`` and ``comm`` in ticks per bin.
    """
    edges = _bin_edges(batch, bins)
    one_column = np.zeros(batch.n, np.intp)
    is_mpi = (batch.itype >= IntervalType.MPI_BASE) & (batch.itype < IntervalType.MARKER)
    compute = _busy(batch, _is_compute(batch), edges, one_column, 1)[:, 0]
    comm = _busy(batch, is_mpi, edges, one_column, 1)[:, 0]
    total = compute + comm
    values = np.where(total > 0, compute / np.where(total > 0, total, 1), 1.0)
    return TimelineMetric(
        "communication_efficiency", edges, values,
        {"compute": compute, "comm": comm},
    )
