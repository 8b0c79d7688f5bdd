"""Timestamp adjustment from local to global time.

Following paper section 2.2: during the merge, the first global-clock record
of each file determines that file's starting point in time, and the ratio
**R** (from :mod:`repro.clocksync.ratio`) rescales local timestamps — an
interval with local timestamp ``S`` and duration ``D`` becomes
``(adjust(S), R * D)``.

Two adjusters are provided:

* :class:`ClockAdjustment` — one global ratio for the whole file (the
  paper's primary scheme);
* :class:`PiecewiseAdjustment` — one slope per inter-sample segment,
  "effectively partitioning the total elapsed time into n segments, each of
  which has its own global to local clock ratio" (the paper's refinement for
  clocks whose rate changes mid-run).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.clocksync.ratio import (
    ClockPair,
    filter_outliers,
    last_slope_ratio,
    rms_anchored_ratio,
    rms_segment_ratio,
    segment_slopes,
)
from repro.errors import MergeError
from repro.tracing.events import RawEvent
from repro.tracing.hooks import HookId


@dataclass(frozen=True)
class ClockAdjustment:
    """Linear local-to-global mapping anchored at the first clock pair.

    ``adjust(S) = G0 + R * (S - L0)`` and ``adjust_duration(D) = R * D``.
    """

    origin_global: int
    origin_local: int
    ratio: float

    def adjust(self, local_ts: int) -> int:
        """Map a local timestamp to global time."""
        return self.origin_global + round(self.ratio * (local_ts - self.origin_local))

    def adjust_array(self, local_ts: np.ndarray) -> np.ndarray:
        """:meth:`adjust` over an int64 column, tick for tick (``np.rint``
        rounds half to even, as ``round`` does)."""
        scaled = np.rint(self.ratio * (local_ts - self.origin_local))
        return self.origin_global + scaled.astype(np.int64)

    def adjust_duration(self, duration: int, *, at_local_ts: int | None = None) -> int:
        """Rescale a duration into global time units.

        ``at_local_ts`` is accepted (and ignored — the ratio is global) so
        callers can pass it uniformly to either adjuster kind."""
        return round(self.ratio * duration)


class PiecewiseAdjustment:
    """Per-segment local-to-global mapping.

    Within segment i (between clock pairs i and i+1), timestamps map with
    that segment's own slope, anchored at the segment's left pair.
    Timestamps before the first pair or after the last use the nearest
    segment's slope, so the mapping is continuous and monotonic.
    """

    def __init__(self, pairs: Sequence[ClockPair]) -> None:
        if len(pairs) < 2:
            raise MergeError("piecewise adjustment needs at least 2 clock pairs")
        self.pairs = list(pairs)
        self.slopes = segment_slopes(self.pairs)
        self._locals = [p.local_ts for p in self.pairs]

    def _segment_of(self, local_ts: int) -> int:
        idx = bisect.bisect_right(self._locals, local_ts) - 1
        return max(0, min(idx, len(self.slopes) - 1))

    def adjust(self, local_ts: int) -> int:
        """Map a local timestamp through its containing segment."""
        i = self._segment_of(local_ts)
        anchor = self.pairs[i]
        return anchor.global_ts + round(self.slopes[i] * (local_ts - anchor.local_ts))

    def adjust_array(self, local_ts: np.ndarray) -> np.ndarray:
        """:meth:`adjust` over an int64 column, tick for tick."""
        locals_ = np.array(self._locals, dtype=np.int64)
        i = np.clip(
            np.searchsorted(locals_, local_ts, side="right") - 1, 0, len(self.slopes) - 1
        )
        scaled = np.rint(np.array(self.slopes)[i] * (local_ts - locals_[i]))
        globals_ = np.array([p.global_ts for p in self.pairs], dtype=np.int64)
        return globals_[i] + scaled.astype(np.int64)

    def adjust_duration(self, duration: int, *, at_local_ts: int) -> int:
        """Rescale a duration using the slope in effect at ``at_local_ts``.

        ``at_local_ts`` is required: a piecewise mapping has no single
        ratio, and silently defaulting to segment 0's slope rescaled every
        duration with whatever the clock did at the start of the run."""
        return round(self.slopes[self._segment_of(at_local_ts)] * duration)


#: Estimator selection for :func:`adjustment_from_pairs`.
MODES = ("rms_segment", "rms_anchored", "last_slope", "piecewise")


def adjustment_from_pairs(
    pairs: Sequence[ClockPair],
    mode: str = "rms_segment",
    *,
    filter_jitter: bool = True,
) -> ClockAdjustment | PiecewiseAdjustment:
    """Build an adjuster from a node's clock pairs.

    ``mode`` selects the estimator: ``rms_segment`` (the paper's), or
    ``rms_anchored`` / ``last_slope`` / ``piecewise`` for the alternatives.
    Jitter filtering drops de-scheduled-sampler outliers first.
    """
    if mode not in MODES:
        raise MergeError(f"unknown clock-sync mode {mode!r}; pick one of {MODES}")
    if filter_jitter:
        pairs = filter_outliers(pairs)
    if mode == "piecewise":
        return PiecewiseAdjustment(pairs)
    if mode == "rms_segment":
        ratio = rms_segment_ratio(pairs)
    elif mode == "rms_anchored":
        ratio = rms_anchored_ratio(pairs)
    else:
        ratio = last_slope_ratio(pairs)
    first = pairs[0]
    return ClockAdjustment(first.global_ts, first.local_ts, ratio)


def pairs_from_events(events: Iterable[RawEvent]) -> list[ClockPair]:
    """Extract the (global, local) clock pairs from a raw event stream."""
    return [
        ClockPair(global_ts=e.args[0], local_ts=e.local_ts)
        for e in events
        if e.hook_id == HookId.GLOBAL_CLOCK
    ]
