"""Message statistics from sequence-number-matched arrows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the arrows arrive matched: the viewer is not imported
    from repro.viz.arrows import MessageArrow


@dataclass(frozen=True)
class MessageStats:
    """Latency/size summary of a set of matched messages."""

    count: int
    total_bytes: int
    min_latency_ns: int
    median_latency_ns: float
    max_latency_ns: int
    causality_violations: int

    @classmethod
    def empty(cls) -> "MessageStats":
        return cls(0, 0, 0, 0.0, 0, 0)


def message_stats(arrows: list[MessageArrow]) -> MessageStats:
    """Summarize matched messages (:func:`~repro.viz.arrows.match_arrows`).

    Latency here is *visible* latency: send-interval start to
    receive-interval end, which includes receiver-side blocking — the
    user-facing number a time-space arrow depicts.
    """
    if not arrows:
        return MessageStats.empty()
    latencies = np.array([a.recv_time - a.send_time for a in arrows])
    return MessageStats(
        count=len(arrows),
        total_bytes=sum(a.size for a in arrows),
        min_latency_ns=int(latencies.min()),
        median_latency_ns=float(np.median(latencies)),
        max_latency_ns=int(latencies.max()),
        causality_violations=int((latencies < 0).sum()),
    )


def latency_by_size(
    arrows: list[MessageArrow],
) -> dict[int, tuple[int, float]]:
    """size -> (count, median latency ns), for latency/bandwidth curves."""
    by_size: dict[int, list[int]] = {}
    for arrow in arrows:
        by_size.setdefault(arrow.size, []).append(arrow.recv_time - arrow.send_time)
    return {
        size: (len(vals), float(np.median(vals)))
        for size, vals in sorted(by_size.items())
    }
