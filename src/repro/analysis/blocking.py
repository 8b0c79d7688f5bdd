"""The call profile: where the time in each state type actually went.

For each state type (MPI routine, marker region, I/O, page faults), the
profile reports call counts, wall time, on-CPU time, and blocked time —
separating "this call computed" from "this call sat de-scheduled waiting
for a message / the disk / a processor", which is the question thread-
dispatch-aware tracing exists to answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.spans import exact_sums, span_columns
from repro.core.profilefmt import Profile
from repro.core.records import IntervalType
from repro.errors import FormatError
from repro.query.columnar import FrameBatch
from repro.query.engine import group_order


@dataclass(frozen=True)
class CallProfileRow:
    """Aggregated behaviour of one state type."""

    itype: int
    name: str
    calls: int
    wall_ns: int
    on_cpu_ns: int
    max_wall_ns: int
    pieces: int

    @property
    def blocked_ns(self) -> int:
        """Total off-CPU time inside this state type."""
        return self.wall_ns - self.on_cpu_ns

    @property
    def blocked_fraction(self) -> float:
        """Share of the wall time spent blocked."""
        return self.blocked_ns / self.wall_ns if self.wall_ns else 0.0

    @property
    def avg_wall_ns(self) -> float:
        """Mean wall time per call."""
        return self.wall_ns / self.calls if self.calls else 0.0


def call_profile(
    batch: FrameBatch,
    profile: Profile,
    *,
    markers: dict[int, str] | None = None,
    include_running: bool = False,
) -> list[CallProfileRow]:
    """Build the call profile, rows sorted by blocked time descending
    (ties in the order their state first closed).

    Marker regions profile per *marker string* (one row per region name),
    other types per interval type: the span columns of
    :func:`~repro.analysis.spans.span_columns` grouped on (type, marker id).
    """
    markers = markers or {}
    spans = span_columns(batch, include_running=include_running)
    n = len(spans.itype)
    if not n:
        return []
    wall = exact_sums(spans.end - spans.begin, n)
    order, cut = group_order([spans.itype, spans.marker_id])
    first = np.minimum.reduceat(order, cut)
    # Groups in the order their first span came out.
    by_first = np.argsort(first)
    columns = [
        spans.itype[first], spans.marker_id[first], np.diff(np.append(cut, n)),
        np.add.reduceat(wall[order], cut),
        np.add.reduceat(exact_sums(spans.on_cpu, n)[order], cut),
        np.maximum.reduceat(wall[order], cut),
        np.add.reduceat(spans.pieces[order], cut),
    ]
    rows = []
    for itype, marker_id, calls, wall_ns, cpu_ns, longest, pieces in zip(
        *(col[by_first].tolist() for col in columns)
    ):
        if itype == IntervalType.MARKER:
            name = markers.get(marker_id, f"marker-{marker_id}")
        else:
            try:
                name = profile.record_name(itype)
            except FormatError:
                name = f"type{itype}"
        rows.append(
            CallProfileRow(
                itype=itype,
                name=name,
                calls=calls,
                wall_ns=wall_ns,
                on_cpu_ns=cpu_ns,
                max_wall_ns=max(0, longest),
                pieces=pieces,
            )
        )
    rows.sort(key=lambda r: r.blocked_ns, reverse=True)
    return rows


def format_call_profile(rows: list[CallProfileRow]) -> str:
    """Render the profile as an aligned text table."""
    lines = [
        f"{'state':<24} {'calls':>6} {'wall (ms)':>10} {'cpu (ms)':>10} "
        f"{'blocked (ms)':>13} {'blocked %':>10} {'pieces':>7}"
    ]
    for r in rows:
        lines.append(
            f"{r.name:<24} {r.calls:>6} {r.wall_ns / 1e6:>10.3f} "
            f"{r.on_cpu_ns / 1e6:>10.3f} {r.blocked_ns / 1e6:>13.3f} "
            f"{r.blocked_fraction * 100:>9.1f}% {r.pieces:>7}"
        )
    return "\n".join(lines)
