"""Performance-analysis applications over interval files.

Paper section 4 opens: "multiple time-space diagrams and
performance-analysis applications may be derived from the same interval
trace file".  This subpackage is that second half — analyses built purely
on the rows the query layer hands out (no access to the simulator or raw
traces).  It opens no scan of its own: every analysis takes one
:class:`~repro.query.columnar.FrameBatch` — from
:func:`repro.utils.stats.interval_records` (or a
:func:`~repro.query.scan.open_scan` for thread, node or type predicates),
joined by :func:`~repro.query.columnar.concat_batches` — and folds its
columns without building a record object.

* :mod:`repro.analysis.spans` — reconstruct logical *state spans* from
  bebits pieces, as group-bys over the batch's columns: each MPI call /
  marker region / I/O operation as one span with its wall time, on-CPU
  time, and blocked time.
* :mod:`repro.analysis.blocking` — the call profile: per state type, how
  many calls, how much wall time, and how much of it was spent blocked
  (off-CPU) — the number that actually matters for a de-scheduled MPI_Recv.
* :mod:`repro.analysis.messages` — message latency/size statistics from
  the sequence-number-matched arrows.
* :mod:`repro.analysis.metrics` — time-resolved metrics over one frame
  batch: per-bin load balance and communication efficiency, attributed by
  record/bin overlap.

Per-thread and per-CPU busy time is the utilization index's answer
(:attr:`repro.query.TraceIndex.utilization`), not a sum here.
"""

from repro.analysis.spans import StateSpan, state_spans
from repro.analysis.blocking import CallProfileRow, call_profile
from repro.analysis.messages import MessageStats, message_stats
from repro.analysis.metrics import (
    TimelineMetric,
    communication_efficiency_timeline,
    load_balance_timeline,
)

__all__ = [
    "StateSpan",
    "state_spans",
    "CallProfileRow",
    "call_profile",
    "MessageStats",
    "message_stats",
    "TimelineMetric",
    "load_balance_timeline",
    "communication_efficiency_timeline",
]
