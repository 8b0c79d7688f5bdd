"""Indexed trace queries: sidecar indexes, a frame-pruning planner, and a
predicate-pushdown executor.

The paper's frame directory (section 2) was designed so tools could *seek*
instead of scan; this subsystem is the layer that exploits it.  A
versioned ``.uteidx`` sidecar (:mod:`repro.query.indexfile`) records
per-frame summaries — time ranges, state-type bitmaps, thread-key sets —
plus per-thread posting lists and the per-lane utilization hierarchy.  The
planner (:mod:`repro.query.planner`) intersects a declarative
:class:`~repro.query.model.Query` against those summaries to produce a
pruned frame plan, falling back to a full scan whenever the sidecar is
missing, stale, or damaged; the executor (:mod:`repro.query.engine`)
decodes only the planned frames and pushes the same predicates down onto
each record, so indexed and unindexed runs return identical rows — the
index only changes how many bytes are read.  Frames decode as columnar
batches (:mod:`repro.query.columnar`); the record-at-a-time
:func:`~repro.query.engine.reference_rows` is kept as the parity reference
``ute-oracle`` holds the executor to, not as a second way to read.

``ute-query`` is the CLI face; it, ``ute-stats``, ``ute-profile`` and
``ute-serve`` (``/api/query``, ``/api/stats``) all read through one
:class:`~repro.query.scan.Scan` (:mod:`repro.query.scan`): resolve the
index, open, plan, run, account.  :mod:`repro.analysis` opens no scan of
its own; it takes the batches these hand out.
"""

from repro.query.columnar import FrameBatch, batch_from_records, decode_frame_batch
from repro.core.windows import window_to_ticks
from repro.query.engine import ExecStats, QueryResult, execute, planned_batch_records
from repro.query.indexfile import (
    SIDECAR_SUFFIX,
    FrameSummary,
    TraceIndex,
    build_index,
    index_path_for,
    load_fresh_index,
    load_index,
    write_index,
)
from repro.query.model import Aggregate, Query, ThreadSel
from repro.query.planner import MODE_FULL_SCAN, MODE_INDEXED, QueryPlan, plan_query
from repro.query.scan import Scan, open_scan, resolve_index, run_query
from repro.query.trace import TraceHandle, open_trace, trace_kind
from repro.query.utilization import (
    UtilizationBuilder,
    UtilizationIndex,
    cpu_key,
    split_thread_key,
    thread_key,
)

__all__ = [
    "Aggregate",
    "ExecStats",
    "FrameBatch",
    "FrameSummary",
    "MODE_FULL_SCAN",
    "MODE_INDEXED",
    "Query",
    "QueryPlan",
    "QueryResult",
    "SIDECAR_SUFFIX",
    "Scan",
    "ThreadSel",
    "TraceHandle",
    "TraceIndex",
    "UtilizationBuilder",
    "UtilizationIndex",
    "batch_from_records",
    "build_index",
    "cpu_key",
    "decode_frame_batch",
    "execute",
    "index_path_for",
    "load_fresh_index",
    "load_index",
    "open_scan",
    "open_trace",
    "plan_query",
    "planned_batch_records",
    "resolve_index",
    "run_query",
    "split_thread_key",
    "thread_key",
    "trace_kind",
    "window_to_ticks",
    "write_index",
]
