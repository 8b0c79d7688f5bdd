"""repro — a trace-generation-to-visualization performance framework.

This package reproduces the system described in *"From Trace Generation to
Visualization: A Performance Framework for Distributed Parallel Systems"*
(SC 2000): a unified tracing facility for clusters of SMP nodes, a
self-defining interval file format with frames and frame directories, clock
synchronization against a global switch clock, convert/merge utilities, a
declarative statistics utility, and Jumpshot-style visualization (preview plus
multiple time-space diagrams) over SLOG files.

Subpackages
-----------
``repro.cluster``
    Deterministic discrete-event simulator of an SMP cluster: nodes,
    processors, a preemptive thread scheduler, a switch network, and local
    clocks with drift.  This substitutes for the IBM SP hardware the paper ran
    on; see DESIGN.md for the substitution rationale.
``repro.mpi``
    A simulated MPI layer (point-to-point and collectives) whose PMPI-style
    wrappers cut begin/end trace events.
``repro.tracing``
    The AIX-trace-like unified tracing facility: hookwords, per-node trace
    buffers, raw trace files, user markers, and global-clock records.
``repro.clocksync``
    The paper's clock synchronization: the RMS-of-slope-segments ratio
    estimator and timestamp adjustment.
``repro.core``
    The paper's primary contribution: the self-defining interval file format
    (description profiles, interval records with bebits, thread tables, frames
    and frame directories) and the simple reader API of Figure 5.
``repro.utils``
    The convert, merge (with SLOG output), statistics, validation, and dump
    utilities.
``repro.analysis``
    Performance-analysis applications over the records the query layer
    hands out: state-span reconstruction, blocking call profiles, message
    latency, and load-balance / communication-efficiency timelines.
``repro.viz``
    Jumpshot-style visualization: preview, four time-space views, message
    arrows, and the statistics viewer, rendered to SVG or ANSI text.
``repro.workloads``
    Traceable example programs: an sPPM-like benchmark, a FLASH-like phased
    application, and synthetic workload generators.
"""

from repro._version import __version__
from repro.errors import (
    ReproError,
    TraceError,
    FormatError,
    ProfileMismatchError,
    MergeError,
    StatsError,
    SimulationError,
)

__all__ = [
    "__version__",
    "ReproError",
    "TraceError",
    "FormatError",
    "ProfileMismatchError",
    "MergeError",
    "StatsError",
    "SimulationError",
]
