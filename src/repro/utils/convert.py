"""The convert utility: raw event trace files → per-node interval files.

Implements paper section 3.1:

* **Event matching** — a begin event is matched with its end event to create
  an interval; if other events intervene (thread dispatch, markers, nested
  MPI), the interval is divided into multiple *pieces* typed by bebits
  (begin / continuation / end; a single uninterrupted span is *complete*).
* **State nesting** — at any instant a thread's time belongs to the top of
  its state stack: an MPI routine, a user-marker region, or the default
  Running state when the stack is empty.  Entering an inner state suspends
  the outer one (its pieces stop until the inner state pops), exactly the
  semantics of section 3.3's nested-marker example.
* **Marker unification** — per-task local marker identifiers are re-assigned
  so the same string gets the same identifier in every file.
* **Clock pairs** — global-clock records become zero-duration
  ``GlobalClock`` interval records so the merge utility can align files and
  estimate drift without any side channel.

Output records are written in ascending end-time order, the interval-file
invariant.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.profilefmt import Profile, standard_profile
from repro.core.records import BeBits, IntervalType
from repro.core.threadtable import MAX_THREADS_PER_NODE, ThreadEntry, ThreadTable
from repro.core.writer import IntervalFileWriter
from repro.errors import TraceError
from repro.mpi.pmpi import as_signed
from repro.query.columnar import batch_from_rows
from repro.tracing.hooks import (
    HookId,
    MPI_FN_NAMES,
    is_mpi_begin,
    is_mpi_end,
    mpi_fn_of_hook,
)
from repro.tracing.rawfile import RawTraceReader

#: MPI functions whose end events carry (src, tag, bytes, seqno).
_RECV_LIKE = {
    MPI_FN_NAMES.index(n) for n in ("MPI_Recv", "MPI_Irecv", "MPI_Wait", "MPI_Sendrecv")
}
#: Waitall ends carry a *vector* of completed sequence numbers instead.
_WAITALL_FN = MPI_FN_NAMES.index("MPI_Waitall")


class MarkerUnifier:
    """Assigns one global identifier per marker *string* across all files."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def unify(self, text: str) -> int:
        """Global identifier for ``text`` (allocating on first sight)."""
        if text not in self._ids:
            self._ids[text] = len(self._ids) + 1
        return self._ids[text]

    def table(self) -> dict[int, str]:
        """The id -> string table for interval-file marker sections."""
        return {i: s for s, i in self._ids.items()}

    @classmethod
    def preloaded(cls, ids: dict[str, int]) -> "MarkerUnifier":
        """A unifier whose string -> id mapping is already decided.

        The parallel convert front-end prescans every file for marker
        strings, assigns identifiers centrally in input order, and hands
        each worker a preloaded unifier — so workers never allocate and the
        output is byte-identical to the serial pass."""
        unifier = cls()
        unifier._ids = dict(ids)
        return unifier


@dataclass
class _OpenState:
    """One entry of a thread's state stack."""

    itype: int
    opened_at: int
    extra: dict = field(default_factory=dict)
    pieces: list[tuple[int, int, int]] = field(default_factory=list)  # (start, end, cpu)
    piece_start: int | None = None  # None while suspended / off-CPU
    piece_cpu: int = 0

    def resume(self, t: int, cpu: int) -> None:
        if self.piece_start is None:
            self.piece_start = t
            self.piece_cpu = cpu

    def suspend(self, t: int) -> None:
        if self.piece_start is not None:
            if t > self.piece_start:
                self.pieces.append((self.piece_start, t, self.piece_cpu))
            self.piece_start = None


class _ThreadState:
    """Conversion state machine for one thread."""

    def __init__(self, system_tid: int) -> None:
        self.system_tid = system_tid
        self.stack: list[_OpenState] = []
        self.on_cpu: int | None = None
        self.last_seen = 0

    def top(self) -> _OpenState | None:
        return self.stack[-1] if self.stack else None


@dataclass
class ConvertResult:
    """What one conversion produced."""

    interval_paths: list[Path]
    profile_path: Path
    events_processed: int
    records_written: int
    marker_table: dict[int, str]


def convert_traces(
    raw_paths: Iterable[str | Path],
    out_dir: str | Path,
    *,
    profile: Profile | None = None,
    frame_bytes: int = 32 * 1024,
    frames_per_dir: int = 8,
    strict: bool = True,
    jobs: int = 1,
) -> ConvertResult:
    """Convert a set of per-node raw trace files into interval files.

    All files share one marker unification pass, so "the same identifier is
    used for the same marker string for all subsequent performance
    analysis".  Returns paths and counters.

    ``strict=False`` tolerates traces whose opening events were lost — the
    facility's circular-buffer ("wrap") mode keeps only the most recent
    window, so end events may arrive with no matching begin; lenient mode
    drops those instead of failing.

    ``jobs > 1`` fans the per-node conversions out across a process pool.
    Marker unification — the only cross-file coupling — is hoisted into a
    cheap hookword prescan whose identifiers are assigned centrally in
    input order, so the parallel output is byte-identical to the serial
    pass (asserted by the regression tests).
    """
    raw_list = [Path(p) for p in raw_paths]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = profile or standard_profile()
    profile_path = profile.write(out_dir / "profile.ute")
    out_paths = [out_dir / (p.stem + ".ute") for p in raw_list]

    if jobs > 1 and len(raw_list) > 1:
        return _convert_parallel(
            raw_list, out_paths, profile, profile_path,
            frame_bytes=frame_bytes, frames_per_dir=frames_per_dir,
            strict=strict, jobs=jobs,
        )

    unifier = MarkerUnifier()
    events = 0
    records = 0
    for raw_path, out_path in zip(raw_list, out_paths):
        with RawTraceReader(raw_path) as reader:
            n_events, n_records = convert_one(
                reader,
                out_path,
                profile,
                unifier,
                frame_bytes=frame_bytes,
                frames_per_dir=frames_per_dir,
                strict=strict,
            )
        events += n_events
        records += n_records
    return ConvertResult(out_paths, profile_path, events, records, unifier.table())


def _convert_parallel(
    raw_list: list[Path],
    out_paths: list[Path],
    profile: Profile,
    profile_path: Path,
    *,
    frame_bytes: int,
    frames_per_dir: int,
    strict: bool,
    jobs: int,
) -> ConvertResult:
    """Fan per-node conversions out across a multiprocessing pool."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    n_workers = min(jobs, len(raw_list))
    with ctx.Pool(n_workers) as pool:
        # Phase 1: prescan every file for the marker strings its conversion
        # would unify, in order.  Phase 2: assign global ids centrally, in
        # input-file order — exactly the serial allocation sequence.
        per_file = pool.map(partial(_marker_strings, strict=strict), raw_list)
        unifier = MarkerUnifier()
        for strings in per_file:
            for text in strings:
                unifier.unify(text)
        marker_ids = dict(unifier._ids)
        # Phase 3: convert each file with a preloaded unifier.
        tasks = [
            (raw, out, profile_path, marker_ids, frame_bytes, frames_per_dir, strict)
            for raw, out in zip(raw_list, out_paths)
        ]
        counts = pool.map(_convert_worker, tasks)
    events = sum(c[0] for c in counts)
    records = sum(c[1] for c in counts)
    return ConvertResult(out_paths, profile_path, events, records, unifier.table())


def _marker_strings(raw_path: Path, *, strict: bool) -> list[str]:
    """The ordered marker strings :func:`convert_one` would unify for one
    file, recovered from a hookword scan that decodes only marker events."""
    strings: list[str] = []
    defined: set[int] = set()
    with RawTraceReader(raw_path) as reader:
        node_id = reader.header.node_id
        for hook, offset, record_len in reader.scan():
            if hook == HookId.MARKER_DEFINE:
                event = reader.event_at(offset, record_len)
                strings.append(event.text)
                defined.add(int(event.args[0]))
            elif hook == HookId.MARKER_BEGIN and not strict:
                event = reader.event_at(offset, record_len)
                local_id = int(event.args[0])
                if local_id not in defined:
                    # Lenient mode synthesizes a name for a begin whose
                    # MARKER_DEFINE was overwritten; mirror it here so the
                    # synthetic string gets the same global id.
                    strings.append(f"<lost marker {node_id}/{local_id}>")
                    defined.add(local_id)
    return strings


def _convert_worker(
    task: tuple[Path, Path, Path, dict[str, int], int, int, bool],
) -> tuple[int, int]:
    """Pool worker: convert one raw file with a preloaded marker mapping."""
    raw_path, out_path, profile_path, marker_ids, frame_bytes, frames_per_dir, strict = task
    profile = Profile.read(profile_path)
    unifier = MarkerUnifier.preloaded(marker_ids)
    with RawTraceReader(raw_path) as reader:
        return convert_one(
            reader,
            out_path,
            profile,
            unifier,
            frame_bytes=frame_bytes,
            frames_per_dir=frames_per_dir,
            strict=strict,
        )


def convert_one(
    reader: RawTraceReader,
    out_path: str | Path,
    profile: Profile,
    unifier: MarkerUnifier,
    *,
    frame_bytes: int = 32 * 1024,
    frames_per_dir: int = 8,
    strict: bool = True,
) -> tuple[int, int]:
    """Convert one node's raw trace; returns (events in, records out)."""

    def mismatch(message: str) -> bool:
        """Handle an unmatched end/undefined reference.  In strict mode the
        trace is corrupt and we fail; lenient mode (wrap-mode traces whose
        head was overwritten) drops the event and carries on."""
        if strict:
            raise TraceError(message)
        return True
    node_id = reader.header.node_id
    threads: dict[int, _ThreadState] = {}
    table = ThreadTable()
    tid_to_logical: dict[int, int] = {}
    local_markers: dict[int, int] = {}  # this file's local id -> global id
    used_markers: dict[int, str] = {}
    # Converted records as plain rows per interval type:
    # (bebits, start, dura, node, cpu, thread, extra).
    rows: dict[int, list[tuple]] = {}
    events = 0
    last_ts = 0

    # Synthetic logical ids (for wrap-mode traces whose THREAD_INFO was
    # overwritten) are allocated from the top of the 512-per-node space so
    # they cannot collide with real, low-numbered logical ids.
    synthetic_ltid = [MAX_THREADS_PER_NODE - 1]

    def logical_of(system_tid: int) -> int:
        logical = tid_to_logical.get(system_tid)
        if logical is None:
            logical = synthetic_ltid[0]
            synthetic_ltid[0] -= 1
            tid_to_logical[system_tid] = logical
            table.add(
                ThreadEntry(
                    -1, 0, system_tid, node_id, logical, 2,
                    f"<lost thread {system_tid}>",
                )
            )
        return logical

    def state_of(system_tid: int) -> _ThreadState:
        if system_tid not in threads:
            threads[system_tid] = _ThreadState(system_tid)
        return threads[system_tid]

    def close_state(ts: _ThreadState, st: _OpenState, t: int) -> None:
        """Pop a finished state and emit its pieces with bebits."""
        st.suspend(t)
        if not st.pieces:
            # A state with no on-CPU time still gets a zero-duration record
            # so counting by type stays correct.
            st.pieces.append((st.opened_at, st.opened_at, st.piece_cpu))
        emit_pieces(ts, st)

    def emit_pieces(ts: _ThreadState, st: _OpenState) -> None:
        of_type = rows.setdefault(st.itype, [])
        thread = logical_of(ts.system_tid)
        n = len(st.pieces)
        for i, (start, end, cpu) in enumerate(st.pieces):
            if n == 1:
                bebits = BeBits.COMPLETE
            elif i == 0:
                bebits = BeBits.BEGIN
            elif i == n - 1:
                bebits = BeBits.END
            else:
                bebits = BeBits.CONTINUATION
            # The state is closed: its pieces can share its extra fields.
            of_type.append((bebits, start, end - start, node_id, cpu, thread, st.extra))

    for event in reader:
        events += 1
        t = event.local_ts
        last_ts = max(last_ts, t)
        hook = event.hook_id

        if hook == HookId.GLOBAL_CLOCK:
            rows.setdefault(IntervalType.CLOCKPAIR, []).append(
                (BeBits.COMPLETE, t, 0, node_id, 0, 0, {"globalTs": event.args[0]})
            )
            continue
        if hook == HookId.THREAD_INFO:
            pid, task_raw, category, logical_tid = event.args[:4]
            mpi_task = -1 if task_raw == 0xFFFFFFFF else int(task_raw)
            tid_to_logical[event.system_tid] = int(logical_tid)
            table.add(
                ThreadEntry(
                    mpi_task,
                    int(pid),
                    event.system_tid,
                    node_id,
                    int(logical_tid),
                    int(category),
                    event.text,
                )
            )
            continue
        if hook in (HookId.TRACE_ON, HookId.TRACE_OFF):
            continue
        if hook == HookId.MARKER_DEFINE:
            local_id = int(event.args[0])
            global_id = unifier.unify(event.text)
            local_markers[local_id] = global_id
            used_markers[global_id] = event.text
            continue

        ts = state_of(event.system_tid)

        if hook == HookId.DISPATCH:
            ts.on_cpu = event.cpu
            if ts.stack:
                ts.top().resume(t, event.cpu)
            else:
                # Dispatch with no open state: a Running state begins.
                st = _OpenState(IntervalType.RUNNING, t)
                st.resume(t, event.cpu)
                ts.stack.append(st)
            continue
        if hook == HookId.UNDISPATCH:
            top = ts.top()
            if top is not None:
                top.suspend(t)
                if top.itype == IntervalType.RUNNING and len(ts.stack) == 1:
                    # Keep Running open across de-schedules; it closes when a
                    # new state pushes or the trace ends.
                    pass
            ts.on_cpu = None
            continue

        cpu = event.cpu
        if is_mpi_begin(hook):
            _push_state(
                ts, t, cpu,
                IntervalType.for_mpi_fn(mpi_fn_of_hook(hook)),
                _mpi_begin_extra(mpi_fn_of_hook(hook), event.args),
                close_state,
            )
            continue
        if is_mpi_end(hook):
            fn = mpi_fn_of_hook(hook)
            itype = IntervalType.for_mpi_fn(fn)
            top = ts.top()
            if top is None or top.itype != itype:
                if mismatch(
                    f"node {node_id} tid {event.system_tid}: "
                    f"MPI end for type {itype} does not match open state"
                ):
                    continue
            if fn == _WAITALL_FN:
                # Waitall ends carry the completed receives' sequence
                # numbers; they become a vector field on the interval.
                if event.args:
                    top.extra["seqnos"] = [int(s) for s in event.args]
            elif fn in _RECV_LIKE and len(event.args) >= 4:
                src, tag, size, seqno = event.args[:4]
                top.extra["peer"] = as_signed(src)
                top.extra["tag"] = as_signed(tag)
                top.extra["msgSizeRecv"] = int(size)
                top.extra["seqno"] = int(seqno)
            ts.stack.pop()
            close_state(ts, top, t)
            _reopen_below(ts, t)
            continue
        if hook == HookId.MARKER_BEGIN:
            local_id = int(event.args[0])
            global_id = local_markers.get(local_id)
            if global_id is None:
                if strict:
                    raise TraceError(
                        f"node {node_id}: marker begin for undefined local id {local_id}"
                    )
                # Wrap mode overwrote the MARKER_DEFINE: synthesize a name so
                # the region is still visible.
                global_id = unifier.unify(f"<lost marker {node_id}/{local_id}>")
                local_markers[local_id] = global_id
                used_markers[global_id] = f"<lost marker {node_id}/{local_id}>"
            extra = {"markerId": global_id}
            if len(event.args) > 1:
                extra["beginAddr"] = int(event.args[1])
            _push_state(ts, t, cpu, IntervalType.MARKER, extra, close_state)
            continue
        if hook == HookId.IO_BEGIN:
            size, write, addr = (list(event.args) + [0, 0, 0])[:3]
            _push_state(
                ts, t, cpu, IntervalType.IO,
                {"ioBytes": int(size), "ioWrite": int(write), "addr": int(addr)},
                close_state,
            )
            continue
        if hook == HookId.IO_END:
            top = ts.top()
            if top is None or top.itype != IntervalType.IO:
                if mismatch(
                    f"node {node_id}: I/O end does not match an open I/O state"
                ):
                    continue
            ts.stack.pop()
            close_state(ts, top, t)
            _reopen_below(ts, t)
            continue
        if hook == HookId.PAGEFAULT_BEGIN:
            _push_state(
                ts, t, cpu, IntervalType.PAGEFAULT,
                {"addr": int(event.args[0]) if event.args else 0},
                close_state,
            )
            continue
        if hook == HookId.PAGEFAULT_END:
            top = ts.top()
            if top is None or top.itype != IntervalType.PAGEFAULT:
                if mismatch(
                    f"node {node_id}: page-fault end does not match an open fault"
                ):
                    continue
            ts.stack.pop()
            close_state(ts, top, t)
            _reopen_below(ts, t)
            continue
        if hook == HookId.MARKER_END:
            local_id = int(event.args[0])
            global_id = local_markers.get(local_id)
            top = ts.top()
            if top is None or top.itype != IntervalType.MARKER or (
                global_id is not None and top.extra.get("markerId") != global_id
            ):
                if mismatch(
                    f"node {node_id}: marker end (local id {local_id}) does not "
                    "match the innermost open marker"
                ):
                    continue
            if len(event.args) > 1:
                top.extra["endAddr"] = int(event.args[1])
            ts.stack.pop()
            close_state(ts, top, t)
            _reopen_below(ts, t)
            continue
        raise TraceError(f"unhandled hook 0x{hook:x} in conversion")

    # Trace over: close anything still open (trace stopped mid-state).
    for ts in threads.values():
        while ts.stack:
            st = ts.stack.pop()
            close_state(ts, st, last_ts)

    batch = batch_from_rows(rows, profile, MASK_ALL_PER_NODE)
    # Stable, so rows equal in every key keep the order they were emitted in.
    batch = batch.take(np.lexsort((batch.itype, batch.thread, batch.start, batch.end)))
    with IntervalFileWriter(
        out_path,
        profile,
        table,
        markers=used_markers,
        node_cpus={node_id: reader.header.n_cpus},
        field_mask=MASK_ALL_PER_NODE,
        frame_bytes=frame_bytes,
        frames_per_dir=frames_per_dir,
    ) as writer:
        writer.write_batch(batch)
    return events, batch.n


def _push_state(ts: _ThreadState, t: int, cpu: int, itype: int, extra: dict, close_state) -> None:
    """Enter a new state: suspend (or finish, for Running) the current top."""
    top = ts.top()
    if top is not None:
        if top.itype == IntervalType.RUNNING:
            # Running is the default filler — a real state replaces it.
            ts.stack.pop()
            close_state(ts, top, t)
        else:
            top.suspend(t)
    st = _OpenState(itype, t, extra)
    if ts.on_cpu is not None:
        st.resume(t, cpu)
    ts.stack.append(st)


def _reopen_below(ts: _ThreadState, t: int) -> None:
    """After a pop, the newly exposed state resumes (or Running restarts)."""
    if ts.on_cpu is None:
        return
    top = ts.top()
    if top is not None:
        top.resume(t, ts.on_cpu)
    else:
        st = _OpenState(IntervalType.RUNNING, t)
        st.resume(t, ts.on_cpu)
        ts.stack.append(st)


def _mpi_begin_extra(fn_id: int, args: tuple[int, ...]) -> dict:
    """Decode an MPI begin event's payload into interval extra fields."""
    name = MPI_FN_NAMES[fn_id]
    extra: dict = {}
    if name in ("MPI_Send", "MPI_Isend", "MPI_Ssend", "MPI_Sendrecv"):
        peer, tag, size, seqno, addr = (list(args) + [0] * 5)[:5]
        extra = {
            "peer": as_signed(peer),
            "tag": as_signed(tag),
            "msgSizeSent": int(size),
            "seqno": int(seqno),
            "addr": int(addr),
        }
    elif name in ("MPI_Recv", "MPI_Irecv"):
        src, tag, _size, _seqno, addr = (list(args) + [0] * 5)[:5]
        extra = {"peer": as_signed(src), "tag": as_signed(tag), "addr": int(addr)}
    elif name in ("MPI_Wait", "MPI_Waitall"):
        extra = {"addr": int(args[0]) if args else 0}
    else:  # collectives: (root, bytes, coll_seq, addr)
        root, size, _seq, addr = (list(args) + [0] * 4)[:4]
        extra = {"root": as_signed(root), "msgSize": int(size), "addr": int(addr)}
    return extra
