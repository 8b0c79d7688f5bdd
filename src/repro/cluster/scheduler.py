"""Preemptive per-node thread scheduler.

Each SMP node runs a round-robin scheduler with a time quantum over its
processors.  Threads are generator coroutines (see
:mod:`repro.cluster.program`).  The scheduler:

* dispatches ready threads onto the lowest-numbered free processor — so a
  preempted thread frequently *migrates* to a different CPU when it next
  runs, reproducing the CPU-hopping the paper's processor-activity view
  (Figure 9) makes visible;
* preempts a computing thread at quantum boundaries when other threads are
  ready;
* announces every dispatch and undispatch to registered listeners; the trace
  facility records these as thread-dispatch events, which is what lets the
  convert utility split MPI intervals into begin/continuation/end pieces.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Any, Callable

from repro.cluster.engine import Engine, Future
from repro.cluster.program import Compute, Sleep, Spawn, ThreadBody, Wait, YieldCPU
from repro.errors import SimulationError

#: Default scheduling quantum: 10 ms, the classic AIX timeslice.
DEFAULT_QUANTUM_NS = 10_000_000


class ThreadCategory(str, Enum):
    """Thread categories, matching the paper's thread-table partitioning
    (section 2.3.3): MPI threads, user-defined threads, system threads."""

    MPI = "mpi"
    USER = "user"
    SYSTEM = "system"


class ThreadState(str, Enum):
    """Lifecycle states of a simulated thread."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class SimThread:
    """A simulated kernel thread.

    Identity fields mirror the paper's thread-table entry: an MPI task ID
    (``mpi_task``, or None for non-MPI processes), a process ID, a system
    thread ID, the node ID, a per-node logical thread ID, and a category.
    """

    __slots__ = (
        "system_tid",
        "logical_tid",
        "pid",
        "mpi_task",
        "node_id",
        "name",
        "category",
        "state",
        "gen",
        "remaining_ns",
        "cpu",
        "last_cpu",
        "done_future",
        "result",
    )

    def __init__(
        self,
        gen: ThreadBody,
        *,
        system_tid: int,
        node_id: int,
        logical_tid: int,
        pid: int,
        mpi_task: int | None,
        name: str,
        category: ThreadCategory,
    ) -> None:
        self.system_tid = system_tid
        self.logical_tid = logical_tid
        self.pid = pid
        self.mpi_task = mpi_task
        self.node_id = node_id
        self.name = name
        self.category = category
        self.state = ThreadState.NEW
        self.gen = gen
        self.remaining_ns = 0
        self.cpu: int | None = None
        self.last_cpu: int | None = None
        self.done_future = Future()
        self.result: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimThread {self.name!r} node={self.node_id} ltid={self.logical_tid} "
            f"{self.state.value}>"
        )


# Listener signature: (kind, time_ns, node_id, cpu_id, thread)
DispatchListener = Callable[[str, int, int, int, SimThread], None]


class NodeScheduler:
    """Round-robin preemptive scheduler for one SMP node."""

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        n_cpus: int,
        quantum_ns: int = DEFAULT_QUANTUM_NS,
        affinity: bool = False,
    ) -> None:
        if n_cpus < 1:
            raise SimulationError(f"node {node_id}: need at least one CPU, got {n_cpus}")
        if quantum_ns < 1:
            raise SimulationError(f"node {node_id}: quantum must be positive")
        self.engine = engine
        self.node_id = node_id
        self.n_cpus = n_cpus
        self.quantum_ns = quantum_ns
        #: With affinity, a waking thread is placed back on the processor it
        #: last ran on when that processor is free (warm caches); without
        #: it, placement is lowest-free-CPU — which is what makes threads
        #: migrate, the phenomenon the paper's Figure 9 exposes.
        self.affinity = affinity
        self.cpus: list[SimThread | None] = [None] * n_cpus
        self.ready: deque[SimThread] = deque()
        self.threads: list[SimThread] = []
        self.listeners: list[DispatchListener] = []
        self._dispatch_scheduled = False
        # Value to send into a thread's generator at its next dispatch
        # (the result of the Wait/Sleep that blocked it).
        self._pending_values: dict[SimThread, Any] = {}
        #: The thread whose generator is currently executing (like the OS's
        #: "current" pointer); lets code running inside a thread body — the
        #: MPI wrappers — discover which thread is making the call.
        self.current: SimThread | None = None

    # ------------------------------------------------------------------ API

    def add_listener(self, listener: DispatchListener) -> None:
        """Register a dispatch/undispatch listener (e.g. the trace facility)."""
        self.listeners.append(listener)

    def spawn(
        self,
        body: Callable[..., ThreadBody],
        *args: Any,
        name: str = "",
        category: ThreadCategory = ThreadCategory.USER,
        pid: int = 0,
        mpi_task: int | None = None,
    ) -> SimThread:
        """Create a thread on this node and enqueue it for dispatch."""
        gen = body(*args)
        thread = SimThread(
            gen,
            system_tid=self.engine.next_system_tid(),
            node_id=self.node_id,
            logical_tid=len(self.threads),
            pid=pid,
            mpi_task=mpi_task,
            name=name or f"thread-{len(self.threads)}",
            category=category,
        )
        self.threads.append(thread)
        self._make_ready(thread)
        return thread

    def idle_cpus(self) -> int:
        """Number of processors with no thread currently dispatched."""
        return sum(1 for t in self.cpus if t is None)

    def live_threads(self) -> list[SimThread]:
        """Threads that have not finished."""
        return [t for t in self.threads if t.state is not ThreadState.DONE]

    # -------------------------------------------------------------- internals

    def _notify(self, kind: str, cpu: int, thread: SimThread) -> None:
        now = self.engine.now
        for listener in self.listeners:
            listener(kind, now, self.node_id, cpu, thread)

    def _make_ready(self, thread: SimThread) -> None:
        thread.state = ThreadState.READY
        self.ready.append(thread)
        self._schedule_dispatch()

    def _schedule_dispatch(self) -> None:
        # Defer dispatching to a zero-delay engine event so that spawns and
        # wake-ups occurring inside another thread's advance never recurse.
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.engine.schedule(0, self._dispatch_ready)

    def _dispatch_ready(self) -> None:
        self._dispatch_scheduled = False
        while self.ready:
            cpu = self._free_cpu()
            if cpu is None:
                return
            thread = self.ready.popleft()
            if thread.state is not ThreadState.READY:  # pragma: no cover
                raise SimulationError(f"{thread!r} in ready queue but not READY")
            if (
                self.affinity
                and thread.last_cpu is not None
                and self.cpus[thread.last_cpu] is None
            ):
                cpu = thread.last_cpu
            self._dispatch(thread, cpu)

    def _free_cpu(self) -> int | None:
        for i, occupant in enumerate(self.cpus):
            if occupant is None:
                return i
        return None

    def _dispatch(self, thread: SimThread, cpu: int) -> None:
        thread.state = ThreadState.RUNNING
        thread.cpu = cpu
        self.cpus[cpu] = thread
        self._notify("dispatch", cpu, thread)
        if thread.remaining_ns > 0:
            self._run_slice(thread)
        else:
            self._advance(thread, self._pending_values.pop(thread, None))

    def _undispatch(self, thread: SimThread, new_state: ThreadState) -> None:
        cpu = thread.cpu
        if cpu is None or self.cpus[cpu] is not thread:  # pragma: no cover
            raise SimulationError(f"{thread!r} not on a CPU")
        self.cpus[cpu] = None
        thread.cpu = None
        thread.last_cpu = cpu
        thread.state = new_state
        self._notify("undispatch", cpu, thread)
        self._schedule_dispatch()

    def _run_slice(self, thread: SimThread) -> None:
        slice_ns = min(self.quantum_ns, thread.remaining_ns)
        self.engine.schedule(slice_ns, self._slice_done, thread, slice_ns)

    def _slice_done(self, thread: SimThread, slice_ns: int) -> None:
        if thread.state is not ThreadState.RUNNING:  # pragma: no cover
            raise SimulationError(f"slice completion for non-running {thread!r}")
        thread.remaining_ns -= slice_ns
        if thread.remaining_ns > 0:
            if self.ready:
                # Quantum expired with other work waiting: preempt.
                self._undispatch(thread, ThreadState.READY)
                self.ready.append(thread)
            else:
                self._run_slice(thread)
            return
        self._advance(thread, None)

    def _advance(self, thread: SimThread, send_value: Any) -> None:
        """Drive the generator until it issues a time-consuming request."""
        while True:
            try:
                self.current = thread
                try:
                    request = thread.gen.send(send_value)
                finally:
                    self.current = None
            except StopIteration as stop:
                thread.result = stop.value
                self._undispatch(thread, ThreadState.DONE)
                thread.done_future.set_result(stop.value)
                return
            send_value = None
            if isinstance(request, Compute):
                if request.ns == 0:
                    continue
                thread.remaining_ns = request.ns
                self._run_slice(thread)
                return
            if isinstance(request, Wait):
                future = request.future
                if future.done:
                    send_value = future.value
                    continue
                self._undispatch(thread, ThreadState.BLOCKED)
                future.add_callback(lambda fut, t=thread: self._wake(t, fut.value))
                return
            if isinstance(request, Sleep):
                if request.ns == 0:
                    continue
                self._undispatch(thread, ThreadState.BLOCKED)
                self.engine.schedule(request.ns, self._wake, thread, None)
                return
            if isinstance(request, Spawn):
                child = self.spawn(
                    request.body,
                    *request.args,
                    name=request.name,
                    category=ThreadCategory(request.category),
                    pid=thread.pid,
                    mpi_task=thread.mpi_task,
                )
                send_value = child
                continue
            if isinstance(request, YieldCPU):
                if self.ready:
                    self._undispatch(thread, ThreadState.READY)
                    self.ready.append(thread)
                    return
                continue
            raise SimulationError(
                f"thread {thread.name!r} yielded unsupported request {request!r}"
            )

    def _wake(self, thread: SimThread, value: Any) -> None:
        if thread.state is not ThreadState.BLOCKED:  # pragma: no cover
            raise SimulationError(f"wake of non-blocked {thread!r}")
        # Stash the resume value on the generator by priming remaining_ns=0
        # and advancing with the value once the thread is re-dispatched.
        thread.state = ThreadState.READY
        thread.remaining_ns = 0
        self.ready.append(thread)
        self._pending_values[thread] = value
        self._schedule_dispatch()
