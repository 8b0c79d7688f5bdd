"""Deterministic discrete-event simulation engine.

Simulation time is an integer count of nanoseconds of *true* time — the time
kept by the (drift-free) switch adapter clock in the paper's SP systems.
Events scheduled for the same instant fire in scheduling order, which makes
every simulation run bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import SimulationError

NS_PER_SEC = 1_000_000_000


def seconds_to_ns(seconds: float) -> int:
    """Convert a float duration in seconds to integer nanoseconds."""
    return int(round(seconds * NS_PER_SEC))


def ns_to_seconds(ns: int) -> float:
    """Convert integer nanoseconds to float seconds."""
    return ns / NS_PER_SEC


class EventHandle:
    """Handle to a scheduled event; allows cancellation.

    Cancellation is lazy: the heap entry stays put and is skipped when popped.
    ``daemon`` events (periodic background activity like the global-clock
    sampler) never keep the simulation alive on their own: :meth:`Engine.run`
    stops once only daemon events remain.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "daemon")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        daemon: bool = False,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.daemon = daemon

    def cancel(self) -> None:
        """Cancel the event; a cancelled event never fires."""
        self.cancelled = True

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


class Engine:
    """A minimal, deterministic discrete-event scheduler.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(5, fired.append, 'a')
    >>> _ = eng.schedule(3, fired.append, 'b')
    >>> eng.run()
    >>> fired
    ['b', 'a']
    >>> eng.now
    5
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[EventHandle] = []
        self._seq = 0
        self._running = False
        # Count of queued non-daemon events; when it hits zero only daemon
        # activity remains and run() stops.
        self._live = 0
        self._system_tids = itertools.count(1000)

    def next_system_tid(self) -> int:
        """A system thread id unique on the machine this engine drives.
        Per engine, not per process: a run's thread table does not depend
        on what was simulated before it."""
        return next(self._system_tids)

    def schedule(
        self, delay_ns: int, fn: Callable[..., None], *args: Any, daemon: bool = False
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to fire ``delay_ns`` nanoseconds from now."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay_ns})")
        return self.schedule_at(self.now + delay_ns, fn, *args, daemon=daemon)

    def schedule_at(
        self, time_ns: int, fn: Callable[..., None], *args: Any, daemon: bool = False
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to fire at absolute time ``time_ns``."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule an event at t={time_ns} before now={self.now}"
            )
        self._seq += 1
        handle = EventHandle(time_ns, self._seq, fn, args, daemon=daemon)
        heapq.heappush(self._queue, handle)
        if not daemon:
            self._live += 1
        return handle

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for h in self._queue if not h.cancelled)

    def step(self) -> bool:
        """Fire the single next event.  Returns False if the queue is empty."""
        while self._queue:
            handle = heapq.heappop(self._queue)
            if not handle.daemon:
                self._live -= 1
            if handle.cancelled:
                continue
            self.now = handle.time
            handle.fn(*handle.args)
            return True
        return False

    def run(self, until_ns: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, ``until_ns`` is reached, or
        ``max_events`` have fired.  Returns the number of events fired.

        When ``until_ns`` is given and the queue still holds later events,
        ``now`` is advanced exactly to ``until_ns``.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        fired = 0
        try:
            while self._queue and self._live > 0:
                if max_events is not None and fired >= max_events:
                    break
                head = self._queue[0]
                if head.cancelled:
                    if not head.daemon:
                        self._live -= 1
                    heapq.heappop(self._queue)
                    continue
                if until_ns is not None and head.time > until_ns:
                    self.now = until_ns
                    break
                self.step()
                fired += 1
            else:
                if until_ns is not None and until_ns > self.now:
                    self.now = until_ns
        finally:
            self._running = False
        return fired


class Future:
    """A one-shot synchronization cell usable from simulated threads.

    A simulated thread blocks on a future by yielding
    :class:`repro.cluster.program.Wait`; any code (network delivery, another
    thread, an engine callback) resolves it with :meth:`set_result`.
    """

    __slots__ = ("_done", "_value", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._callbacks: list[Callable[["Future"], None]] = []

    @property
    def done(self) -> bool:
        """Whether the future has been resolved."""
        return self._done

    @property
    def value(self) -> Any:
        """The resolved value; raises if not yet resolved."""
        if not self._done:
            raise SimulationError("Future.value read before resolution")
        return self._value

    def set_result(self, value: Any = None) -> None:
        """Resolve the future, waking anything waiting on it."""
        if self._done:
            raise SimulationError("Future resolved twice")
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Future"], None]) -> None:
        """Invoke ``cb(self)`` when resolved (immediately if already done)."""
        if self._done:
            cb(self)
        else:
            self._callbacks.append(cb)
