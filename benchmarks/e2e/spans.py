"""``perf_counter`` spans recorded from the benchmark's own files.

A :class:`Tracer` brackets each call the benchmark makes into a layer
(``with tracer.span("convert.convert_traces"):``) and, where a layer is only
reached *through* another (``execute`` -> ``read_frame_batch`` ->
``decode_frame_batch``), wraps the callee from outside (:meth:`Tracer.wrap`)
so the nesting is the real call path.  Nothing under ``src/`` is edited;
spans inside the program are ROADMAP item 2.

Spans stay in memory and are written at exit as Chrome trace-event JSON —
``ute-convert --from chrome-json`` imports it, ``ute-view`` draws it, and
``breakdown.py`` derives the per-layer numbers from it.  A disabled tracer
hands out one shared no-op span and wraps nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable


class Span:
    """One timed call: name, start, end, the span that caused it, and the
    id of the workload operation it belongs to."""

    __slots__ = ("id", "name", "start", "end", "parent", "op", "tid", "args",
                 "_stack")

    def __init__(self, sid: int, name: str, parent: "Span | None", op: int,
                 tid: int, args: dict, stack: list | None) -> None:
        self.id = sid
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = None if parent is None else parent.id
        self.op = op
        self.tid = tid
        self.args = args
        self._stack = stack

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        self._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = time.perf_counter()
        self._stack.pop()


class _NullSpan:
    """What a disabled tracer hands out."""

    args: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL = _NullSpan()


class Tracer:
    """Span recorder for one workload run."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------- recording

    def span(self, name: str, **args: Any):
        """Context manager timing one call.  A span opened with no span
        active on its thread starts a new operation; nested spans inherit
        the operation id."""
        if not self.enabled:
            return _NULL
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            next(self._ids), name, parent,
            parent.op if parent is not None else next(self._ops),
            threading.get_ident(), args, stack,
        )
        self.spans.append(span)
        return span

    def add(self, name: str, start: float, end: float, parent: Span,
            **args: Any) -> None:
        """Record a span timed elsewhere (a child process's report)."""
        if not self.enabled:
            return
        span = Span(next(self._ids), name, parent, parent.op, parent.tid, args, None)
        span.start, span.end = start, end
        self.spans.append(span)

    def wrap(self, owner: Any, attr: str, name: str,
             items: Callable[[Any], int] | None = None) -> None:
        """Replace ``owner.attr`` (a module global or an instance method)
        with a version that records a span per call; ``items`` reads a work
        count off the result.  Undone by :meth:`unwrap`."""
        if not self.enabled:
            return
        original = getattr(owner, attr)
        own = attr in vars(owner)

        @functools.wraps(original)
        def traced(*a: Any, **kw: Any) -> Any:
            with self.span(name) as span:
                result = original(*a, **kw)
                if items is not None:
                    span.args["items"] = items(result)
                return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, own, original))

    def unwrap(self) -> None:
        """Restore everything :meth:`wrap` replaced."""
        while self._undo:
            owner, attr, own, original = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def span_cost_us(n: int = 20_000) -> float:
    """What recording one span costs on this machine."""
    scratch = Tracer("scratch", True)
    start = time.perf_counter()
    for _ in range(n):
        with scratch.span("x"):
            pass
    return (time.perf_counter() - start) / n * 1e6


def write_chrome_trace(path: Path, tracers: list[Tracer], other: dict) -> Path:
    """All spans as Chrome trace-event JSON (``ph: "X"``, microseconds).

    One ``pid`` per workload, one ``tid`` per recording thread; ``args``
    carries the span id, its parent and the workload operation id.
    ``other`` lands in ``otherData`` (walls and overhead per workload)."""
    events: list[dict] = []
    origin = min(
        (s.start for t in tracers for s in t.spans), default=0.0
    )
    for pid, tracer in enumerate(tracers):
        tids: dict[int, int] = {}
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": tracer.workload}})
        for span in tracer.spans:
            tid = tids.setdefault(span.tid, len(tids))
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "pid": pid,
                "tid": tid,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {
                    "id": span.id,
                    "parent": -1 if span.parent is None else span.parent,
                    "op": span.op,
                    **span.args,
                },
            })
    path.write_text(json.dumps({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }))
    return path
