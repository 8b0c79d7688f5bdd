"""Helpers shared by the four workloads."""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Ctx:
    """One run's inputs: everything random derives from ``seed``."""

    seed: int
    sizes: dict
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)


class Replays:
    """Times of one fixed, seeded list of operations replayed again and
    again until the run's seconds are spent.

    Every replay does exactly the same work, so the samples of one key (an
    operation of the list, or one stage of it) differ only by what the
    machine added.  The sandbox's host slows the guest in bursts — a few
    milliseconds to a few seconds, 10-100 % — and interference only ever
    adds time, so the **floor** of a key, its lowest sample, is the least
    contaminated reading; the shorter the keyed piece of work, the likelier
    one of its replays ran undisturbed.  End-to-end numbers are built from
    floors: a median over the list's operations (the spread users see comes
    from the inputs), or the list's operations per second of summed floors."""

    def __init__(self) -> None:
        self.samples: dict[Any, list[float]] = {}

    def add(self, key: Any, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)

    def floor(self, key: Any) -> float:
        return min(self.samples[key])

    def floors(self, match: Callable[[Any], bool] = lambda key: True) -> list[float]:
        """The floors of every key ``match`` accepts, in first-seen order."""
        return [min(xs) for key, xs in self.samples.items() if match(key)]


def replay_until(seconds: float):
    """Replay numbers 0, 1, 2, ... while another replay still fits into
    ``seconds`` (going by the last one's length), at least two of them
    (replay 0 is the warm-up every workload discards)."""
    deadline = time.perf_counter() + seconds
    n, last = 0, 0.0
    while n < 2 or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        yield n
        last = time.perf_counter() - start
        n += 1


@dataclass
class Outcome:
    """What one measured phase produced."""

    values: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Sample counts behind the medians, by metric family.
    samples: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(xs)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``fn`` once after a collection; returns (result, seconds).

    The collection keeps one operation's garbage from being billed to the
    next; the heap the set-up built is frozen (``gc.freeze``) by the runner,
    so it costs microseconds."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def peak_rss_mb() -> float:
    """This process's high-water resident set."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
