"""Prometheus-style metrics for the serving daemon (stdlib only).

A tiny exposition-format implementation: counters with fixed label names,
one latency histogram, and callback gauges that sample live values (the
repository's ``metrics()`` snapshot) at scrape time.  Rendering follows the
text format::

    # HELP ute_serve_requests_total Requests handled.
    # TYPE ute_serve_requests_total counter
    ute_serve_requests_total{route="/api/preview",status="200"} 12

Only what ``/metrics`` needs — not a general client library.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

#: Latency buckets (seconds) for the request histogram.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


def _fmt(value: float) -> str:
    """Prometheus number formatting: integers without a trailing ``.0``."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(f'{n}="{_escape_label(v)}"' for n, v in zip(names, values))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing counter, optionally labelled."""

    def __init__(self, name: str, help_text: str, labelnames: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = labelnames
        self._values: dict[tuple[str, ...], float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = tuple(str(labels.get(n, "")) for n in self.labelnames)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = tuple(str(labels.get(n, "")) for n in self.labelnames)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> Iterable[str]:
        yield f"# HELP {self.name} {self.help_text}"
        yield f"# TYPE {self.name} counter"
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for key, value in items:
            yield f"{self.name}{_labels_text(self.labelnames, key)} {_fmt(value)}"


class Histogram:
    """A cumulative histogram with fixed buckets (request latency)."""

    def __init__(
        self, name: str, help_text: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +inf last
        self._sum = 0.0
        self._total = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._total += 1
            for i, edge in enumerate(self.buckets):
                if value <= edge:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket edges (benchmark assertions)."""
        with self._lock:
            total = self._total
            if not total:
                return 0.0
            target = q * total
            running = 0
            for i, edge in enumerate(self.buckets):
                running += self._counts[i]
                if running >= target:
                    return edge
            return float("inf")

    def render(self) -> Iterable[str]:
        yield f"# HELP {self.name} {self.help_text}"
        yield f"# TYPE {self.name} histogram"
        with self._lock:
            counts = list(self._counts)
            total = self._total
            total_sum = self._sum
        running = 0
        for i, edge in enumerate(self.buckets):
            running += counts[i]
            yield f'{self.name}_bucket{{le="{_fmt(edge)}"}} {running}'
        yield f'{self.name}_bucket{{le="+Inf"}} {total}'
        yield f"{self.name}_sum {_fmt(round(total_sum, 9))}"
        yield f"{self.name}_count {total}"


class Gauge:
    """A gauge sampled from a callback at scrape time.  The callback
    returns a number, or — for a family broken down per dataset — a
    ``{dataset: number}`` dict, rendered one sample per key."""

    def __init__(self, name: str, help_text: str, fn: Callable[[], Any]) -> None:
        self.name = name
        self.help_text = help_text
        self.fn = fn

    def render(self) -> Iterable[str]:
        yield f"# HELP {self.name} {self.help_text}"
        yield f"# TYPE {self.name} gauge"
        sample = self.fn()
        if not isinstance(sample, dict):
            yield f"{self.name} {_fmt(float(sample))}"
            return
        for key in sorted(sample):
            labels = _labels_text(("dataset",), (str(key),))
            yield f"{self.name}{labels} {_fmt(float(sample[key]))}"


class Registry:
    """An ordered collection of metrics, rendered as one text document."""

    def __init__(self) -> None:
        self._metrics: list[Counter | Histogram | Gauge] = []

    def counter(self, name: str, help_text: str, labelnames: tuple[str, ...] = ()) -> Counter:
        metric = Counter(name, help_text, labelnames)
        self._metrics.append(metric)
        return metric

    def histogram(
        self, name: str, help_text: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        metric = Histogram(name, help_text, buckets)
        self._metrics.append(metric)
        return metric

    def gauge(self, name: str, help_text: str, fn: Callable[[], Any]) -> Gauge:
        metric = Gauge(name, help_text, fn)
        self._metrics.append(metric)
        return metric

    def render(self) -> str:
        lines: list[str] = []
        for metric in self._metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"
