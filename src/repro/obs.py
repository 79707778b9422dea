"""Process-wide instrumentation: dependency-free Prometheus-text metrics.

The bottom of the stack: this module imports only the standard library,
so every layer — the campaign runner, the job service, and the engines
below them — can instrument itself without importing anything above it.

Three instrument types, all label-aware and thread-safe:

:class:`Counter`
    Monotonic float per label set (``inc``).  Campaign task outcomes,
    HTTP requests, cache hits.
:class:`Gauge`
    Settable value per label set (``set``/``inc``/``dec``).  Jobs in
    flight, per-campaign coverage.
:class:`Histogram`
    Cumulative-bucket observation counts plus ``_sum``/``_count``
    (``observe``), rendered with the ``le`` convention Prometheus
    expects.  Task runtimes per engine, API request latency.

Instruments are created through the registry (:meth:`Registry.counter`
et al. — get-or-create, so modules can call them at import time in any
order) and rendered with :meth:`Registry.render` in the `Prometheus
text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_,
without a dependency on ``prometheus_client``.  The same registry is
importable in-process, so tests and benchmarks assert on live counter
values instead of scraping text.  A registry also accepts **collector
callbacks** (:meth:`Registry.collect`) that run at render time — the
bridge for counters owned elsewhere as plain dicts (the service wires
the cache counters in through
:func:`repro.service.metrics.install_cache_collectors`).

The process-wide default registry is :data:`REGISTRY`; the module-level
:func:`counter`/:func:`gauge`/:func:`histogram` helpers target it.

Doctest::

    >>> reg = Registry()
    >>> c = reg.counter("demo_total", "Demo counter", ("kind",))
    >>> c.labels(kind="a").inc()
    >>> c.labels(kind="a").inc(2.0)
    >>> c.labels(kind="a").value
    3.0
    >>> print(reg.render().strip())
    # HELP demo_total Demo counter
    # TYPE demo_total counter
    demo_total{kind="a"} 3.0
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Sequence

#: Default histogram buckets (seconds) — the prometheus_client
#: defaults, good for both millisecond API calls and multi-second
#: campaign cells.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label_value(value: str) -> str:
    """Backslash-escape a label value per the exposition format."""
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')
    )


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ", ".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


def _format_value(value: float) -> str:
    """Prometheus-style number: floats as-is, +Inf spelled out."""
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


class _Child:
    """One label-set's cell of a counter/gauge (holds the float)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class _Metric:
    """Shared name/help/label bookkeeping for all instrument types."""

    type_name = "untyped"

    def __init__(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}

    def _child_for(self, labelvalues: tuple) -> object:
        with self._lock:
            child = self._children.get(labelvalues)
            if child is None:
                child = self._new_child()
                self._children[labelvalues] = child
            return child

    def _new_child(self) -> object:
        raise NotImplementedError

    def labels(self, *values, **kwvalues):
        """The child for one label set (positional or keyword form)."""
        if kwvalues:
            if values:
                raise ValueError("pass labels positionally or by name")
            values = tuple(kwvalues[name] for name in self.labelnames)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {values!r}"
            )
        return self._child_for(tuple(str(v) for v in values))

    def _default_child(self):
        """The label-less child (only valid without labelnames)."""
        if self.labelnames:
            raise ValueError(f"{self.name}: labels required")
        return self.labels()

    def samples(self) -> list[tuple[str, str, float]]:
        """(suffix, label-block, value) rows in insertion order."""
        raise NotImplementedError

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.type_name}",
        ]
        for suffix, labelblock, value in self.samples():
            lines.append(
                f"{self.name}{suffix}{labelblock} {_format_value(value)}"
            )
        return "\n".join(lines)


class Counter(_Metric):
    """Monotonic counter (per label set)."""

    type_name = "counter"

    def _new_child(self) -> _Child:
        return _Child(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value

    def value_for(self, **kwvalues) -> float:
        """Current value of one label set (0.0 if never incremented)."""
        return self.labels(**kwvalues).value

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return sum(child.value for child in self._children.values())

    def samples(self) -> list[tuple[str, str, float]]:
        with self._lock:
            return [
                ("", _format_labels(self.labelnames, values), child.value)
                for values, child in self._children.items()
            ]


class Gauge(Counter):
    """Settable instantaneous value (per label set)."""

    type_name = "gauge"

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)


class _HistogramChild:
    """One label-set's buckets/sum/count."""

    __slots__ = ("_lock", "bounds", "bucket_counts", "sum", "count")

    def __init__(
        self, lock: threading.Lock, bounds: tuple[float, ...]
    ) -> None:
        self._lock = lock
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            # Per-bucket (non-cumulative) counts; ``samples`` cumulates
            # them into the ``le`` convention at render time.
            index = bisect.bisect_left(self.bounds, value)
            self.bucket_counts[min(index, len(self.bounds) - 1)] += 1


class Histogram(_Metric):
    """Cumulative-bucket histogram with ``_sum`` and ``_count``."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if bounds and bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.buckets = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def samples(self) -> list[tuple[str, str, float]]:
        rows: list[tuple[str, str, float]] = []
        with self._lock:
            children = list(self._children.items())
        for values, child in children:
            cumulative = 0
            for bound, n in zip(child.bounds, child.bucket_counts):
                cumulative += n
                rows.append((
                    "_bucket",
                    _format_labels(
                        self.labelnames + ("le",),
                        values + (_format_value(bound),),
                    ),
                    float(cumulative),
                ))
            base = _format_labels(self.labelnames, values)
            rows.append(("_sum", base, child.sum))
            rows.append(("_count", base, float(child.count)))
        return rows


class Registry:
    """A named collection of instruments plus render-time collectors.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same instrument (and raises if the
    second request disagrees on type or labels), so any module can
    declare the metrics it touches without an initialisation order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[["Registry"], None]] = []

    def _get_or_create(self, cls, name, help_text, labelnames, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls) or (
                    metric.labelnames != tuple(labelnames)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        "different type or label set"
                    )
                return metric
            metric = cls(name, help_text, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name: str) -> _Metric | None:
        """Look up an instrument without creating it."""
        with self._lock:
            return self._metrics.get(name)

    def collect(self, callback: Callable[["Registry"], None]) -> None:
        """Register a render-time callback (idempotent by identity).

        Collectors bridge counters owned outside the registry: each
        ``render`` first calls every collector, which typically sets
        gauges from some module's plain-dict stats.
        """
        with self._lock:
            if callback not in self._collectors:
                self._collectors.append(callback)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        with self._lock:
            collectors = list(self._collectors)
        for callback in collectors:
            callback(self)
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        blocks = [metric.render() for metric in metrics]
        return "\n".join(blocks) + ("\n" if blocks else "")

    def reset(self) -> None:
        """Drop every instrument and collector (tests only)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()


#: The process-wide default registry — what ``GET /metrics`` renders
#: and what the campaign runner instruments.
REGISTRY = Registry()


def counter(
    name: str, help_text: str, labelnames: Sequence[str] = ()
) -> Counter:
    """Get-or-create a counter on the default registry."""
    return REGISTRY.counter(name, help_text, labelnames)


def gauge(
    name: str, help_text: str, labelnames: Sequence[str] = ()
) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return REGISTRY.gauge(name, help_text, labelnames)


def histogram(
    name: str,
    help_text: str,
    labelnames: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> Histogram:
    """Get-or-create a histogram on the default registry."""
    return REGISTRY.histogram(name, help_text, labelnames, buckets=buckets)
