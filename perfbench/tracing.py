"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces each function named in :data:`TARGETS` with a
timing wrapper.  The wrapper is bound at *every* import site: in each
loaded module whose namespace holds the original object (so both
``repro.atpg.podem.run_stuck_at_atpg`` and the copy that
``repro.campaign.tasks`` imported by name are timed), and, for methods,
in the defining class and every subclass that overrides the method.
:meth:`Tracer.restore` puts every original back.

Every call records a span: its layer, start, end and parent span (the
innermost traced call on the same thread), on the thread's CPU clock
(the benchmark's timings are CPU time; see ``workloads.clock``).  A
layer's busy time is the time of its outermost spans; its self time is the span time minus
the time of direct child spans.  Counters (faults out of a collapse,
backtracks of a PODEM run, …) are taken from the arguments and results
of outermost spans only, so a layer that calls itself is not counted
twice.  Nothing in the program changes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import re
import sys
import threading
import time
from collections import Counter
from typing import Callable


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_collapse(counts, args, kwargs, result, error):
    if error is None:
        counts["faults.collapse.faults_out"] += len(result)


def _count_fault_vectors(counts, args, kwargs, result, error):
    faults = _arg(args, kwargs, 1, "faults")
    vectors = _arg(args, kwargs, 2, "vectors")
    if error is None and faults is not None and vectors is not None:
        counts["fault_sim.fault_vectors"] += len(faults) * len(vectors)


def _count_podem(counts, args, kwargs, result, error):
    if error is not None:
        return
    counts["podem.tests"] += len(result.tests)
    counts["podem.aborted"] += len(result.aborted)
    counts["podem.untestable"] += len(result.untestable)
    counts["podem.backtracks"] += result.total_backtracks


def _count_iddq(counts, args, kwargs, result, error):
    if error is None:
        counts["iddq.vectors"] += len(result.vectors)


def _count_compaction(counts, args, kwargs, result, error):
    tests = _arg(args, kwargs, 1, "tests")
    if error is None and tests is not None:
        counts["compaction.tests_in"] += len(tests)
        counts["compaction.tests_kept"] += len(result.vectors)


_FAILED_POINTS = re.compile(r"^(\d+)/(\d+) bias points failed")


def _count_dc(counts, args, kwargs, result, error):
    points = _arg(args, kwargs, 1, "bias_points")
    counts["spice.dc.points"] += len(points) if points is not None else 0
    if result is not None:
        counts["spice.dc.failed_points"] += int((~result.converged).sum())
    elif error is not None:
        match = _FAILED_POINTS.match(str(error))
        if match:
            counts["spice.dc.failed_points"] += int(match.group(1))


Observer = Callable[[Counter, tuple, dict, object, BaseException | None], None]

#: (module, attribute or ``Class.method``, layer, counter observer).
#: Several targets may share a layer (e.g. the three fault-sim entry
#: points); a span nested in a span of its own layer adds self time but
#: no busy time and no counts.
TARGETS: tuple[tuple[str, str, str, Observer | None], ...] = (
    ("repro.campaign.registry", "Registry.load", "registry.load", None),
    ("repro.campaign.runner", "TaskSpec.build_network", "registry.load", None),
    ("repro.logic.bench_format", "parse_bench", "registry.load", None),
    ("repro.faults.universe", "FaultUniverse.collapse", "faults.collapse",
     _count_collapse),
    ("repro.logic.compiled", "compile_network", "compiled.compile", None),
    ("repro.atpg.fault_sim", "parallel_stuck_at_simulation", "fault_sim",
     _count_fault_vectors),
    ("repro.atpg.fault_sim", "polarity_detection_words", "fault_sim",
     _count_fault_vectors),
    ("repro.atpg.fault_sim", "parallel_polarity_simulation", "fault_sim",
     _count_fault_vectors),
    ("repro.atpg.podem", "run_stuck_at_atpg", "podem", _count_podem),
    ("repro.atpg.polarity_atpg", "run_polarity_atpg", "polarity_atpg", None),
    ("repro.atpg.iddq", "select_iddq_vectors", "iddq", _count_iddq),
    ("repro.atpg.sof_atpg", "run_sof_atpg", "sof_atpg", None),
    ("repro.atpg.compaction", "compact_tests", "compaction",
     _count_compaction),
    ("repro.campaign.runner", "run_campaign", "runner.campaign", None),
    ("repro.campaign.runner", "execute_task", "runner.cell", None),
    ("repro.campaign.tasks", "run_fault_class", "runner.fault_class", None),
    ("repro.campaign.backends.sqlite", "SqliteBackend.append",
     "store.append", None),
    ("repro.campaign.backends.sqlite", "SqliteBackend.latest",
     "store.latest", None),
    ("repro.campaign.backends.sqlite", "SqliteBackend.claim",
     "store.claim", None),
    ("repro.gates.builder", "build_cell_circuit", "gates.build", None),
    ("repro.spice.batched", "solve_dc_sweep", "spice.dc", _count_dc),
    ("repro.spice.transient", "run_transient", "spice.transient", None),
    ("repro.spice.batched", "run_transient_sweep", "spice.transient", None),
    ("repro.service.jobs", "JobManager.submit", "jobs.submit", None),
    ("repro.service.jobs", "JobManager.status", "jobs.status", None),
    ("repro.service.jobs", "JobManager.results", "jobs.results", None),
)

#: Layers reported with calls / busy_s / self_s, in report order.
TIMED_LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[2] for t in TARGETS))


@dataclasses.dataclass
class Span:
    layer: str
    start: float
    parent: "Span | None"
    outermost: bool
    end: float = 0.0
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters while installed.

    Use as a context manager, or call :meth:`install` and
    :meth:`restore`.  Spans are kept in memory until :meth:`layer_stats`
    reads them.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- binding -----------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, attribute, layer, observer in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                self._bind_method(
                    getattr(module, class_name), method, layer, observer
                )
            else:
                self._bind_function(
                    getattr(module, attribute), attribute, layer, observer
                )
        return self

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *_exc) -> None:
        self.restore()

    def _bind_function(self, original, name, layer, observer) -> None:
        wrapper = self._wrap(original, layer, observer)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is not None and namespace.get(name) is original:
                self._patched.append((module, name, original))
                setattr(module, name, wrapper)

    def _bind_method(self, cls, name, layer, observer) -> None:
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            original = klass.__dict__.get(name)
            if original is None:
                continue
            self._patched.append((klass, name, original))
            setattr(klass, name, self._wrap(original, layer, observer))

    def _wrap(self, fn, layer, observer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, layer, observer, args, kwargs)

        return traced

    # -- recording ---------------------------------------------------------

    def _call(self, fn, layer, observer, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        outermost = all(span.layer != layer for span in stack)
        span = Span(layer, time.thread_time(), parent, outermost)
        stack.append(span)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            span.end = time.thread_time()
            stack.pop()
            if parent is not None:
                parent.child_s += span.seconds
            self.spans.append(span)
            if observer is not None and outermost:
                with self._count_lock:
                    observer(self.counts, args, kwargs, result, error)

    # -- reading -----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls", "busy_s", "self_s"}}`` for every timed
        layer (zeros for layers the run never entered)."""
        stats = {
            layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            for layer in TIMED_LAYERS
        }
        for span in self.spans:
            entry = stats.setdefault(
                span.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["self_s"] += span.seconds - span.child_s
            if span.outermost:
                entry["busy_s"] += span.seconds
        return stats
