"""Metric catalogue and the arithmetic that turns worker results into it.

:data:`END_TO_END` and :data:`PER_LAYER` are what ``BENCHMARK.json``
declares (a self-test keeps them equal).  Each per-layer metric names
the end-to-end metric, and the workload, it should move.
"""

from __future__ import annotations

import statistics

from tracing import TIMED_LAYERS

#: (name, unit, better, bound).  Every workload reports every one.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_rate", "ratio", "higher", 0.05),
)

_CORPUS_RUN = "run_s@corpus_scale"
_GRID_RUN = "run_s@paper_grid"
_SCREEN = "run_s,ok_rate@cell_screen"
_SERVICE = "run_s,status_p50_ms,job_p50_ms@service_jobs"

#: Timed layer -> the end-to-end metric(s) and workload it should move.
LAYER_MOVES: dict[str, str] = {
    "registry.load": _CORPUS_RUN,
    "faults.collapse": "fault_vectors_per_s@corpus_scale",
    "compiled.compile": f"{_CORPUS_RUN};{_GRID_RUN}",
    "fault_sim": "fault_vectors_per_s@corpus_scale",
    "podem": "podem_faults_per_s@corpus_scale",
    "polarity_atpg": _GRID_RUN,
    "iddq": _GRID_RUN,
    "sof_atpg": _GRID_RUN,
    "compaction": _GRID_RUN,
    "runner.campaign": f"{_GRID_RUN};job_p50_ms@service_jobs",
    "runner.cell": f"{_GRID_RUN};job_p50_ms@service_jobs",
    "runner.fault_class": f"{_GRID_RUN};job_p50_ms@service_jobs",
    "store.append": f"{_GRID_RUN};jobs_per_s@service_jobs",
    "store.latest": f"{_GRID_RUN};jobs_per_s@service_jobs",
    "store.claim": f"{_GRID_RUN};jobs_per_s@service_jobs",
    "gates.build": _SCREEN,
    "spice.dc": _SCREEN,
    "spice.transient": _SCREEN,
    "jobs.submit": _SERVICE,
    "jobs.status": _SERVICE,
    "jobs.results": _SERVICE,
}

#: (name, unit, better, moves) for the metrics that are not a timed
#: layer's calls / busy_s / self_s.
_EXTRA: tuple[tuple[str, str, str, str], ...] = (
    ("import.cli_s", "s", "lower", "setup_s@all"),
    ("faults.collapse.faults_out", "count", "lower",
     "fault_vectors_per_s@corpus_scale"),
    ("compiled.memo.hit_ratio", "ratio", "higher",
     f"{_CORPUS_RUN};{_GRID_RUN}"),
    ("fault_sim.fault_vectors", "count", "lower",
     "fault_vectors_per_s@corpus_scale"),
    ("podem.faults_targeted", "count", "lower",
     "podem_faults_per_s@corpus_scale"),
    ("podem.backtracks", "count", "lower", "podem_faults_per_s@corpus_scale"),
    ("podem.aborted", "count", "lower", "podem_faults_per_s@corpus_scale"),
    ("podem.untestable", "count", "higher",
     "podem_faults_per_s@corpus_scale"),
    ("podem.detect_ratio", "ratio", "higher",
     "podem_faults_per_s@corpus_scale"),
    ("iddq.vectors", "count", "lower", _GRID_RUN),
    ("compaction.keep_ratio", "ratio", "lower", _GRID_RUN),
    ("runner.cells", "count", "lower", _GRID_RUN),
    ("runner.cell_busy_s", "s", "lower", _GRID_RUN),
    ("runner.overhead_s", "s", "lower",
     f"{_GRID_RUN};job_p50_ms@service_jobs"),
    ("spice.dc.points", "count", "lower", _SCREEN),
    ("spice.dc.failed_points", "count", "lower", _SCREEN),
    ("device.cache.hit_ratio", "ratio", "higher", _SCREEN),
    ("jobs.queue_wait_ms", "ms", "lower", "job_p50_ms@service_jobs"),
    ("http.submit.p50_ms", "ms", "lower", "job_p50_ms@service_jobs"),
    ("http.status.p50_ms", "ms", "lower", _SERVICE),
    ("http.results.p50_ms", "ms", "lower", "job_p50_ms@service_jobs"),
    # Workload-level figures that only one workload has, measured on
    # the untraced passes of the traced run (0 on other workloads).
    ("fault_vectors_per_s", "1/s", "higher",
     "fault_vectors_per_s@corpus_scale,cell_screen"),
    ("podem_faults_per_s", "1/s", "higher",
     "podem_faults_per_s@corpus_scale"),
    ("jobs_per_s", "1/s", "higher", "jobs_per_s@service_jobs"),
    ("job_p50_ms", "ms", "lower", "job_p50_ms@service_jobs"),
    ("status_p50_ms", "ms", "lower", "status_p50_ms@service_jobs"),
    ("error_rate", "ratio", "lower", "ok_rate@all"),
    ("trace.overhead_s", "s", "lower", "run_s@all (traced minus untraced)"),
)


def _per_layer() -> tuple[tuple[str, str, str, str], ...]:
    rows = []
    for layer in TIMED_LAYERS:
        moves = LAYER_MOVES[layer]
        rows.append((f"{layer}.calls", "count", "lower", moves))
        rows.append((f"{layer}.busy_s", "s", "lower", moves))
        rows.append((f"{layer}.self_s", "s", "lower", moves))
    return tuple(rows) + _EXTRA


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def hit_counts(before: dict, after: dict) -> tuple[int, int]:
    """(hits, misses) between two snapshots of a cache's counters."""
    hits = sum(after[k] - before.get(k, 0) for k in after
               if k.endswith("hits"))
    misses = sum(after[k] - before.get(k, 0) for k in after
                 if k.endswith("misses"))
    return hits, misses


def traced_layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (zeros where a layer was
    never entered)."""
    layers, counts = result["layers"], result["counts"]
    metrics: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        for key in ("calls", "busy_s", "self_s"):
            metrics[f"{layer}.{key}"] = layers[layer][key]
    targeted = sum(
        counts.get(f"podem.{k}", 0) for k in ("tests", "aborted", "untestable")
    )
    metrics.update({
        "faults.collapse.faults_out": counts.get("faults.collapse.faults_out", 0),
        "compiled.memo.hit_ratio": ratio(result["memo"][0], sum(result["memo"])),
        "fault_sim.fault_vectors": counts.get("fault_sim.fault_vectors", 0),
        "podem.faults_targeted": targeted,
        "podem.backtracks": counts.get("podem.backtracks", 0),
        "podem.aborted": counts.get("podem.aborted", 0),
        "podem.untestable": counts.get("podem.untestable", 0),
        "podem.detect_ratio": ratio(counts.get("podem.tests", 0), targeted),
        "iddq.vectors": counts.get("iddq.vectors", 0),
        "compaction.keep_ratio": ratio(
            counts.get("compaction.tests_kept", 0),
            counts.get("compaction.tests_in", 0),
        ),
        "runner.cells": layers["runner.cell"]["calls"],
        "runner.cell_busy_s": layers["runner.fault_class"]["busy_s"],
        "runner.overhead_s": max(
            0.0,
            layers["runner.campaign"]["busy_s"]
            - layers["runner.fault_class"]["busy_s"],
        ),
        "spice.dc.points": counts.get("spice.dc.points", 0),
        "spice.dc.failed_points": counts.get("spice.dc.failed_points", 0),
        "device.cache.hit_ratio": ratio(
            result["device_cache"][0], sum(result["device_cache"])
        ),
    })
    return metrics


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over passes."""
    return {name: median(row[name] for row in rows) for name in rows[0]}
