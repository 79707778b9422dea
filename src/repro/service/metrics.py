"""Cache counters for ``repro cache stats`` and ``GET /metrics``.

The instruments themselves live in :mod:`repro.obs`; this module only
bridges the in-process cache counters — the
:func:`repro.device.cache.model_cache_stats` and
:func:`repro.logic.compiled.compile_memo_stats` memo counters, which
stay plain dicts in their own modules — onto a registry as
``repro_cache_events{cache,event}`` gauges.
"""

from __future__ import annotations

import sys

from repro.obs import REGISTRY, Registry


def cache_stats() -> dict[str, dict[str, int]]:
    """Every in-process cache's counters, one dict per cache.

    ``device`` comes from :mod:`repro.device.cache`,
    ``compile_memo`` from the :func:`repro.logic.compiled.compile_network`
    memo.  This is the single source behind both ``repro cache stats``
    and the ``repro_cache_*`` gauges on ``/metrics``.

    The device model is read only if something in this process has
    already imported it: a process that never built a compact model
    has no hits or misses to report, and importing the device layer
    just to read zeros would cost a digital-only server that import
    on its first scrape.
    """
    from repro.logic.compiled import compile_memo_stats

    device_cache = sys.modules.get("repro.device.cache")
    model = device_cache.model_cache_stats() if device_cache else {}
    return {
        "device": {
            "hits": model.get("device_hits", 0),
            "misses": model.get("device_misses", 0),
        },
        "compile_memo": compile_memo_stats(),
    }


def _cache_collector(registry: Registry) -> None:
    g = registry.gauge(
        "repro_cache_events",
        "In-process cache counters (device models, compile memo)",
        ("cache", "event"),
    )
    for cache, stats in cache_stats().items():
        for event, value in stats.items():
            g.labels(cache=cache, event=event).set(float(value))


def install_cache_collectors(registry: Registry | None = None) -> None:
    """Expose the device-model and compile-memo cache counters as
    ``repro_cache_events{cache,event}`` gauges on ``registry``
    (default: the process-wide one).  Idempotent."""
    (registry or REGISTRY).collect(_cache_collector)
