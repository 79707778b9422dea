"""Process-level memo for compact-model instances.

Campaigns, demos and fault-injection loops repeatedly instantiate the
same device: ``TIGSiNWFET(DEFAULT_PARAMS, GateOxideShort('pgs'))`` is
built once per injected fault site.  A model is a pure function of
``(DeviceParameters, defect)`` — frozen, hashable dataclasses — so
identical requests can share one immutable instance per process.

:func:`cached_device` is the memoised constructor;
:func:`clear_model_caches` invalidates it (e.g. after monkeypatching
physics constants in tests), and :func:`model_cache_stats` exposes
hit/miss counters so tests and benchmarks can assert the memo actually
short-circuits rebuilds.
"""

from __future__ import annotations

from repro.device.defects import DeviceDefect
from repro.device.params import DEFAULT_PARAMS, DeviceParameters
from repro.device.tig_model import TIGSiNWFET

_DEVICE_CACHE: dict[tuple, TIGSiNWFET] = {}
_STATS = {"device_hits": 0, "device_misses": 0}


def cached_device(
    params: DeviceParameters = DEFAULT_PARAMS,
    defect: DeviceDefect | None = None,
) -> TIGSiNWFET:
    """Memoised :class:`TIGSiNWFET` for a ``(params, defect)`` pair.

    The returned instance is shared — treat it as immutable (the model
    holds no solve-time state, so sharing across circuits is safe and
    also lets :class:`~repro.spice.mna.MNASystem` group identical
    devices into one vectorised evaluation batch).
    """
    key = (params, defect)
    device = _DEVICE_CACHE.get(key)
    if device is None:
        _STATS["device_misses"] += 1
        device = TIGSiNWFET(params, defect=defect)
        _DEVICE_CACHE[key] = device
    else:
        _STATS["device_hits"] += 1
    return device


def clear_model_caches() -> None:
    """Drop every memoised device (and reset stats).

    Results solved with the old models are not dropped here: clear the
    detection layer's fault-free reference memo too
    (``repro.core.detection.fault_free_reference.cache_clear()``).
    """
    _DEVICE_CACHE.clear()
    for key in _STATS:
        _STATS[key] = 0


def model_cache_stats() -> dict[str, int]:
    """Snapshot of the hit/miss counters."""
    return dict(_STATS)
