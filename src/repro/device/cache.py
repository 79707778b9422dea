"""Process-level memo for compact-model instances and table models.

Campaigns, demos and fault-injection loops repeatedly instantiate the
same device: ``TIGSiNWFET(DEFAULT_PARAMS, GateOxideShort('pgs'))`` is
built once per injected fault site, and a :class:`TableModel` resamples
the full 4-D TCAD grid on every construction.  Both are pure functions
of ``(DeviceParameters, defect)`` — frozen, hashable dataclasses — so
identical requests can share one immutable instance per process.

:func:`cached_device` and :func:`cached_table_model` are the memoised
constructors; :func:`clear_model_caches` invalidates everything (e.g.
after monkeypatching physics constants in tests), and
:func:`model_cache_stats` exposes hit/miss counters so tests and
benchmarks can assert the memo actually short-circuits rebuilds.
"""

from __future__ import annotations

from repro.device.defects import DeviceDefect
from repro.device.params import DEFAULT_PARAMS, DeviceParameters
from repro.device.table_model import TableModel
from repro.device.tig_model import TIGSiNWFET

_DEVICE_CACHE: dict[tuple, TIGSiNWFET] = {}
_TABLE_CACHE: dict[tuple, TableModel] = {}
_STATS = {"device_hits": 0, "device_misses": 0,
          "table_hits": 0, "table_misses": 0}


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


def cached_table_model(
    params: DeviceParameters = DEFAULT_PARAMS,
    defect: DeviceDefect | None = None,
    grid_points: int = 25,
    vds_points: int = 17,
    margin: float = 0.2,
) -> TableModel:
    """Memoised :class:`TableModel` (one 4-D grid sample per process).

    Keyed by the full sampling recipe ``(params, defect, grid_points,
    vds_points, margin)``; the underlying device comes from
    :func:`cached_device` so the analytic model is shared too.
    """
    key = (params, defect, grid_points, vds_points, margin)
    table = _TABLE_CACHE.get(key)
    if table is None:
        _STATS["table_misses"] += 1
        table = TableModel(
            cached_device(params, defect),
            grid_points=grid_points,
            vds_points=vds_points,
            margin=margin,
        )
        _TABLE_CACHE[key] = table
    else:
        _STATS["table_hits"] += 1
    return table


def clear_model_caches() -> None:
    """Drop every memoised device and table model (and reset stats).

    Results solved with the old models are not dropped here: clear the
    detection layer's fault-free reference memo too
    (``repro.core.detection.fault_free_reference.cache_clear()``).
    """
    _DEVICE_CACHE.clear()
    _TABLE_CACHE.clear()
    for key in _STATS:
        _STATS[key] = 0


def model_cache_stats() -> dict[str, int]:
    """Snapshot of the hit/miss counters."""
    return dict(_STATS)
