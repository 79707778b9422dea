"""TIG-SiNWFET device-model substrate.

Replaces the paper's Sentaurus TCAD + HSPICE Verilog-A table model with a
calibrated analytic compact model, which circuit simulation evaluates
directly, and device-level defect models (gate-oxide short, channel
break, parameter drift).
"""

from __future__ import annotations

# Public names resolve on first use (PEP 562), so importing one submodule
# does not load its siblings.
_LAZY = {
    "cached_device": "repro.device.cache",
    "clear_model_caches": "repro.device.cache",
    "model_cache_stats": "repro.device.cache",
    "ChannelBreak": "repro.device.defects",
    "DeviceDefect": "repro.device.defects",
    "GateOxideShort": "repro.device.defects",
    "ParameterDrift": "repro.device.defects",
    "CurveMetrics": "repro.device.iv",
    "TransferCurve": "repro.device.iv",
    "compare_to_fault_free": "repro.device.iv",
    "id_sat": "repro.device.iv",
    "on_off_ratio": "repro.device.iv",
    "subthreshold_slope": "repro.device.iv",
    "sweep_id_vcg": "repro.device.iv",
    "threshold_voltage": "repro.device.iv",
    "DEFAULT_PARAMS": "repro.device.params",
    "DeviceParameters": "repro.device.params",
    "table_ii_rows": "repro.device.params",
    "thermal_voltage": "repro.device.params",
    "TIGSiNWFET": "repro.device.tig_model",
    "OperatingPoint": "repro.device.tig_model",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
