"""Experiment drivers and reporting for every paper table and figure.

Every driver here is also reachable from the CLI: ``python -m repro
experiment <name>`` dispatches through
:data:`repro.analysis.experiments.EXPERIMENTS`, and the circuit-scale
coverage study runs as a campaign grid (see :mod:`repro.campaign`).
"""

from __future__ import annotations

# Public names resolve on first use (PEP 562), so importing one submodule
# does not load its siblings.
_LAZY = {
    "CircuitCoverage": "repro.analysis.atpg_experiments",
    "classic_stuck_at_testset": "repro.analysis.atpg_experiments",
    "coverage_for": "repro.analysis.atpg_experiments",
    "coverage_from_records": "repro.analysis.atpg_experiments",
    "experiment_atpg_coverage": "repro.analysis.atpg_experiments",
    "EXPERIMENTS": "repro.analysis.experiments",
    "FIG5_PANELS": "repro.analysis.experiments",
    "experiment_fig3": "repro.analysis.experiments",
    "experiment_fig4": "repro.analysis.experiments",
    "experiment_fig5": "repro.analysis.experiments",
    "experiment_sec5c": "repro.analysis.experiments",
    "experiment_table1": "repro.analysis.experiments",
    "experiment_table2": "repro.analysis.experiments",
    "experiment_table3": "repro.analysis.experiments",
    "ascii_table": "repro.analysis.report",
    "format_quantity": "repro.analysis.report",
    "format_series": "repro.analysis.report",
    "save_report": "repro.analysis.report",
    "VcutPoint": "repro.analysis.sweeps",
    "VcutSweep": "repro.analysis.sweeps",
    "pull_down_vcut_axis": "repro.analysis.sweeps",
    "pull_up_vcut_axis": "repro.analysis.sweeps",
    "vcut_sweep": "repro.analysis.sweeps",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
