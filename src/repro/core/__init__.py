"""The paper's primary contribution: CP fault models, inductive fault
analysis, detectability measurement and the new test algorithms."""

from __future__ import annotations

#: The historical PolarityFaultRow name resolves silently here;
#: the ``repro.core.test_algorithms`` path is the warning shim.
_ALIASES = {"PolarityFaultRow": "PolarityFaultRecord"}

# Public names resolve on first use (PEP 562), so importing one submodule
# does not load its siblings.
_LAZY = {
    "ApplicableModel": "repro.core.classify",
    "BehaviourPoint": "repro.core.classify",
    "SweepClassification": "repro.core.classify",
    "classify_point": "repro.core.classify",
    "classify_sweep": "repro.core.classify",
    "DefectMechanism": "repro.core.defects",
    "DefectSite": "repro.core.defects",
    "FABRICATION_STEPS": "repro.core.defects",
    "FabricationStep": "repro.core.defects",
    "enumerate_defect_sites": "repro.core.defects",
    "table_i_rows": "repro.core.defects",
    "DetectionReport": "repro.core.detection",
    "IDDQ_DETECT_RATIO": "repro.core.detection",
    "VectorObservation": "repro.core.detection",
    "characterise_fault": "repro.core.detection",
    "screen_cell_faults": "repro.core.detection",
    "ChannelBreakFault": "repro.core.fault_models",
    "CircuitFault": "repro.core.fault_models",
    "DriveDriftFault": "repro.core.fault_models",
    "FloatingPolarityGate": "repro.core.fault_models",
    "GOSFault": "repro.core.fault_models",
    "InterconnectBridgeFault": "repro.core.fault_models",
    "StuckAtNType": "repro.core.fault_models",
    "StuckAtPType": "repro.core.fault_models",
    "StuckOnFault": "repro.core.fault_models",
    "TerminalBridgeFault": "repro.core.fault_models",
    "IFAResult": "repro.core.inductive",
    "IFASummary": "repro.core.inductive",
    "run_ifa": "repro.core.inductive",
    "summarise_ifa": "repro.core.inductive",
    "ChannelBreakProcedure": "repro.core.test_algorithms",
    "ChannelBreakStep": "repro.core.test_algorithms",
    "TwoPatternTest": "repro.core.test_algorithms",
    "channel_break_procedure": "repro.core.test_algorithms",
    "polarity_fault_table": "repro.core.test_algorithms",
    "run_channel_break_procedure": "repro.core.test_algorithms",
    "simulate_two_pattern": "repro.core.test_algorithms",
    "two_pattern_sof_tests": "repro.core.test_algorithms",
    "PolarityFaultRecord": "repro.faults.records",
    "PolarityFaultRow": "repro.faults.records",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, _ALIASES.get(name, name))
