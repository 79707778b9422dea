"""Controllable-polarity logic-gate library (paper Fig. 2) and
characterisation testbenches."""

from __future__ import annotations

# Public names resolve on first use (PEP 562), so importing one submodule
# does not load its siblings.
_LAZY = {
    "Testbench": "repro.gates.builder",
    "build_cell_circuit": "repro.gates.builder",
    "Cell": "repro.gates.cell",
    "DYNAMIC_POLARITY": "repro.gates.cell",
    "STATIC_POLARITY": "repro.gates.cell",
    "Transistor": "repro.gates.cell",
    "GateCharacterisation": "repro.gates.characterize",
    "characterise": "repro.gates.characterize",
    "dc_truth_table": "repro.gates.characterize",
    "edge_pair_delays": "repro.gates.characterize",
    "static_leakage": "repro.gates.characterize",
    "transition_delay": "repro.gates.characterize",
    "verify_truth_table": "repro.gates.characterize",
    "worst_case_delay": "repro.gates.characterize",
    "worst_static_leakage": "repro.gates.characterize",
    "ALL_CELLS": "repro.gates.library",
    "DP_CELLS": "repro.gates.library",
    "INV": "repro.gates.library",
    "MAJ3": "repro.gates.library",
    "MIN3": "repro.gates.library",
    "NAND2": "repro.gates.library",
    "NAND3": "repro.gates.library",
    "NOR2": "repro.gates.library",
    "NOR3": "repro.gates.library",
    "SP_CELLS": "repro.gates.library",
    "XNOR2": "repro.gates.library",
    "XOR2": "repro.gates.library",
    "XOR3": "repro.gates.library",
    "get_cell": "repro.gates.library",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
