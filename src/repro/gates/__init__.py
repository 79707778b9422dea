"""Controllable-polarity logic-gate library (paper Fig. 2) and
characterisation testbenches."""

from repro.gates.builder import Testbench, build_cell_circuit
from repro.gates.cell import (
    Cell,
    DYNAMIC_POLARITY,
    STATIC_POLARITY,
    Transistor,
)
from repro.gates.characterize import (
    GateCharacterisation,
    characterise,
    dc_truth_table,
    edge_pair_delays,
    static_leakage,
    transition_delay,
    verify_truth_table,
    worst_case_delay,
    worst_static_leakage,
)
from repro.gates.library import (
    ALL_CELLS,
    DP_CELLS,
    INV,
    MAJ3,
    MIN3,
    NAND2,
    NAND3,
    NOR2,
    NOR3,
    SP_CELLS,
    XNOR2,
    XOR2,
    XOR3,
    get_cell,
)

__all__ = [
    "ALL_CELLS",
    "Cell",
    "DP_CELLS",
    "DYNAMIC_POLARITY",
    "GateCharacterisation",
    "INV",
    "MAJ3",
    "MIN3",
    "NAND2",
    "NAND3",
    "NOR2",
    "NOR3",
    "SP_CELLS",
    "STATIC_POLARITY",
    "Testbench",
    "Transistor",
    "XNOR2",
    "XOR2",
    "XOR3",
    "build_cell_circuit",
    "characterise",
    "dc_truth_table",
    "edge_pair_delays",
    "get_cell",
    "static_leakage",
    "transition_delay",
    "verify_truth_table",
    "worst_case_delay",
    "worst_static_leakage",
]
