"""Canonical cross-layer fault records.

:class:`PolarityFaultRecord` is the one polarity-fault record shared by
the Table III analysis (:func:`repro.core.test_algorithms.polarity_fault_table`)
and the logic universe: it speaks the same ``kind`` vocabulary
(``'n'``/``'p'``) as :class:`repro.faults.logic.PolarityFault` and can
materialise the corresponding network-level fault for a gate instance.
"""

from __future__ import annotations

import dataclasses

from repro.faults.logic import PolarityFault

#: ``kind`` -> Table III fault-type label.
FAULT_TYPE_LABELS = {"n": "stuck-at n-type", "p": "stuck-at p-type"}


@dataclasses.dataclass(frozen=True)
class PolarityFaultRecord:
    """One row of Table III: detectability of a polarity fault.

    Attributes:
        transistor: Cell-local transistor name (``t1`` .. ``t4``).
        kind: ``'n'`` (stuck-at n-type) or ``'p'`` — the same vocabulary
            as :class:`~repro.faults.logic.PolarityFault.kind`.
        detecting_vector: First local input vector that detects the
            fault (``None`` when undetectable).
        leakage_detect: Detecting vector triggers the IDDQ criterion.
        output_detect: Detecting vector corrupts the output voltage.
    """

    transistor: str
    kind: str
    detecting_vector: tuple[int, ...] | None
    leakage_detect: bool
    output_detect: bool

    def __post_init__(self) -> None:
        if self.kind not in FAULT_TYPE_LABELS:
            raise ValueError("kind must be 'n' or 'p'")

    @property
    def fault_type(self) -> str:
        """Table III label (``'stuck-at n-type'`` / ``'stuck-at p-type'``)."""
        return FAULT_TYPE_LABELS[self.kind]

    def fault(self, gate: str, gtype: str) -> PolarityFault:
        """The network-level polarity fault this row describes, placed
        on transistor ``self.transistor`` of gate instance ``gate``."""
        return PolarityFault(gate, gtype, self.transistor, self.kind)
