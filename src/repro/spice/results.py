"""Result types of the DC and transient analyses.

They sit below :mod:`repro.spice.batched` (which fills them) and the
one-point entry points :mod:`repro.spice.dc` and
:mod:`repro.spice.transient` (which call it), so none of those modules
imports another for its types.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.spice.netlist import Circuit


@dataclasses.dataclass
class OperatingPoint:
    """Result of a DC analysis.

    Attributes:
        voltages: Node name -> voltage [V] (ground nodes are implied 0).
        source_currents: Voltage-source name -> branch current [A]
            flowing from the positive terminal through the source to the
            negative terminal (so a supply sourcing current into the
            circuit reports a *negative* value, as in SPICE).
    """

    voltages: dict[str, float]
    source_currents: dict[str, float]

    def voltage(self, node: str) -> float:
        if Circuit.is_ground(node):
            return 0.0
        return self.voltages[node]

    def supply_current(self, source_name: str = "vdd") -> float:
        """Magnitude of the current delivered by a supply source.

        This is the paper's IDDQ observable: the static current drawn
        from VDD.
        """
        return abs(self.source_currents[source_name])


@dataclasses.dataclass
class TransientResult:
    """Waveforms from a transient run.

    Attributes:
        times: Sample times [s], shape (n,).
        voltages: Node name -> voltage samples, each shape (n,).
        source_currents: Voltage-source name -> branch current samples.
    """

    times: np.ndarray
    voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        if Circuit.is_ground(node):
            return np.zeros_like(self.times)
        return self.voltages[node]

    def final_supply_current(self, source_name: str = "vdd") -> float:
        """|supply current| averaged over the last 5 % of the run."""
        samples = np.abs(self.source_currents[source_name])
        tail = max(1, len(samples) // 20)
        return float(np.mean(samples[-tail:]))
